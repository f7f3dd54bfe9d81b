/**
 * @file
 * Simulator component micro-benchmarks (google-benchmark): cache
 * and SNC operation costs, workload generation rate, and end-to-end
 * simulated instructions per second — the numbers that determine
 * figure-bench wall time.
 */

#include <benchmark/benchmark.h>

#include <filesystem>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/main_memory.hh"
#include "mem/virtual_memory.hh"
#include "secure/integrity.hh"
#include "secure/snc.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/trace_io.hh"
#include "util/random.hh"

namespace
{

using namespace secproc;

void
benchCacheAccess(benchmark::State &state)
{
    mem::CacheConfig config;
    config.size_bytes = 256 * 1024;
    config.assoc = static_cast<uint32_t>(state.range(0));
    config.line_size = 128;
    mem::Cache cache(config);
    util::Rng rng(1);

    for (auto _ : state) {
        const uint64_t addr = rng.nextRange(1 << 22);
        if (!cache.access(addr, false))
            benchmark::DoNotOptimize(cache.fill(addr, false, 0));
    }
}

void
benchSncQueryInstall(benchmark::State &state)
{
    secure::SncConfig config;
    config.capacity_bytes = 64 * 1024;
    config.assoc = static_cast<uint32_t>(state.range(0));
    secure::SequenceNumberCache snc(config);
    util::Rng rng(2);

    for (auto _ : state) {
        const uint64_t line_va = rng.nextRange(128 * 1024) * 128;
        if (!snc.query(line_va).has_value())
            benchmark::DoNotOptimize(snc.install(line_va, 1));
    }
}

void
benchWorkloadGeneration(benchmark::State &state)
{
    sim::SyntheticWorkload workload(sim::benchmarkProfile("gcc"));
    for (auto _ : state)
        benchmark::DoNotOptimize(&workload.next());
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
benchFullSystem(benchmark::State &state)
{
    const auto config = sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload workload(sim::benchmarkProfile("parser"),
                                    config.l2.line_size);
    sim::System system(config, workload);
    for (auto _ : state)
        system.run(10'000);
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            10'000);
}

void
benchDramAccess(benchmark::State &state)
{
    mem::DramConfig config;
    config.closed_page = state.range(0) != 0;
    mem::DramModel dram(config);
    util::Rng rng(3);
    uint64_t cycle = 0;
    for (auto _ : state) {
        cycle += 50;
        benchmark::DoNotOptimize(
            dram.access(cycle, rng.nextRange(1ull << 28) & ~127ull));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
benchSectoredSnc(benchmark::State &state)
{
    secure::SncConfig config;
    config.capacity_bytes = 64 * 1024;
    config.assoc = 0;
    config.sector_lines = static_cast<uint32_t>(state.range(0));
    secure::SequenceNumberCache snc(config);
    util::Rng rng(4);
    for (auto _ : state) {
        const uint64_t line_va = rng.nextRange(128 * 1024) * 128;
        if (!snc.query(line_va).has_value())
            benchmark::DoNotOptimize(snc.install(line_va, 1));
    }
}

void
benchMainMemoryLine(benchmark::State &state)
{
    // Page-directory walk cost: line-sized read/write pairs over a
    // pre-touched footprint (arg = footprint in MiB).
    mem::MainMemory memory;
    const uint64_t footprint = static_cast<uint64_t>(state.range(0))
                               << 20;
    std::array<uint8_t, 128> line{};
    for (uint64_t addr = 0; addr < footprint; addr += 4096)
        memory.writeLine(addr, line);

    util::Rng rng(5);
    for (auto _ : state) {
        const uint64_t addr = rng.nextRange(footprint) & ~127ull;
        memory.readLine(addr, line);
        memory.writeLine(addr, line);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
benchVmTranslate(benchmark::State &state)
{
    // Radix page-table walk (arg = footprint pages; 256 pages sit in
    // one radix group, 16384 spread over 32 groups).
    mem::VirtualMemory vm;
    const uint64_t pages = static_cast<uint64_t>(state.range(0));
    for (uint64_t p = 0; p < pages; ++p)
        vm.translate(1, p * mem::VirtualMemory::kPageSize);

    util::Rng rng(6);
    for (auto _ : state) {
        const uint64_t vaddr =
            rng.nextRange(pages) * mem::VirtualMemory::kPageSize;
        benchmark::DoNotOptimize(vm.translate(1, vaddr));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
benchMacTableLookup(benchmark::State &state)
{
    // Flat MAC-table hit path (storedMac on the verify side).
    secure::IntegrityConfig config;
    config.mode = secure::IntegrityMode::MacBlocking;
    secure::IntegrityEngine engine(config);
    const uint64_t lines = 64 * 1024;
    secure::LineMac mac{};
    for (uint64_t i = 0; i < lines; ++i)
        engine.storeMac(i * config.line_size, mac);

    util::Rng rng(7);
    for (auto _ : state) {
        const uint64_t line_va =
            rng.nextRange(lines) * config.line_size;
        benchmark::DoNotOptimize(engine.storedMac(line_va));
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}

void
benchTraceReplay(benchmark::State &state)
{
    const auto path = std::filesystem::temp_directory_path() /
                      "secproc_micro_trace.bin";
    {
        sim::SyntheticWorkload workload(sim::benchmarkProfile("gzip"),
                                        128);
        sim::recordTrace(path.string(), workload, 100'000);
    }
    sim::TraceWorkload replay(path.string());
    for (auto _ : state)
        benchmark::DoNotOptimize(&replay.next());
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
    std::filesystem::remove(path);
}

BENCHMARK(benchCacheAccess)->Arg(4)->Arg(0);
BENCHMARK(benchSncQueryInstall)->Arg(32)->Arg(0);
BENCHMARK(benchWorkloadGeneration);
BENCHMARK(benchFullSystem);
BENCHMARK(benchDramAccess)->Arg(0)->Arg(1);
BENCHMARK(benchSectoredSnc)->Arg(1)->Arg(8);
BENCHMARK(benchMainMemoryLine)->Arg(4)->Arg(64);
BENCHMARK(benchVmTranslate)->Arg(256)->Arg(16384);
BENCHMARK(benchMacTableLookup);
BENCHMARK(benchTraceReplay);

} // namespace

BENCHMARK_MAIN();
