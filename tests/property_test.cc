/**
 * @file
 * Property-based sweeps over the whole design space.
 *
 * Where the unit tests pin single behaviours, these tests assert the
 * *relations* the paper's argument rests on, across parameter grids:
 * engine fill-cost identities over (memory, crypto) latency pairs,
 * the machine ordering baseline <= SNC-LRU <= SNC-NoRepl <= XOM on
 * every benchmark profile, monotonicity in SNC capacity and crypto
 * latency, and model-based equivalence of the cache and SNC against
 * tiny reference implementations.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <tuple>

#include "crypto/latency.hh"
#include "mem/cache.hh"
#include "mem/memory_channel.hh"
#include "secure/engines.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "util/random.hh"

namespace
{

using namespace secproc;
using namespace secproc::sim;
using secproc::util::Rng;

// ================================================ engine cost identities

/** (memory latency, crypto latency). */
using LatencyPair = std::tuple<uint32_t, uint32_t>;

class EngineCosts : public ::testing::TestWithParam<LatencyPair>
{
  protected:
    EngineCosts()
    {
        std::vector<uint8_t> key(8, 0x42);
        keys_.install(1, secure::CipherKind::Des, key);
    }

    /** A fresh channel with pure latencies (no bus occupancy). */
    mem::MemoryChannel
    makeChannel() const
    {
        mem::ChannelConfig config;
        config.access_latency = std::get<0>(GetParam());
        config.transfer_cycles = 0;
        config.small_transfer_cycles = 0;
        return mem::MemoryChannel(config);
    }

    secure::ProtectionConfig
    makeConfig(secure::SecurityModel model) const
    {
        secure::ProtectionConfig config;
        config.model = model;
        config.crypto.latency = std::get<1>(GetParam());
        config.crypto.initiation_interval = 1;
        config.snc.l2_line_size = 128;
        config.line_size = 128;
        return config;
    }

    secure::KeyTable keys_;
};

TEST_P(EngineCosts, XomFillIsMemoryPlusCrypto)
{
    const auto [m, c] = GetParam();
    auto channel = makeChannel();
    secure::XomEngine engine(makeConfig(secure::SecurityModel::Xom),
                             channel, keys_);
    engine.planEvict(0x1000, mem::RegionKind::Protected); // Direct now
    const auto fill = engine.lineFill(0x1000, /*cycle=*/100'000, false,
                                      mem::RegionKind::Protected);
    EXPECT_EQ(fill.ready_cycle, 100'000 + m + c);
}

TEST_P(EngineCosts, OtpFastPathIsMaxPlusOne)
{
    const auto [m, c] = GetParam();
    auto channel = makeChannel();
    secure::OtpEngine engine(makeConfig(secure::SecurityModel::OtpSnc),
                             channel, keys_);
    engine.planEvict(0x1000, mem::RegionKind::Protected); // SNC entry
    const auto fill = engine.lineFill(0x1000, 100'000, false,
                                      mem::RegionKind::Protected);
    EXPECT_TRUE(fill.fast_path);
    EXPECT_EQ(fill.ready_cycle, 100'000 + std::max(m, c) + 1);
}

TEST_P(EngineCosts, InstructionFetchAlwaysFast)
{
    const auto [m, c] = GetParam();
    auto channel = makeChannel();
    secure::OtpEngine engine(makeConfig(secure::SecurityModel::OtpSnc),
                             channel, keys_);
    const auto fill = engine.lineFill(0x4000, 100'000, /*ifetch=*/true,
                                      mem::RegionKind::Protected);
    EXPECT_TRUE(fill.fast_path);
    EXPECT_EQ(fill.ready_cycle, 100'000 + std::max(m, c) + 1);
}

TEST_P(EngineCosts, OtpQueryMissSerialCost)
{
    const auto [m, c] = GetParam();
    auto channel = makeChannel();
    secure::OtpEngine engine(makeConfig(secure::SecurityModel::OtpSnc),
                             channel, keys_);
    engine.planEvict(0x1000, mem::RegionKind::Protected);
    engine.flushSnc(0); // seqnum now only in the in-memory table
    const auto fill = engine.lineFill(0x1000, 100'000, false,
                                      mem::RegionKind::Protected);
    EXPECT_TRUE(fill.snc_query_miss);
    // Algorithm 1 (serial): seqnum fetch (m) + seqnum decrypt (c),
    // then pad generation (another c) overlaps the line fetch (m):
    // ready = max(2m + c, m + 2c) + 1.
    const uint64_t expected =
        std::max(2 * m + c, m + 2 * c) + 1;
    EXPECT_EQ(fill.ready_cycle, 100'000 + expected);
}

TEST_P(EngineCosts, OtpQueryMissParallelFetchIsNoSlower)
{
    const auto [m, c] = GetParam();
    auto serial_channel = makeChannel();
    auto config = makeConfig(secure::SecurityModel::OtpSnc);
    secure::OtpEngine serial(config, serial_channel, keys_);
    serial.planEvict(0x1000, mem::RegionKind::Protected);
    serial.flushSnc(0);
    const auto slow = serial.lineFill(0x1000, 100'000, false,
                                      mem::RegionKind::Protected);

    auto parallel_channel = makeChannel();
    config.parallel_seqnum_fetch = true;
    secure::OtpEngine parallel(config, parallel_channel, keys_);
    parallel.planEvict(0x1000, mem::RegionKind::Protected);
    parallel.flushSnc(0);
    const auto fast = parallel.lineFill(0x1000, 100'000, false,
                                        mem::RegionKind::Protected);
    EXPECT_LE(fast.ready_cycle, slow.ready_cycle);
    (void)m;
    (void)c;
}

TEST_P(EngineCosts, BaselineFillIsMemoryOnly)
{
    const auto [m, c] = GetParam();
    auto channel = makeChannel();
    secure::BaselineEngine engine(
        makeConfig(secure::SecurityModel::Baseline), channel, keys_);
    const auto fill = engine.lineFill(0x1000, 100'000, false,
                                      mem::RegionKind::Protected);
    EXPECT_EQ(fill.ready_cycle, 100'000 + m);
    (void)c;
}

INSTANTIATE_TEST_SUITE_P(
    LatencyGrid, EngineCosts,
    ::testing::Combine(::testing::Values(50u, 100u, 200u),
                       ::testing::Values(25u, 50u, 102u, 200u)),
    [](const auto &info) {
        return "mem" + std::to_string(std::get<0>(info.param)) +
               "_crypto" + std::to_string(std::get<1>(info.param));
    });

// ============================================== whole-machine orderings

class MachineOrdering : public ::testing::TestWithParam<std::string>
{
  protected:
    static uint64_t
    cyclesFor(const std::string &bench, const SystemConfig &config)
    {
        SyntheticWorkload workload(benchmarkProfile(bench),
                                   config.l2.line_size);
        System system(config, workload);
        system.run(300'000);
        return system.core().cycles();
    }
};

TEST_P(MachineOrdering, BaselineLruNoreplXom)
{
    const std::string bench = GetParam();
    const uint64_t base =
        cyclesFor(bench, paperConfig(secure::SecurityModel::Baseline));
    auto lru_config = paperConfig(secure::SecurityModel::OtpSnc);
    const uint64_t lru = cyclesFor(bench, lru_config);
    auto norepl_config = paperConfig(secure::SecurityModel::OtpSnc);
    norepl_config.protection.snc.allow_replacement = false;
    const uint64_t norepl = cyclesFor(bench, norepl_config);
    const uint64_t xom =
        cyclesFor(bench, paperConfig(secure::SecurityModel::Xom));

    // The paper's Figure 5 ordering, with a 1% slack for runs where
    // two machines are effectively tied.
    EXPECT_LE(base, lru);
    EXPECT_LE(lru, norepl + norepl / 100);
    EXPECT_LE(norepl, xom + xom / 100);
}

TEST_P(MachineOrdering, SlowdownShrinksWithSncCapacity)
{
    const std::string bench = GetParam();
    const uint64_t base =
        cyclesFor(bench, paperConfig(secure::SecurityModel::Baseline));
    uint64_t previous = ~0ull;
    for (const uint64_t kb : {32ull, 64ull, 128ull}) {
        auto config = paperConfig(secure::SecurityModel::OtpSnc);
        config.protection.snc.capacity_bytes = kb * 1024;
        const uint64_t cycles = cyclesFor(bench, config);
        EXPECT_GE(base, 1u);
        EXPECT_LE(cycles, previous + previous / 100)
            << bench << " at " << kb << "KB";
        previous = cycles;
    }
}

TEST_P(MachineOrdering, OtpInsensitiveToCryptoLatencyXomIsNot)
{
    const std::string bench = GetParam();
    const uint64_t base =
        cyclesFor(bench, paperConfig(secure::SecurityModel::Baseline));

    auto xom50 = paperConfig(secure::SecurityModel::Xom);
    auto xom102 = paperConfig(secure::SecurityModel::Xom);
    xom102.protection.crypto.latency =
        crypto::kStrongCipherLatency;
    const uint64_t x50 = cyclesFor(bench, xom50);
    const uint64_t x102 = cyclesFor(bench, xom102);
    EXPECT_GE(x102, x50) << "longer crypto cannot speed XOM up";

    auto otp50 = paperConfig(secure::SecurityModel::OtpSnc);
    auto otp102 = paperConfig(secure::SecurityModel::OtpSnc);
    otp102.protection.crypto.latency =
        crypto::kStrongCipherLatency;
    const uint64_t o50 = cyclesFor(bench, otp50);
    const uint64_t o102 = cyclesFor(bench, otp102);

    // Figure 10's claim: the OTP fast path is max(mem, crypto) + 1,
    // so moving crypto from 50 to 102 (vs 100-cycle memory) shifts
    // OTP by at most a few points while XOM pays the full delta on
    // every fill. Slowdown deltas, in percent of baseline:
    const double otp_delta = 100.0 *
        (static_cast<double>(o102) - static_cast<double>(o50)) /
        static_cast<double>(base);
    const double xom_delta = 100.0 *
        (static_cast<double>(x102) - static_cast<double>(x50)) /
        static_cast<double>(base);
    EXPECT_LE(otp_delta, 5.0) << bench;
    if (xom_delta > 2.0) {
        EXPECT_GT(xom_delta, otp_delta)
            << "memory-bound " << bench
            << ": XOM must suffer more from slower crypto";
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, MachineOrdering,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto &info) { return info.param; });

// ======================================== cache vs reference LRU model

struct CacheGeometry
{
    uint64_t size_bytes;
    uint32_t assoc; // 0 = fully associative
    uint32_t line_size;
};

class CacheModelEquivalence
    : public ::testing::TestWithParam<CacheGeometry>
{};

/**
 * Minimal reference: per-set LRU lists (front = MRU) plus a line ->
 * list position index, so the 32K-line SNC geometry stays cheap.
 * Lines keep the entry mem::Cache gives them: a set's ways in order
 * while it has free ones (nothing is ever invalidated here), then the
 * victim's.
 */
class ReferenceCache
{
  public:
    explicit ReferenceCache(const CacheGeometry &geometry)
        : geometry_(geometry)
    {
        const uint64_t lines = geometry.size_bytes / geometry.line_size;
        ways_ = geometry.assoc == 0 ? lines : geometry.assoc;
        sets_.resize(lines / ways_);
    }

    bool
    access(uint64_t addr)
    {
        const uint64_t line = addr / geometry_.line_size;
        const auto it = where_.find(line);
        if (it == where_.end())
            return false;
        auto &set = setFor(line);
        set.splice(set.begin(), set, it->second);
        return true;
    }

    /** @return displaced line number, or ~0 if none. */
    uint64_t
    fill(uint64_t addr)
    {
        if (access(addr))
            return ~0ull;
        const uint64_t line = addr / geometry_.line_size;
        auto &set = setFor(line);
        uint64_t victim = ~0ull;
        uint64_t entry = line % sets_.size() * ways_ + set.size();
        if (set.size() == ways_) {
            victim = set.back();
            entry = entries_[victim];
            entries_.erase(victim);
            where_.erase(victim);
            set.pop_back();
        }
        set.push_front(line);
        where_[line] = set.begin();
        entries_[line] = entry;
        return victim;
    }

    /** Set @p set's (line number, entry) pairs, most recent first. */
    std::vector<std::pair<uint64_t, uint64_t>>
    residents(uint64_t set) const
    {
        std::vector<std::pair<uint64_t, uint64_t>> lines;
        for (const uint64_t line : sets_[set])
            lines.emplace_back(line, entries_.at(line));
        return lines;
    }

  private:
    std::list<uint64_t> &
    setFor(uint64_t line)
    {
        return sets_[line % sets_.size()];
    }

    CacheGeometry geometry_;
    uint64_t ways_;
    std::vector<std::list<uint64_t>> sets_;
    std::map<uint64_t, std::list<uint64_t>::iterator> where_;
    std::map<uint64_t, uint64_t> entries_;
};

TEST_P(CacheModelEquivalence, RandomStreamMatchesReference)
{
    const CacheGeometry geometry = GetParam();
    mem::CacheConfig config;
    config.size_bytes = geometry.size_bytes;
    config.assoc = geometry.assoc;
    config.line_size = geometry.line_size;
    config.policy = mem::ReplacementPolicy::Lru;
    mem::Cache cache(config);
    ReferenceCache reference(geometry);

    Rng rng(geometry.size_bytes ^ geometry.line_size);
    const uint64_t span = geometry.size_bytes * 4;
    // Enough misses to fill every set several times over.
    const uint64_t ops = std::max<uint64_t>(
        20'000, 4 * geometry.size_bytes / geometry.line_size);
    for (uint64_t i = 0; i < ops; ++i) {
        const uint64_t addr = rng.nextRange(span);
        const bool hit = cache.access(addr, /*write=*/false);
        const bool ref_hit = reference.access(addr);
        ASSERT_EQ(hit, ref_hit) << "op " << i << " addr " << addr;
        if (!hit) {
            const auto victim = cache.fill(addr, false, 0);
            const uint64_t ref_victim = reference.fill(addr);
            ASSERT_TRUE(victim.has_value());
            if (ref_victim == ~0ull) {
                ASSERT_FALSE(victim->valid) << "op " << i;
            } else {
                ASSERT_TRUE(victim->valid) << "op " << i;
                ASSERT_EQ(victim->line_addr / geometry.line_size,
                          ref_victim)
                    << "op " << i;
            }
        }
    }
}

/** (line number, entry) of set @p set's valid lines, most recent first. */
std::vector<std::pair<uint64_t, uint64_t>>
residents(const mem::Cache &cache, uint64_t set)
{
    std::vector<std::pair<uint64_t, uint64_t>> lines;
    cache.walkSet(set, [&](uint32_t entry) {
        const std::optional<uint64_t> line = cache.entryLine(entry);
        if (line.has_value())
            lines.emplace_back(*line / cache.config().line_size, entry);
        return line.has_value();
    });
    return lines;
}

// fillRun against the same lines filled one at a time: the reference
// model for residents, recency, entries and victims, and a twin
// mem::Cache (lookup, then fill on a miss) for the statistics.
TEST_P(CacheModelEquivalence, FreshRunMatchesLineByLineFills)
{
    const CacheGeometry geometry = GetParam();
    mem::CacheConfig config;
    config.size_bytes = geometry.size_bytes;
    config.assoc = geometry.assoc;
    config.line_size = geometry.line_size;
    config.policy = mem::ReplacementPolicy::Lru;
    mem::Cache cache(config);
    mem::Cache twin(config);
    ReferenceCache reference(geometry);
    const uint64_t ways =
        geometry.assoc == 0 ? config.numLines() : geometry.assoc;

    Rng rng(geometry.size_bytes ^ geometry.line_size ^ 0xB01C);
    const uint64_t span = geometry.size_bytes * 4;
    const uint64_t ops = config.numLines();
    for (uint64_t round = 0; round < 4; ++round) {
        // Random pre-state from the equivalence stream.
        for (uint64_t i = 0; i < ops; ++i) {
            const uint64_t addr = rng.nextRange(span);
            const bool hit = cache.access(addr, false);
            ASSERT_EQ(twin.access(addr, false), hit);
            ASSERT_EQ(reference.access(addr), hit);
            if (!hit) {
                cache.fill(addr, false, 0);
                twin.fill(addr, false, 0);
                reference.fill(addr);
            }
        }

        // One run of fresh lines: a stride of half a line (two
        // accesses a line), a line or 1024 lines, a random start in
        // an area of its own, and 0 to 3 * ways lines.
        const uint64_t strides[] = {geometry.line_size / 2,
                                    geometry.line_size,
                                    1024ull * geometry.line_size};
        const uint64_t stride = strides[rng.nextRange(3)];
        const uint64_t count = rng.nextRange(3 * ways + 1);
        const uint64_t first =
            ((round + 1) << 44) + rng.nextRange(span) / 2 * 2;
        SCOPED_TRACE("round " + std::to_string(round) + " stride " +
                     std::to_string(stride) + " count " +
                     std::to_string(count));

        std::vector<uint64_t> victims;
        std::vector<mem::RunAccess> accesses;
        cache.fillRun(
            first, count, stride, /*probes=*/1,
            [&](const mem::Victim &victim) {
                ASSERT_TRUE(victim.valid);
                victims.push_back(victim.line_addr / geometry.line_size);
            },
            [&](uint64_t i, const mem::RunAccess &access) {
                ASSERT_EQ(i, accesses.size());
                accesses.push_back(access);
            });
        ASSERT_EQ(accesses.size(), count);

        std::vector<uint64_t> want_victims;
        for (uint64_t i = 0; i < count; ++i) {
            const uint64_t addr = first + i * stride;
            const mem::RunAccess &access = accesses[i];
            if (access.kind != mem::RunAccess::Kind::Filled) {
                ASSERT_EQ(access.kind, mem::RunAccess::Kind::Hit) << i;
                ASSERT_TRUE(twin.lookup(addr, true) != mem::kNoEntry) << i;
                ASSERT_EQ(reference.fill(addr), ~0ull) << i;
            } else {
                ASSERT_EQ(twin.lookup(addr, true), mem::kNoEntry) << i;
                twin.fill(addr, false, 0);
                const uint64_t victim = reference.fill(addr);
                ASSERT_EQ(access.displaced, victim != ~0ull) << i;
                if (victim != ~0ull)
                    want_victims.push_back(victim);
            }
            // A run line the run itself evicts is a victim too.
            if (access.entry == mem::kNoEntry &&
                (i + 1 == count ||
                 (addr + stride) / geometry.line_size !=
                     addr / geometry.line_size)) {
                victims.push_back(addr / geometry.line_size);
            }
        }
        std::sort(victims.begin(), victims.end());
        std::sort(want_victims.begin(), want_victims.end());
        ASSERT_EQ(victims, want_victims);

        for (uint64_t set = 0; set < cache.sets(); ++set) {
            ASSERT_EQ(residents(cache, set), reference.residents(set))
                << "set " << set;
            ASSERT_EQ(residents(cache, set), residents(twin, set))
                << "set " << set;
        }
        for (uint64_t i = 0; i < count; ++i) {
            const uint64_t addr = first + i * stride;
            ASSERT_EQ(accesses[i].entry, cache.find(addr)) << i;
        }
        ASSERT_EQ(cache.hits(), twin.hits());
        ASSERT_EQ(cache.misses(), twin.misses());
        ASSERT_EQ(cache.evictions(), twin.evictions());
        ASSERT_EQ(cache.dirtyEvictions(), twin.dirtyEvictions());
        ASSERT_EQ(cache.occupancy(), twin.occupancy());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheModelEquivalence,
    ::testing::Values(CacheGeometry{1024, 1, 64},
                      CacheGeometry{4096, 4, 64},
                      CacheGeometry{8192, 0, 128},
                      CacheGeometry{2048, 2, 32},
                      CacheGeometry{64 * 1024, 32, 128},
                      // The paper's SNC directory: 32768 entries,
                      // fully associative, 128-byte span.
                      CacheGeometry{32768 * 128, 0, 128}),
    [](const auto &info) {
        return std::to_string(info.param.size_bytes) + "B_" +
               std::to_string(info.param.assoc) + "w_" +
               std::to_string(info.param.line_size) + "l";
    });

// ===================================== workload generator properties

class WorkloadProperties : public ::testing::TestWithParam<std::string>
{};

TEST_P(WorkloadProperties, DeterministicAcrossInstances)
{
    SyntheticWorkload a(benchmarkProfile(GetParam()), 128);
    SyntheticWorkload b(benchmarkProfile(GetParam()), 128);
    for (int i = 0; i < 20'000; ++i) {
        const TraceOp &x = a.next();
        const TraceOp &y = b.next();
        ASSERT_EQ(x.cls, y.cls);
        ASSERT_EQ(x.addr, y.addr);
        ASSERT_EQ(x.fetch_line, y.fetch_line);
        ASSERT_EQ(x.dep1, y.dep1);
        ASSERT_EQ(x.mispredict, y.mispredict);
    }
}

TEST_P(WorkloadProperties, ResetReplaysTheSameStream)
{
    SyntheticWorkload workload(benchmarkProfile(GetParam()), 128);
    std::vector<uint64_t> first;
    for (int i = 0; i < 5'000; ++i)
        first.push_back(workload.next().addr);
    workload.reset();
    for (int i = 0; i < 5'000; ++i)
        ASSERT_EQ(workload.next().addr, first[i]) << "op " << i;
}

TEST_P(WorkloadProperties, MemFractionApproximatelyRespected)
{
    SyntheticWorkload workload(benchmarkProfile(GetParam()), 128);
    const double target = workload.profile().mem_frac;
    uint64_t mem = 0;
    const int n = 100'000;
    for (int i = 0; i < n; ++i) {
        const OpClass cls = workload.next().cls;
        mem += cls == OpClass::Load || cls == OpClass::Store;
    }
    const double measured = static_cast<double>(mem) / n;
    EXPECT_NEAR(measured, target, 0.05) << GetParam();
}

TEST_P(WorkloadProperties, AddressesStayInsideDeclaredRegions)
{
    SyntheticWorkload workload(benchmarkProfile(GetParam()), 128);
    const auto &regions = workload.profile().regions;
    for (int i = 0; i < 50'000; ++i) {
        const TraceOp &op = workload.next();
        if (op.cls != OpClass::Load && op.cls != OpClass::Store)
            continue;
        bool inside = false;
        for (const DataRegion &region : regions) {
            uint64_t extent = region.footprint;
            if (region.behavior == RegionBehavior::ConflictStream) {
                extent = std::max(extent, region.conflict_lines *
                                              region.conflict_stride);
            }
            if (op.addr >= region.base &&
                op.addr < region.base + extent) {
                inside = true;
                break;
            }
        }
        ASSERT_TRUE(inside)
            << GetParam() << " op " << i << " addr " << op.addr;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, WorkloadProperties,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto &info) { return info.param; });

} // namespace
