/**
 * @file
 * The bulk warm start against the line-by-line replay it stands for.
 *
 * A System brings a machine to the steady state the paper measures in
 * with one ProtectionEngine::warmRun per preinitialized region and,
 * under an LRU SNC, OtpEngine::fillHistory. The reference here is a
 * standalone engine driven the way those calls are specified: every
 * region line, every history filler and every live line through
 * planEvict, one call each. Both must end as the same machine: every
 * engine counter, the SNC directory's own counters, line states, SNC
 * slots, directory entries and recency, the spill table (read back
 * through planFill) and, in functional cells, the memory bytes.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mem/main_memory.hh"
#include "mem/memory_channel.hh"
#include "mem/virtual_memory.hh"
#include "obs/metrics.hh"
#include "secure/engines.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/trace_io.hh"
#include "util/bitops.hh"
#include "util/random.hh"
#include "util/serialize.hh"

namespace
{

using namespace secproc;
using namespace secproc::sim;

/** Where System's history fill starts. */
constexpr uint64_t kFillerBase = 0x7F00'0000'0000ull;

/** What the line-by-line replay leaves behind. */
struct Replay
{
    explicit Replay(const mem::ChannelConfig &config) : channel(config) {}

    mem::MemoryChannel channel;
    secure::KeyTable keys;
    std::unique_ptr<secure::ProtectionEngine> engine;
    mem::VirtualMemory vm;
    mem::MainMemory memory;
    /** History fillers the replay wrote. */
    uint64_t fillers = 0;
};

/** Skip rule shared by the region replay and the line lists below. */
bool
warmed(const DataRegion &region)
{
    return region.preinitialized && !region.plaintext &&
           region.behavior != RegionBehavior::WriteOnce;
}

/** First line and stride of a warmed region, and its line count. */
struct RegionRun
{
    uint64_t first;
    uint64_t count;
    uint64_t stride;
};

RegionRun
regionRun(const DataRegion &region, uint32_t line)
{
    if (region.behavior == RegionBehavior::ConflictStream)
        return {region.base, region.conflict_lines, region.conflict_stride};
    return {region.base, region.footprint / line, line};
}

/**
 * The replay a System's preinitialization must match: a copy of the
 * three-phase loop it replaced (region replay, history fill while the
 * SNC is not full, live-set priming), on a standalone engine keyed
 * the way System::installKeys keys its own.
 */
std::unique_ptr<Replay>
replayLineByLine(const SystemConfig &config,
                 const std::vector<TaskSpec> &tasks)
{
    auto replay = std::make_unique<Replay>(config.channel);
    for (const TaskSpec &task : tasks) {
        util::Rng rng(0x5EC0'0001 ^ (uint64_t{task.compartment} << 32));
        std::vector<uint8_t> key(secure::cipherKeySize(config.cipher));
        rng.fillBytes(key.data(), key.size());
        replay->keys.install(task.compartment, config.cipher, key);
    }
    replay->engine = secure::makeProtectionEngine(
        config.protection, replay->channel, replay->keys);
    secure::ProtectionEngine &engine = *replay->engine;
    const uint32_t line = config.l2.line_size;
    const auto write = [&](const secure::EvictPlan &plan, bool tagged) {
        std::vector<uint8_t> bytes(line, 0);
        if (tagged)
            util::storeLe64(bytes.data(), plan.line_va);
        engine.applyEvict(plan, bytes);
        replay->memory.writeLine(replay->vm.translate(1, plan.line_va),
                                 bytes);
    };

    for (const TaskSpec &task : tasks) {
        engine.setCompartment(task.compartment);
        const Workload &wl = *task.workload;
        if (config.functional) {
            secure::EvictPlan plan;
            plan.state =
                config.protection.model == secure::SecurityModel::Xom
                    ? secure::LineCipherState::Direct
                    : secure::LineCipherState::Otp;
            if (config.protection.model == secure::SecurityModel::Baseline)
                plan.state = secure::LineCipherState::Plain;
            const uint64_t text_lines =
                util::ceilDiv(wl.profile().code_footprint, line);
            for (uint64_t i = 0; i < text_lines; ++i) {
                plan.line_va = wl.textBase() + i * line;
                write(plan, false);
            }
        }
        for (const DataRegion &region : wl.profile().regions) {
            if (!warmed(region))
                continue;
            const RegionRun run = regionRun(region, line);
            for (uint64_t i = 0; i < run.count; ++i) {
                const secure::EvictPlan plan = engine.planEvict(
                    run.first + i * run.stride, mem::RegionKind::Protected);
                if (config.functional)
                    write(plan, true);
            }
        }
    }

    if (config.protection.model == secure::SecurityModel::OtpSnc &&
        config.protection.snc.allow_replacement) {
        const auto &otp = static_cast<const secure::OtpEngine &>(engine);
        for (uint64_t filler = kFillerBase;
             otp.snc().occupancy() < config.protection.snc.entries();
             filler += line) {
            engine.planEvict(filler, mem::RegionKind::Protected);
            ++replay->fillers;
        }
    }

    for (const TaskSpec &task : tasks) {
        engine.setCompartment(task.compartment);
        const auto &regions = task.workload->profile().regions;
        for (size_t i = 0; i < regions.size(); ++i) {
            if (!regions[i].preinitialized || regions[i].plaintext)
                continue;
            for (const uint64_t line_va : task.workload->liveLines(i)) {
                const secure::EvictPlan plan = engine.planEvict(
                    line_va, mem::RegionKind::Protected);
                if (config.functional)
                    write(plan, true);
            }
        }
    }
    engine.setCompartment(tasks.front().compartment);
    return replay;
}

/** Every line the warm start writes: region lines, then fillers. */
std::vector<uint64_t>
warmedLines(const std::vector<TaskSpec> &tasks, uint32_t line,
            uint64_t fillers)
{
    std::vector<uint64_t> lines;
    for (const TaskSpec &task : tasks) {
        for (const DataRegion &region : task.workload->profile().regions) {
            if (!warmed(region))
                continue;
            const RegionRun run = regionRun(region, line);
            for (uint64_t i = 0; i < run.count; ++i)
                lines.push_back(run.first + i * run.stride);
        }
    }
    for (uint64_t i = 0; i < fillers; ++i)
        lines.push_back(kFillerBase + i * line);
    return lines;
}

std::vector<std::pair<std::string, uint64_t>>
counters(const secure::ProtectionEngine &engine)
{
    obs::MetricsRegistry reg;
    engine.registerMetrics(reg, "engine");
    const obs::MetricsSnapshot snapshot = reg.snapshot();
    std::vector<std::pair<std::string, uint64_t>> values;
    for (const obs::MetricsSnapshot::Entry &entry : snapshot.entries())
        values.emplace_back(entry.name,
                            static_cast<uint64_t>(entry.value));
    return values;
}

/** The SNC directory: (entry, sector) by set, most recent first. */
std::vector<std::pair<uint32_t, uint64_t>>
directory(const secure::SequenceNumberCache &snc)
{
    std::vector<std::pair<uint32_t, uint64_t>> sectors;
    snc.forEachSector([&](uint32_t entry, uint64_t sector_va) {
        sectors.emplace_back(entry, sector_va);
    });
    return sectors;
}

std::vector<uint64_t>
directoryCounters(const secure::SequenceNumberCache &snc)
{
    const mem::Cache &dir = snc.directory();
    return {dir.hits(),           dir.misses(),
            dir.evictions(),      dir.dirtyEvictions(),
            dir.rejectedFills(),  dir.occupancy()};
}

/** One machine the gate builds both ways. */
struct Cell
{
    std::string name;
    SystemConfig config;
    std::vector<TaskSpec> tasks;
};

void
expectSameMachine(const Cell &cell)
{
    const std::unique_ptr<Replay> want =
        replayLineByLine(cell.config, cell.tasks);
    System system(cell.config, cell.tasks);
    secure::ProtectionEngine &got = system.engine();
    secure::ProtectionEngine &ref = *want->engine;
    const uint32_t line = cell.config.l2.line_size;
    const bool otp =
        cell.config.protection.model == secure::SecurityModel::OtpSnc;
    const uint32_t sector_lines = cell.config.protection.snc.sector_lines;

    ASSERT_EQ(counters(got), counters(ref));
    const auto *got_otp = dynamic_cast<const secure::OtpEngine *>(&got);
    const auto *ref_otp = dynamic_cast<const secure::OtpEngine *>(&ref);
    if (otp) {
        ASSERT_NE(got_otp, nullptr);
        ASSERT_EQ(got_otp->snc().occupancy(), ref_otp->snc().occupancy());
        ASSERT_EQ(directoryCounters(got_otp->snc()),
                  directoryCounters(ref_otp->snc()));
        ASSERT_EQ(directory(got_otp->snc()), directory(ref_otp->snc()));
    }

    // A few sectors past the last filler: the bulk fill must stop
    // exactly where the loop did.
    const std::vector<uint64_t> lines = warmedLines(
        cell.tasks, line, want->fillers + 2 * sector_lines);
    for (const uint64_t line_va : lines) {
        ASSERT_EQ(got.lineState(line_va), ref.lineState(line_va))
            << "line " << line_va;
        if (otp) {
            ASSERT_EQ(got_otp->snc().peek(line_va),
                      ref_otp->snc().peek(line_va))
                << "line " << line_va;
        }
    }

    if (cell.config.functional) {
        std::vector<uint64_t> written = warmedLines(cell.tasks, line, 0);
        for (const TaskSpec &task : cell.tasks) {
            const uint64_t text_lines = util::ceilDiv(
                task.workload->profile().code_footprint, line);
            for (uint64_t i = 0; i < text_lines; ++i)
                written.push_back(task.workload->textBase() + i * line);
        }
        for (const uint64_t line_va : written) {
            ASSERT_EQ(system.mainMemory().readLine(
                          system.virtualMemory().translate(1, line_va),
                          line),
                      want->memory.readLine(want->vm.translate(1, line_va),
                                            line))
                << "line " << line_va;
        }
    }

    // Read every region line back: fills consult the SNC, then the
    // spill table, so a sequence number spilled to the wrong place
    // (or not at all) shows up here.
    for (const uint64_t line_va : warmedLines(cell.tasks, line, 0)) {
        const secure::FillPlan g =
            got.planFill(line_va, false, mem::RegionKind::Protected);
        const secure::FillPlan r =
            ref.planFill(line_va, false, mem::RegionKind::Protected);
        ASSERT_EQ(g.state, r.state) << "line " << line_va;
        ASSERT_EQ(g.seqnum, r.seqnum) << "line " << line_va;
        ASSERT_EQ(g.snc_query_miss, r.snc_query_miss) << "line " << line_va;
        ASSERT_EQ(g.victim_spilled, r.victim_spilled) << "line " << line_va;
    }
    EXPECT_EQ(counters(got), counters(ref));
}

/** Two small tasks in disjoint compartments and address ranges. */
WorkloadProfile
taskProfile(uint64_t seed, uint64_t va_offset)
{
    WorkloadProfile profile;
    profile.name = "task";
    profile.mem_frac = 0.4;
    profile.code_footprint = 4 * 1024;
    profile.rng_seed = seed;
    profile.va_offset = va_offset;
    DataRegion hot;
    hot.behavior = RegionBehavior::Hot;
    hot.footprint = 64 * 1024;
    hot.weight = 0.6;
    hot.store_frac = 0.4;
    DataRegion zipf;
    zipf.behavior = RegionBehavior::Zipf;
    zipf.footprint = 2 * 1024 * 1024;
    zipf.weight = 0.4;
    zipf.store_frac = 0.4;
    profile.regions = {hot, zipf};
    return profile;
}

/**
 * Two regions that are not sector aligned and share a sector: the
 * second region's first sector already holds the first region's last
 * lines (an edge sector), and the first region alone outgrows the
 * paper SNC, so its LRU placement wraps. A third, one-line conflict
 * ring with no stride sits mid-sector on its own.
 */
TraceImage
sharedSectorImage()
{
    constexpr uint64_t kLine = 128;
    TraceImage image;
    image.profile.name = "shared_sector";
    DataRegion first;
    first.behavior = RegionBehavior::Hot;
    first.base = 0x1000'0000 + 3 * kLine;
    first.footprint = 40'000 * kLine;
    DataRegion second;
    second.behavior = RegionBehavior::Hot;
    second.base = first.base + first.footprint;
    second.footprint = 6 * kLine;
    DataRegion ring;
    ring.behavior = RegionBehavior::ConflictStream;
    ring.base = 0x2000'0000 + kLine;
    ring.footprint = kLine;
    ring.conflict_lines = 1;
    ring.conflict_stride = 0;
    image.profile.regions = {first, second, ring};
    image.live_lines = {{}, {}, {ring.base}};
    for (uint64_t i = 0; i < 400; ++i)
        image.live_lines[0].push_back(first.base + (i * 97 % 40'000) * kLine);
    for (uint64_t i = 0; i < 6; ++i)
        image.live_lines[1].push_back(second.base + (5 - i) * kLine);
    TraceOp op;
    op.cls = OpClass::IntAlu;
    image.ops = {op};
    return image;
}

/** The engine configurations every workload is built on. */
std::vector<std::pair<std::string, SystemConfig>>
engineConfigs()
{
    std::vector<std::pair<std::string, SystemConfig>> configs = {
        {"baseline", paperConfig(secure::SecurityModel::Baseline)},
        {"xom", paperConfig(secure::SecurityModel::Xom)},
    };
    for (const uint32_t assoc : {0u, 32u}) {
        for (const uint32_t sector_lines : {1u, 4u}) {
            for (const bool lru : {false, true}) {
                SystemConfig config =
                    paperConfig(secure::SecurityModel::OtpSnc);
                config.protection.snc.assoc = assoc;
                config.protection.snc.sector_lines = sector_lines;
                config.protection.snc.allow_replacement = lru;
                configs.emplace_back(
                    std::string(assoc == 0 ? "snc_full" : "snc_32way") +
                        "_lines" + std::to_string(sector_lines) +
                        (lru ? "_lru" : "_norepl"),
                    config);
            }
        }
    }
    return configs;
}

TEST(WarmStart, BulkMatchesLineByLineReplay)
{
    // Workloads by name, with whether their functional cells run (a
    // functional gcc machine would encrypt 32 MB).
    std::vector<std::pair<std::string, std::vector<std::unique_ptr<Workload>>>>
        workloads;
    std::vector<bool> functional;
    for (const char *name : {"gcc", "mcf", "art", "gzip", "ammp", "vortex"}) {
        std::vector<std::unique_ptr<Workload>> tasks;
        tasks.push_back(
            std::make_unique<SyntheticWorkload>(benchmarkProfile(name)));
        workloads.emplace_back(name, std::move(tasks));
        functional.push_back(std::string(name) == "art" ||
                             std::string(name) == "gzip");
    }
    {
        std::vector<std::unique_ptr<Workload>> tasks;
        tasks.push_back(std::make_unique<SyntheticWorkload>(taskProfile(7, 0)));
        tasks.push_back(std::make_unique<SyntheticWorkload>(
            taskProfile(8, uint64_t{1} << 40)));
        workloads.emplace_back("multitask", std::move(tasks));
        functional.push_back(true);
    }
    {
        std::vector<std::unique_ptr<Workload>> tasks;
        tasks.push_back(std::make_unique<TraceWorkload>(sharedSectorImage()));
        workloads.emplace_back("shared_sector", std::move(tasks));
        functional.push_back(true);
    }

    int cells = 0;
    for (size_t w = 0; w < workloads.size(); ++w) {
        std::vector<TaskSpec> tasks;
        for (size_t t = 0; t < workloads[w].second.size(); ++t) {
            tasks.push_back(TaskSpec{
                workloads[w].second[t].get(),
                static_cast<secure::CompartmentId>(t + 1)});
        }
        for (const auto &[engine, config] : engineConfigs()) {
            for (const bool on : {false, true}) {
                if (on && !functional[w])
                    continue;
                Cell cell{workloads[w].first + "/" + engine +
                              (on ? "/functional" : ""),
                          config, tasks};
                cell.config.functional = on;
                SCOPED_TRACE(cell.name);
                expectSameMachine(cell);
                if (HasFatalFailure())
                    return;
                ++cells;
            }
        }
    }
    EXPECT_EQ(cells, 8 * 10 + 4 * 10);
}

} // namespace
