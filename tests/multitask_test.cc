/**
 * @file
 * Multi-programming tests: compartment-isolated tasks sharing one
 * secure processor, context-switch policies for the SNC (paper
 * Section 4.3), scheduler accounting, and the idle machine an empty
 * task list builds.
 */

#include <gtest/gtest.h>

#include "secure/engines.hh"
#include "sim/multitask.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"

namespace
{

using namespace secproc;
using namespace secproc::sim;

/** A compact two-region profile with the given VA offset. */
WorkloadProfile
smallProfile(uint64_t seed, uint64_t va_offset)
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

constexpr uint64_t kTaskStride = 1ull << 40;

TEST(Workload, VaOffsetShiftsTextAndRegions)
{
    SyntheticWorkload plain(smallProfile(1, 0), 128);
    SyntheticWorkload moved(smallProfile(1, kTaskStride), 128);
    EXPECT_EQ(moved.textBase(), plain.textBase() + kTaskStride);
    for (size_t i = 0; i < plain.profile().regions.size(); ++i) {
        EXPECT_EQ(moved.profile().regions[i].base,
                  plain.profile().regions[i].base + kTaskStride);
    }
}

TEST(Workload, VaOffsetPreservesStreamShape)
{
    // The same profile shifted by an offset must generate the same
    // op sequence, just with shifted addresses.
    SyntheticWorkload plain(smallProfile(2, 0), 128);
    SyntheticWorkload moved(smallProfile(2, kTaskStride), 128);
    for (int i = 0; i < 5000; ++i) {
        const TraceOp &a = plain.next();
        const TraceOp &b = moved.next();
        ASSERT_EQ(a.cls, b.cls);
        if (a.addr != 0)
            ASSERT_EQ(b.addr, a.addr + kTaskStride);
        if (a.fetch_line != 0)
            ASSERT_EQ(b.fetch_line, a.fetch_line + kTaskStride);
    }
}

TEST(MultiTask, SingleTaskVectorMatchesLegacyConstructor)
{
    SyntheticWorkload w1(smallProfile(3, 0), 128);
    System legacy(paperConfig(secure::SecurityModel::OtpSnc), w1);
    legacy.run(100'000);

    SyntheticWorkload w2(smallProfile(3, 0), 128);
    System vectored(paperConfig(secure::SecurityModel::OtpSnc),
                    std::vector<TaskSpec>{{&w2, 1}});
    vectored.run(100'000);

    EXPECT_EQ(legacy.core().cycles(), vectored.core().cycles());
}

TEST(MultiTask, RoundRobinSplitsInstructionsFairly)
{
    SyntheticWorkload a(smallProfile(4, 0), 128);
    SyntheticWorkload b(smallProfile(5, kTaskStride), 128);
    MultiTaskConfig mt;
    mt.quantum = 50'000;
    MultiTaskSystem multi(paperConfig(secure::SecurityModel::OtpSnc),
                          {{&a, 1}, {&b, 2}}, mt);
    multi.run(400'000);

    EXPECT_EQ(multi.totalInstructions(), 400'000u);
    EXPECT_EQ(multi.taskStats()[0].instructions, 200'000u);
    EXPECT_EQ(multi.taskStats()[1].instructions, 200'000u);
    EXPECT_EQ(multi.system().contextSwitches(), 7u);
    EXPECT_GT(multi.taskStats()[0].active_cycles, 0u);
    EXPECT_GT(multi.taskStats()[1].active_cycles, 0u);
}

TEST(MultiTask, FlushPolicySpillsSncEntries)
{
    SyntheticWorkload a(smallProfile(6, 0), 128);
    SyntheticWorkload b(smallProfile(7, kTaskStride), 128);
    MultiTaskConfig mt;
    mt.quantum = 50'000;
    mt.policy = SncSwitchPolicy::Flush;
    MultiTaskSystem multi(paperConfig(secure::SecurityModel::OtpSnc),
                          {{&a, 1}, {&b, 2}}, mt);
    multi.run(300'000);
    EXPECT_GT(multi.system().switchFlushSpills(), 0u);
}

TEST(MultiTask, TagPolicyNeverSpillsOnSwitch)
{
    SyntheticWorkload a(smallProfile(6, 0), 128);
    SyntheticWorkload b(smallProfile(7, kTaskStride), 128);
    MultiTaskConfig mt;
    mt.quantum = 50'000;
    mt.policy = SncSwitchPolicy::Tag;
    MultiTaskSystem multi(paperConfig(secure::SecurityModel::OtpSnc),
                          {{&a, 1}, {&b, 2}}, mt);
    multi.run(300'000);
    EXPECT_EQ(multi.system().switchFlushSpills(), 0u);
}

TEST(MultiTask, FlushCostsCyclesVersusTag)
{
    auto run_policy = [](SncSwitchPolicy policy) {
        SyntheticWorkload a(smallProfile(8, 0), 128);
        SyntheticWorkload b(smallProfile(9, kTaskStride), 128);
        MultiTaskConfig mt;
        mt.quantum = 25'000;
        mt.policy = policy;
        MultiTaskSystem multi(
            paperConfig(secure::SecurityModel::OtpSnc),
            {{&a, 1}, {&b, 2}}, mt);
        multi.run(500'000);
        return multi.system().core().cycles();
    };
    const uint64_t tag = run_policy(SncSwitchPolicy::Tag);
    const uint64_t flush = run_policy(SncSwitchPolicy::Flush);
    EXPECT_GT(flush, tag)
        << "flushing the SNC every switch must cost cycles";
}

TEST(MultiTask, CompartmentsUseDistinctKeys)
{
    // The same (line, seqnum) plan encrypted by two compartments must
    // produce different ciphertext (per-compartment keys), otherwise
    // one vendor's key would decrypt another vendor's software.
    SystemConfig config = paperConfig(secure::SecurityModel::OtpSnc);
    config.functional = true;
    SyntheticWorkload a(smallProfile(10, 0), 128);
    SyntheticWorkload b(smallProfile(10, kTaskStride), 128);
    System system(config, {{&a, 1}, {&b, 2}});

    secure::EvictPlan plan;
    plan.line_va = 0x1000;
    plan.seqnum = 1;
    plan.state = secure::LineCipherState::Otp;
    std::vector<uint8_t> one(128, 0xAB);
    std::vector<uint8_t> two(128, 0xAB);
    system.engine().setCompartment(1);
    system.engine().applyEvict(plan, one);
    system.engine().setCompartment(2);
    system.engine().applyEvict(plan, two);
    EXPECT_NE(one, two)
        << "identical plaintext + plan, different compartments: "
           "ciphertext must differ";
}

TEST(MultiTask, SwitchToTaskValidatesIndex)
{
    SyntheticWorkload a(smallProfile(11, 0), 128);
    System system(paperConfig(secure::SecurityModel::OtpSnc),
                  std::vector<TaskSpec>{{&a, 1}});
    EXPECT_DEATH_IF_SUPPORTED(
        system.switchToTask(3, SncSwitchPolicy::Tag), "no task");
}

/** The paper's OTP+SNC machine, LRU or no-replacement SNC. */
SystemConfig
otpSncConfig(bool allow_replacement)
{
    SystemConfig config = paperConfig(secure::SecurityModel::OtpSnc);
    config.protection.snc.allow_replacement = allow_replacement;
    return config;
}

uint64_t
sncOccupancy(const System &system)
{
    return dynamic_cast<const secure::OtpEngine &>(system.engine())
        .snc()
        .occupancy();
}

// An empty task list builds an idle machine: no program has run, so
// its SNC holds nothing under either policy, and there is nothing for
// run() to execute.
TEST(MultiTask, EmptyTaskSetIsAnIdleMachine)
{
    for (const bool lru : {true, false}) {
        System system(otpSncConfig(lru), std::vector<TaskSpec>{});
        EXPECT_EQ(system.taskCount(), 0u);
        EXPECT_EQ(sncOccupancy(system), 0u) << (lru ? "LRU" : "NoRepl");
        EXPECT_DEATH_IF_SUPPORTED(system.run(1), "idle machine");
    }
}

// The history fill models a long-running program's past, so a loaded
// LRU machine starts with its SNC full; a no-replacement SNC holds
// only the lines the program's first writes claimed (gzip's 96 KB
// hot region).
TEST(MultiTask, LoadedLruMachinesStartWithHistory)
{
    SyntheticWorkload lru_gzip(benchmarkProfile("gzip"), 128);
    const System lru(otpSncConfig(true), lru_gzip);
    EXPECT_EQ(sncOccupancy(lru), 32'768u);
    EXPECT_EQ(sncOccupancy(lru),
              otpSncConfig(true).protection.snc.entries());

    SyntheticWorkload norepl_gzip(benchmarkProfile("gzip"), 128);
    const System norepl(otpSncConfig(false), norepl_gzip);
    EXPECT_EQ(sncOccupancy(norepl), 96u * 1024 / 128);
}

TEST(MultiTask, BaselineAndXomModelsRunMultiprogrammed)
{
    for (const auto model : {secure::SecurityModel::Baseline,
                             secure::SecurityModel::Xom}) {
        SyntheticWorkload a(smallProfile(12, 0), 128);
        SyntheticWorkload b(smallProfile(13, kTaskStride), 128);
        MultiTaskConfig mt;
        mt.quantum = 50'000;
        MultiTaskSystem multi(paperConfig(model), {{&a, 1}, {&b, 2}},
                              mt);
        multi.run(200'000);
        EXPECT_GT(multi.system().core().cycles(), 0u);
    }
}

} // namespace
