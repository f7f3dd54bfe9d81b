/**
 * @file
 * Unit and property tests for the banked DRAM timing model, its
 * integration into the memory channel (DRAM-sensitivity ablation
 * substrate) and the row-buffer counters a System reports.
 */

#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "mem/dram.hh"
#include "mem/memory_channel.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "util/random.hh"

namespace
{

using namespace secproc::mem;
using secproc::util::Rng;

DramConfig
testConfig()
{
    DramConfig config;
    config.num_banks = 4;
    config.row_bytes = 1024;
    config.row_hit_latency = 60;
    config.row_miss_latency = 110;
    config.row_conflict_latency = 160;
    config.bank_busy_cycles = 24;
    return config;
}

TEST(Dram, FirstAccessIsRowMiss)
{
    DramModel dram(testConfig());
    EXPECT_EQ(dram.access(0, 0), 110u);
    EXPECT_EQ(dram.rowMisses(), 1u);
    EXPECT_EQ(dram.rowHits(), 0u);
}

TEST(Dram, SecondAccessSameRowHits)
{
    DramModel dram(testConfig());
    dram.access(0, 0);
    const uint64_t done = dram.access(200, 64);
    EXPECT_EQ(done, 200 + 60u);
    EXPECT_EQ(dram.rowHits(), 1u);
}

TEST(Dram, DifferentRowSameBankConflicts)
{
    DramModel dram(testConfig());
    dram.access(0, 0);
    // Same bank = addresses row_bytes * num_banks apart.
    const uint64_t same_bank_other_row = 1024ull * 4;
    const uint64_t done = dram.access(500, same_bank_other_row);
    EXPECT_EQ(done, 500 + 160u);
    EXPECT_EQ(dram.rowConflicts(), 1u);
}

TEST(Dram, DifferentBanksDoNotConflict)
{
    DramModel dram(testConfig());
    dram.access(0, 0);
    const uint64_t other_bank = 1024; // next row rotates banks
    EXPECT_NE(dram.bankIndex(0), dram.bankIndex(other_bank));
    const uint64_t done = dram.access(500, other_bank);
    EXPECT_EQ(done, 500 + 110u) << "fresh bank: plain row miss";
    EXPECT_EQ(dram.rowConflicts(), 0u);
}

TEST(Dram, BankOccupancySerializesBackToBack)
{
    DramModel dram(testConfig());
    dram.access(0, 0); // bank busy until 24
    const uint64_t done = dram.access(1, 64); // same bank, same row
    EXPECT_EQ(done, 24 + 60u)
        << "second access must wait out bank_busy_cycles";
}

TEST(Dram, ClosedPagePolicyNeverHits)
{
    DramConfig config = testConfig();
    config.closed_page = true;
    DramModel dram(config);
    dram.access(0, 0);
    dram.access(100, 64); // same row, but the page was closed
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_EQ(dram.rowMisses(), 2u);
}

TEST(Dram, ResetClosesRowsAndClearsStats)
{
    DramModel dram(testConfig());
    dram.access(0, 0);
    dram.access(100, 64);
    dram.reset();
    EXPECT_EQ(dram.rowHits(), 0u);
    EXPECT_EQ(dram.access(0, 64), 110u) << "row closed by reset";
}

TEST(Dram, MappingCoversAllBanks)
{
    DramModel dram(testConfig());
    std::vector<bool> seen(4, false);
    for (uint64_t row = 0; row < 8; ++row)
        seen[dram.bankIndex(row * 1024)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s) << "consecutive rows must rotate banks";
}

TEST(Dram, LatencyOrderingValidated)
{
    DramConfig config = testConfig();
    config.row_hit_latency = 200; // hit > miss: invalid
    EXPECT_DEATH_IF_SUPPORTED({ DramModel dram(config); (void)dram; },
                              "order");
}

TEST(Dram, CompletionMonotonicInRequestCycle)
{
    // Property: for any fixed access sequence, issuing a request
    // later never completes it earlier.
    Rng rng(42);
    std::vector<uint64_t> addrs;
    for (int i = 0; i < 200; ++i)
        addrs.push_back(rng.nextRange(64 * 1024) & ~63ull);

    DramModel early(testConfig());
    DramModel late(testConfig());
    uint64_t cycle = 0;
    for (const uint64_t addr : addrs) {
        cycle += 10;
        const uint64_t t_early = early.access(cycle, addr);
        const uint64_t t_late = late.access(cycle + 5, addr);
        EXPECT_GE(t_late, t_early);
    }
}

TEST(Dram, HitRateHighForStreaming)
{
    DramModel dram(testConfig());
    uint64_t cycle = 0;
    for (uint64_t addr = 0; addr < 64 * 1024; addr += 128) {
        dram.access(cycle, addr);
        cycle += 200;
    }
    // 1024B rows, 128B lines: 7 of every 8 accesses hit.
    EXPECT_GT(dram.rowHitRate(), 0.8);
}

TEST(Dram, HitRateLowForRandom)
{
    DramModel dram(testConfig());
    Rng rng(7);
    uint64_t cycle = 0;
    for (int i = 0; i < 2000; ++i) {
        dram.access(cycle, rng.nextRange(1ull << 30) & ~127ull);
        cycle += 200;
    }
    EXPECT_LT(dram.rowHitRate(), 0.1);
}

// ------------------------------------------------ channel integration

TEST(DramChannel, FlatModeIgnoresAddress)
{
    ChannelConfig config;
    config.access_latency = 100;
    MemoryChannel channel(config);
    const uint64_t a = channel.scheduleRead(0, Traffic::DataFill,
                                            false, 0);
    const uint64_t b = channel.scheduleRead(
        1000, Traffic::DataFill, false, 0xDEAD'BEEFull);
    EXPECT_EQ(a, 100u);
    EXPECT_EQ(b, 1100u);
    EXPECT_EQ(channel.dram(), nullptr);
}

TEST(DramChannel, DramModeVariesWithLocality)
{
    ChannelConfig config;
    config.use_dram = true;
    config.dram = testConfig();
    MemoryChannel channel(config);

    // Open a row, then hit it: faster than the flat 100-cycle model.
    channel.scheduleRead(0, Traffic::DataFill, false, 0);
    const uint64_t hit =
        channel.scheduleRead(1000, Traffic::DataFill, false, 128);
    EXPECT_EQ(hit, 1000 + 60u);

    // Conflict in the same bank: slower than the flat model.
    const uint64_t conflict = channel.scheduleRead(
        2000, Traffic::DataFill, false, 4096);
    EXPECT_EQ(conflict, 2000 + 160u);
}

TEST(DramChannel, WritesDisturbRowBuffers)
{
    ChannelConfig config;
    config.use_dram = true;
    config.dram = testConfig();
    MemoryChannel channel(config);

    channel.scheduleRead(0, Traffic::DataFill, false, 0); // row 0 open
    // A write to another row of the same bank drains before the next
    // read and closes row 0.
    channel.enqueueWrite(200, Traffic::DataWriteback, false, 4096);
    const uint64_t read = channel.scheduleRead(
        10'000, Traffic::DataFill, false, 0);
    EXPECT_EQ(read, 10'000 + 160u)
        << "the drained write must have switched the open row";
}

TEST(DramChannel, ResetRestoresColdState)
{
    ChannelConfig config;
    config.use_dram = true;
    config.dram = testConfig();
    MemoryChannel channel(config);
    channel.scheduleRead(0, Traffic::DataFill, false, 0);
    channel.reset();
    EXPECT_EQ(channel.scheduleRead(0, Traffic::DataFill, false, 0),
              110u);
    EXPECT_EQ(channel.dram()->rowHits(), 0u);
}

/** dumpStats() text as name -> value. */
std::map<std::string, std::string>
dumpedMetrics(const secproc::sim::System &system)
{
    std::ostringstream dump;
    system.dumpStats(dump);
    std::istringstream lines(dump.str());
    std::map<std::string, std::string> metrics;
    std::string name, value;
    while (lines >> name >> value)
        metrics[name] = value;
    return metrics;
}

TEST(DramChannel, SystemReportsRowBufferCounters)
{
    namespace sim = secproc::sim;
    sim::SystemConfig config =
        sim::paperConfig(secproc::secure::SecurityModel::OtpSnc);
    config.channel.use_dram = true;
    sim::SyntheticWorkload workload(sim::benchmarkProfile("mcf"),
                                    config.l2.line_size);
    sim::System system(config, workload);
    system.run(30'000);

    const DramModel *dram = system.channel().dram();
    ASSERT_NE(dram, nullptr);
    ASSERT_GT(dram->rowHits(), 0u);
    ASSERT_GT(dram->rowMisses() + dram->rowConflicts(), 0u);
    const auto metrics = dumpedMetrics(system);
    const std::pair<const char *, uint64_t> expected[] = {
        {"dram.row_hits", dram->rowHits()},
        {"dram.row_misses", dram->rowMisses()},
        {"dram.row_conflicts", dram->rowConflicts()},
    };
    for (const auto &[name, value] : expected) {
        const auto it = metrics.find(name);
        ASSERT_NE(it, metrics.end()) << name << " missing from the dump";
        EXPECT_EQ(it->second, std::to_string(value)) << name;
    }

    // A flat channel has no row buffers to report.
    const sim::SystemConfig flat_config =
        sim::paperConfig(secproc::secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload flat_workload(sim::benchmarkProfile("mcf"),
                                         flat_config.l2.line_size);
    sim::System flat(flat_config, flat_workload);
    flat.run(30'000);
    ASSERT_EQ(flat.channel().dram(), nullptr);
    for (const auto &[name, value] : dumpedMetrics(flat))
        EXPECT_NE(name.rfind("dram.", 0), 0u) << name;
}

} // namespace
