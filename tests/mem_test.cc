/**
 * @file
 * Unit tests for the memory substrate: set-associative cache
 * behaviour and policies, functional main memory, the memory channel
 * timing model and traffic accounting, virtual memory and regions.
 */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "mem/memory_channel.hh"
#include "mem/on_chip_store.hh"
#include "mem/virtual_memory.hh"
#include "util/random.hh"

namespace
{

using namespace secproc::mem;

// ------------------------------------------------------------------ cache

CacheConfig
smallCache(ReplacementPolicy policy = ReplacementPolicy::Lru,
           uint32_t assoc = 2)
{
    CacheConfig config;
    config.name = "test";
    config.size_bytes = 1024; // 16 lines
    config.line_size = 64;
    config.assoc = assoc;
    config.policy = policy;
    return config;
}

TEST(Cache, MissThenHit)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(0x100, false));
    cache.fill(0x100, false, 0);
    EXPECT_TRUE(cache.access(0x100, false));
    EXPECT_TRUE(cache.access(0x13F, false)) << "same line, last byte";
    EXPECT_FALSE(cache.access(0x140, false)) << "next line";
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way: two lines mapping to the same set, then a third.
    Cache cache(smallCache());
    const uint64_t set_stride = 64 * 8; // 8 sets
    cache.fill(0 * set_stride, false, 1);
    cache.fill(1 * set_stride, false, 2);
    // Touch the first so the second becomes LRU.
    EXPECT_TRUE(cache.access(0, false));
    const auto victim = cache.fill(2 * set_stride, false, 3);
    ASSERT_TRUE(victim.has_value());
    ASSERT_TRUE(victim->valid);
    EXPECT_EQ(victim->line_addr, 1 * set_stride);
    EXPECT_EQ(victim->meta, 2u);
    EXPECT_TRUE(cache.probe(0));
    EXPECT_FALSE(cache.probe(1 * set_stride));
}

TEST(Cache, NoReplacementRejectsWhenFull)
{
    Cache cache(smallCache(ReplacementPolicy::NoReplacement));
    const uint64_t set_stride = 64 * 8;
    EXPECT_TRUE(cache.fill(0 * set_stride, false, 0).has_value());
    EXPECT_TRUE(cache.fill(1 * set_stride, false, 0).has_value());
    EXPECT_FALSE(cache.fill(2 * set_stride, false, 0).has_value());
    EXPECT_EQ(cache.rejectedFills(), 1u);
    // Both residents survive.
    EXPECT_TRUE(cache.probe(0));
    EXPECT_TRUE(cache.probe(set_stride));
}

TEST(Cache, DirtyTrackingAndWritebacks)
{
    Cache cache(smallCache());
    cache.fill(0x000, false, 0);
    cache.access(0x000, /*write=*/true);
    const uint64_t set_stride = 64 * 8;
    cache.fill(1 * set_stride, false, 0);
    const auto victim = cache.fill(2 * set_stride, false, 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->valid);
    EXPECT_TRUE(victim->dirty) << "written line must evict dirty";
    EXPECT_EQ(cache.dirtyEvictions(), 1u);
}

TEST(Cache, FullyAssociativeUsesWholeCapacity)
{
    Cache cache(smallCache(ReplacementPolicy::Lru, /*assoc=*/0));
    // 16 lines at wild addresses all fit.
    for (uint64_t i = 0; i < 16; ++i) {
        const auto victim = cache.fill(i * 0x10000, false, 0);
        ASSERT_TRUE(victim.has_value());
        EXPECT_FALSE(victim->valid) << "no eviction while space remains";
    }
    EXPECT_EQ(cache.occupancy(), 16u);
    const auto victim = cache.fill(99 * 0x10000, false, 0);
    ASSERT_TRUE(victim.has_value());
    EXPECT_TRUE(victim->valid);
}

TEST(Cache, RefillOfResidentLineKeepsDirtyAndUpdatesMeta)
{
    Cache cache(smallCache());
    cache.fill(0x40, true, 7);
    const auto victim = cache.fill(0x40, false, 9);
    ASSERT_TRUE(victim.has_value());
    EXPECT_FALSE(victim->valid) << "refill displaces nothing";
    EXPECT_EQ(*cache.meta(0x40), 9u);
    const Victim inval = cache.invalidate(0x40);
    EXPECT_TRUE(inval.dirty) << "dirty bit must survive the refill";
}

TEST(Cache, InvalidateAllReturnsEverything)
{
    Cache cache(smallCache());
    cache.fill(0x000, true, 0);
    cache.fill(0x400, false, 0);
    const auto victims = cache.invalidateAll();
    EXPECT_EQ(victims.size(), 2u);
    EXPECT_EQ(cache.occupancy(), 0u);
    EXPECT_FALSE(cache.probe(0x000));
}

TEST(Cache, MetaRoundTrip)
{
    Cache cache(smallCache());
    cache.fill(0x80, false, 0xDEAD);
    EXPECT_EQ(*cache.meta(0x80), 0xDEADu);
    EXPECT_TRUE(cache.setMeta(0x80, 0xBEEF));
    EXPECT_EQ(*cache.meta(0x80), 0xBEEFu);
    EXPECT_FALSE(cache.meta(0x9999).has_value());
    EXPECT_FALSE(cache.setMeta(0x9999, 1));
}

TEST(Cache, GeometryValidation)
{
    CacheConfig config = smallCache();
    config.line_size = 48; // not a power of two
    EXPECT_DEATH_IF_SUPPORTED({ Cache cache(config); (void)cache; },
                              "power of two");
}

/** Parameterized sweep: occupancy never exceeds capacity and eviction
 *  count matches fills minus capacity across shapes. */
class CacheSweep
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{};

TEST_P(CacheSweep, CapacityInvariant)
{
    const auto [assoc, line_size] = GetParam();
    CacheConfig config;
    config.size_bytes = 8 * 1024;
    config.assoc = assoc;
    config.line_size = line_size;
    Cache cache(config);
    const uint64_t lines = config.numLines();

    secproc::util::Rng rng(99);
    uint64_t accepted = 0;
    for (int i = 0; i < 5000; ++i) {
        const uint64_t addr = rng.nextRange(1 << 20) * line_size;
        if (!cache.access(addr, false)) {
            const auto victim = cache.fill(addr, false, 0);
            accepted += victim.has_value();
        }
        ASSERT_LE(cache.occupancy(), lines);
    }
    EXPECT_EQ(cache.evictions() + cache.occupancy(), accepted);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheSweep,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 4u, 8u),
                       ::testing::Values(32u, 64u, 128u)));

// ---------------------------------------------------------- main memory

TEST(MainMemory, ZeroFillSemantics)
{
    MainMemory memory;
    uint8_t buf[16];
    memory.read(0x123456, buf, sizeof(buf));
    for (uint8_t b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(memory.residentPages(), 0u) << "reads must not allocate";
}

TEST(MainMemory, WriteReadRoundTrip)
{
    MainMemory memory;
    const std::vector<uint8_t> line = {1, 2, 3, 4, 5, 6, 7, 8};
    memory.write(0x1000, line.data(), line.size());
    uint8_t buf[8];
    memory.read(0x1000, buf, sizeof(buf));
    EXPECT_EQ(std::vector<uint8_t>(buf, buf + 8), line);
}

TEST(MainMemory, CrossPageAccess)
{
    MainMemory memory;
    std::vector<uint8_t> data(256);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i);
    const uint64_t addr = MainMemory::kPageSize - 100;
    memory.write(addr, data.data(), data.size());
    std::vector<uint8_t> back(256);
    memory.read(addr, back.data(), back.size());
    EXPECT_EQ(back, data);
    EXPECT_EQ(memory.residentPages(), 2u);
}

TEST(MainMemory, CorruptByteFlipsExactBit)
{
    MainMemory memory;
    const std::vector<uint8_t> line(64, 0xAA);
    memory.writeLine(0x2000, line);
    memory.corruptByte(0x2010, 0x01);
    const auto back = memory.readLine(0x2000, 64);
    EXPECT_EQ(back[0x10], 0xAB);
    EXPECT_EQ(back[0x11], 0xAA);
}

// --------------------------------------------------------------- channel

ChannelConfig
fastChannel()
{
    ChannelConfig config;
    config.access_latency = 100;
    config.transfer_cycles = 16;
    config.small_transfer_cycles = 2;
    config.write_buffer_entries = 4;
    return config;
}

TEST(MemoryChannel, ReadLatency)
{
    MemoryChannel channel(fastChannel());
    EXPECT_EQ(channel.scheduleRead(0, Traffic::DataFill), 100u);
    // Second read queues behind the first transfer.
    EXPECT_EQ(channel.scheduleRead(0, Traffic::DataFill), 116u);
    // A read far in the future sees an idle bus.
    EXPECT_EQ(channel.scheduleRead(1000, Traffic::DataFill), 1100u);
}

TEST(MemoryChannel, SmallTransfersOccupyLess)
{
    MemoryChannel channel(fastChannel());
    channel.scheduleRead(0, Traffic::SeqnumFetch, /*small=*/true);
    EXPECT_EQ(channel.scheduleRead(0, Traffic::DataFill), 102u)
        << "seqnum transfer holds the bus for only 2 cycles";
}

TEST(MemoryChannel, WritesDrainIntoIdleGaps)
{
    MemoryChannel channel(fastChannel());
    channel.enqueueWrite(0, Traffic::DataWriteback);
    channel.enqueueWrite(0, Traffic::DataWriteback);
    // Huge idle gap: both writes drain before this read, which then
    // sees a free bus.
    EXPECT_EQ(channel.scheduleRead(500, Traffic::DataFill), 600u);
    EXPECT_EQ(channel.bytes(Traffic::DataWriteback),
              2u * channel.config().line_bytes);
}

TEST(MemoryChannel, SaturatedWriteBufferStallsReads)
{
    MemoryChannel channel(fastChannel());
    // Fill the 4-entry buffer with writes that are ready immediately.
    for (int i = 0; i < 4; ++i)
        channel.enqueueWrite(0, Traffic::DataWriteback);
    // A read at cycle 0 has no idle gap; forced drains push it back.
    const uint64_t ready = channel.scheduleRead(0, Traffic::DataFill);
    EXPECT_GT(ready, 100u) << "forced drains must delay the read";
}

TEST(MemoryChannel, TrafficAttribution)
{
    MemoryChannel channel(fastChannel());
    channel.scheduleRead(0, Traffic::DataFill);
    channel.enqueueWrite(0, Traffic::DataWriteback);
    channel.scheduleRead(0, Traffic::SeqnumFetch, true);
    channel.enqueueWrite(0, Traffic::SeqnumWriteback, true);
    EXPECT_EQ(channel.dataBytes(), 256u);
    EXPECT_EQ(channel.seqnumBytes(), 16u);
    EXPECT_EQ(channel.transactions(Traffic::SeqnumFetch), 1u);
    channel.reset();
    EXPECT_EQ(channel.dataBytes(), 0u);
}

TEST(MemoryChannel, PerAgentAttribution)
{
    MemoryChannel channel(fastChannel());
    EXPECT_EQ(channel.agentCount(), 1u);
    EXPECT_EQ(channel.agentName(kCoreAgent), "core");

    const AgentId updater = channel.registerAgent("updater");
    EXPECT_EQ(channel.agentCount(), 2u);
    EXPECT_EQ(channel.agentName(updater), "updater");

    channel.scheduleRead(0, Traffic::DataFill); // core by default
    channel.scheduleRead(0, Traffic::UpdateFill, false, 0, updater);
    channel.enqueueWrite(0, Traffic::UpdateWriteback, false, 0,
                         updater);

    const uint32_t line = channel.config().line_bytes;
    EXPECT_EQ(channel.agentBytes(kCoreAgent), line);
    EXPECT_EQ(channel.agentBytes(updater), 2u * line);
    EXPECT_EQ(channel.agentBytes(updater, Traffic::UpdateFill), line);
    EXPECT_EQ(channel.agentTransactions(updater), 2u);
    EXPECT_EQ(channel.updateBytes(), 2u * line);
    // Update traffic never pollutes the Figure 9 accounting.
    EXPECT_EQ(channel.dataBytes(), line);
    EXPECT_EQ(channel.seqnumBytes(), 0u);

    channel.reset();
    EXPECT_EQ(channel.agentBytes(updater), 0u);
    EXPECT_EQ(channel.agentCount(), 2u) << "agents survive reset";
}

TEST(MemoryChannel, AgentsShareOneBus)
{
    MemoryChannel channel(fastChannel());
    const AgentId updater = channel.registerAgent("updater");
    // The updater's transfer occupies the same scalar bus horizon,
    // so the core's read queues behind it exactly as a second core
    // read would.
    channel.scheduleRead(0, Traffic::UpdateFill, false, 0, updater);
    EXPECT_EQ(channel.scheduleRead(0, Traffic::DataFill), 116u);
}

TEST(MemoryChannel, EveryCategoryIsGroupedAndNamed)
{
    MemoryChannel channel(fastChannel());
    const auto count = static_cast<size_t>(Traffic::NumCategories);
    for (size_t i = 0; i < count; ++i)
        channel.scheduleRead(0, static_cast<Traffic>(i));
    // No category may be silently dropped from the grouped
    // accessors; a mismatch panics with the missing byte count.
    channel.assertFullyAttributed();
    EXPECT_EQ(channel.totalBytes(),
              count * channel.config().line_bytes);
    const auto rows = channel.byCategory();
    ASSERT_EQ(rows.size(), count);
    for (const auto &row : rows) {
        EXPECT_NE(row.name, "unknown");
        EXPECT_EQ(row.transactions, 1u);
    }
}

TEST(MemoryChannelDeath, UnknownAgentPanics)
{
    MemoryChannel channel(fastChannel());
    EXPECT_DEATH_IF_SUPPORTED(
        channel.scheduleRead(0, Traffic::DataFill, false, 0,
                             AgentId{7}),
        "unregistered channel agent");
}

// --------------------------------------------------------------- arbiter

/** Core read stream timings with and without arbiter traffic. */
std::vector<uint64_t>
coreReadTimeline(MemoryChannel &channel, int reads)
{
    std::vector<uint64_t> arrivals;
    uint64_t cycle = 0;
    for (int i = 0; i < reads; ++i) {
        const uint64_t ready =
            channel.scheduleRead(cycle, Traffic::DataFill, false,
                                 uint64_t(i) * 128);
        arrivals.push_back(ready);
        channel.enqueueWrite(ready, Traffic::DataWriteback);
        cycle = ready + 7; // some compute between misses
    }
    return arrivals;
}

TEST(MemoryChannelArbiter, IdleBackgroundAgentIsFree)
{
    // The satellite property: registering a background agent that
    // never issues anything must leave every core latency
    // bit-identical to the agent-free channel.
    MemoryChannel plain(fastChannel());
    const auto baseline = coreReadTimeline(plain, 200);

    MemoryChannel with_agent(fastChannel());
    const AgentId idle = with_agent.registerAgent("idle_updater");
    const auto timeline = coreReadTimeline(with_agent, 200);
    EXPECT_EQ(timeline, baseline);
    EXPECT_EQ(with_agent.agentBytes(idle), 0u);
    EXPECT_EQ(with_agent.backgroundGrants(), 0u);
    with_agent.assertFullyAttributed();
}

TEST(MemoryChannelArbiter, GrantsIntoIdleGapsWithoutDelayingCore)
{
    MemoryChannel channel(fastChannel());
    const AgentId bg = channel.registerAgent("updater");

    // Request at cycle 0; the bus is idle, but the grant only lands
    // once enough bus time has provably passed unused.
    channel.requestBackground(0, Traffic::UpdateFill, false, false, 0,
                              bg);
    EXPECT_FALSE(channel.pollBackground(bg, 0).has_value());
    EXPECT_FALSE(channel.pollBackground(bg, 15).has_value())
        << "transfer has not fit into elapsed idle time yet";
    const auto done = channel.pollBackground(bg, 16);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(*done, 100u) << "read data arrives access_latency "
                              "after its cycle-0 start";
    EXPECT_EQ(channel.agentStallCycles(bg), 0u);

    // The grant only used bus time the core had provably left idle:
    // a core read at cycle 16 starts immediately (no delay at all).
    EXPECT_EQ(channel.scheduleRead(16, Traffic::DataFill), 116u);
}

TEST(MemoryChannelArbiter, StarvationBoundHoldsUnderSaturation)
{
    ChannelConfig config = fastChannel();
    config.bg_starvation_bound = 512;
    MemoryChannel channel(config);
    const AgentId bg = channel.registerAgent("updater");

    // Saturating foreground: back-to-back core reads with no idle
    // gap, polled the way a System pumps its agents.
    channel.requestBackground(0, Traffic::UpdateFill, false, false, 0,
                              bg);
    uint64_t cycle = 0;
    std::optional<uint64_t> granted;
    std::vector<uint64_t> core_arrivals;
    while (!granted.has_value() && cycle < 10'000) {
        const uint64_t ready =
            channel.scheduleRead(cycle, Traffic::DataFill);
        core_arrivals.push_back(ready);
        cycle = ready - config.access_latency +
                config.transfer_cycles; // issue rate = bus rate
        granted = channel.pollBackground(bg, cycle);
    }
    ASSERT_TRUE(granted.has_value())
        << "background work starved forever under core saturation";
    // The wait is real (the core owned the bus until the bound hit)
    // but bounded.
    EXPECT_GE(channel.agentMaxStallCycles(bg),
              uint64_t{config.bg_starvation_bound} -
                  config.transfer_cycles);
    EXPECT_LE(channel.agentMaxStallCycles(bg),
              uint64_t{config.bg_starvation_bound} +
                  2 * config.transfer_cycles);
    EXPECT_EQ(channel.backgroundForcedGrants(), 1u);
    EXPECT_EQ(channel.agentStallCycles(bg),
              channel.agentMaxStallCycles(bg));
    channel.assertFullyAttributed();
}

TEST(MemoryChannelArbiter, QueueOrderIsFairAmongBackgroundAgents)
{
    MemoryChannel channel(fastChannel());
    const AgentId first = channel.registerAgent("updater");
    const AgentId second = channel.registerAgent("dma");
    channel.requestBackground(0, Traffic::UpdateFill, false, false, 0,
                              first);
    channel.requestBackground(0, Traffic::UpdateWriteback, true, false,
                              0, second);
    // Both fit into a long idle stretch: grant order is queue order,
    // and the write completes at its last bus cycle (no access
    // latency).
    const auto read_done = channel.pollBackground(first, 1000);
    const auto write_done = channel.pollBackground(second, 1000);
    ASSERT_TRUE(read_done.has_value());
    ASSERT_TRUE(write_done.has_value());
    EXPECT_EQ(*read_done, 100u);
    EXPECT_EQ(*write_done, 32u) << "write occupies [16,32) behind "
                                   "the read's transfer";
    channel.assertFullyAttributed();
}

TEST(MemoryChannelArbiter, ResetDropsQueuedWork)
{
    MemoryChannel channel(fastChannel());
    const AgentId bg = channel.registerAgent("updater");
    channel.requestBackground(0, Traffic::UpdateFill, false, false, 0,
                              bg);
    EXPECT_EQ(channel.backgroundQueued(), 1u);
    channel.reset();
    EXPECT_EQ(channel.backgroundQueued(), 0u);
    EXPECT_FALSE(channel.pollBackground(bg, 1'000'000).has_value())
        << "a machine reset leaves no in-flight work";
    // The agent can request again after the reset.
    channel.requestBackground(0, Traffic::UpdateFill, false, false, 0,
                              bg);
    EXPECT_TRUE(channel.pollBackground(bg, 1000).has_value());
    channel.assertFullyAttributed();
}

TEST(MemoryChannelArbiterDeath, CoreAndDoubleRequestsPanic)
{
    MemoryChannel channel(fastChannel());
    const AgentId bg = channel.registerAgent("updater");
    EXPECT_DEATH_IF_SUPPORTED(
        channel.requestBackground(0, Traffic::DataFill, false, false,
                                  0, kCoreAgent),
        "does not arbitrate against itself");
    channel.requestBackground(0, Traffic::UpdateFill, false, false, 0,
                              bg);
    EXPECT_DEATH_IF_SUPPORTED(
        channel.requestBackground(0, Traffic::UpdateFill, false,
                                  false, 0, bg),
        "outstanding background request");
}

// -------------------------------------------------------- virtual memory

TEST(VirtualMemory, StableTranslation)
{
    VirtualMemory vm;
    const uint64_t pa1 = vm.translate(1, 0x10000);
    EXPECT_EQ(vm.translate(1, 0x10000), pa1);
    EXPECT_EQ(vm.translate(1, 0x10008), pa1 + 8);
    EXPECT_NE(vm.translate(1, 0x20000), pa1);
}

TEST(VirtualMemory, AsidsAreIsolated)
{
    VirtualMemory vm;
    const uint64_t pa1 = vm.translate(1, 0x10000);
    const uint64_t pa2 = vm.translate(2, 0x10000);
    EXPECT_NE(pa1, pa2) << "same VA in different tasks, different PA";
}

TEST(VirtualMemory, ProbeDoesNotAllocate)
{
    VirtualMemory vm;
    EXPECT_FALSE(vm.probeTranslate(1, 0x5000).has_value());
    vm.translate(1, 0x5000);
    EXPECT_TRUE(vm.probeTranslate(1, 0x5000).has_value());
}

TEST(VirtualMemory, SharedSegmentsAlias)
{
    VirtualMemory vm;
    vm.share(1, 0x100000, 2, 0x400000, 2 * VirtualMemory::kPageSize);
    EXPECT_EQ(vm.translate(1, 0x100010), vm.translate(2, 0x400010));
    EXPECT_EQ(vm.regionKind(1, 0x100000), RegionKind::Shared);
    EXPECT_EQ(vm.regionKind(2, 0x400FFF), RegionKind::Shared);
    EXPECT_EQ(vm.regionKind(1, 0x900000), RegionKind::Protected);
}

TEST(VirtualMemory, PlaintextRegions)
{
    VirtualMemory vm;
    vm.addRegion(1, Region{"libc", 0x7000000, 0x7100000,
                           RegionKind::Plaintext});
    EXPECT_EQ(vm.regionKind(1, 0x7000000), RegionKind::Plaintext);
    EXPECT_EQ(vm.regionKind(1, 0x70FFFFF), RegionKind::Plaintext);
    EXPECT_EQ(vm.regionKind(1, 0x7100000), RegionKind::Protected);
}

TEST(VirtualMemory, RebaseChangesPhysicalNotVirtual)
{
    VirtualMemory vm;
    const uint64_t before = vm.translate(1, 0x30000);
    vm.rebase(1);
    const uint64_t after = vm.translate(1, 0x30000);
    EXPECT_NE(before, after)
        << "context switch relocates physical placement";
}

// --------------------------------------------------------- on-chip store

TEST(OnChipStore, InstallPeekRemove)
{
    OnChipStore store(64);
    std::vector<uint8_t> line(64, 0x5A);
    store.install(0x1000, line);
    ASSERT_NE(store.peek(0x1000), nullptr);
    EXPECT_EQ(store.peek(0x1000)[0], 0x5A);
    store.peekMutable(0x1000)[0] = 0x11;
    std::vector<uint8_t> removed(64, 0);
    ASSERT_TRUE(store.removeInto(0x1000, removed));
    EXPECT_EQ(removed[0], 0x11);
    EXPECT_EQ(store.peek(0x1000), nullptr);
    EXPECT_FALSE(store.removeInto(0x1000, removed));
}

TEST(OnChipStore, ArenaSlotsAreRecycled)
{
    OnChipStore store(64);
    std::vector<uint8_t> line(64, 0xFF);
    std::vector<uint8_t> out(64, 0);
    store.install(0x1000, line);
    ASSERT_TRUE(store.removeInto(0x1000, out));
    // A recycled slot must come back zeroed before the new install
    // copies over it; installing then peeking shows the new bytes.
    std::vector<uint8_t> other(64, 0x21);
    store.install(0x2000, other);
    ASSERT_NE(store.peek(0x2000), nullptr);
    EXPECT_EQ(store.peek(0x2000)[63], 0x21);
    EXPECT_EQ(store.residentLines(), 1u);
}

} // namespace
