/**
 * @file
 * Tests for the simulation engine: core timing model properties,
 * workload generator statistics and determinism, system-level
 * behaviour of the three security models, and the paper's headline
 * orderings as end-to-end properties.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "crypto/latency.hh"
#include "sim/core.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/workload.hh"

namespace
{

using namespace secproc;
using namespace secproc::sim;

// ------------------------------------------------------------- core model

/** Scriptable memory system: fixed latencies, records accesses. */
class FakeMemory : public MemorySystem
{
  public:
    uint64_t data_latency = 10;
    uint64_t ifetch_latency = 1;
    std::vector<uint64_t> data_accesses;

    uint64_t
    dataAccess(uint64_t vaddr, uint64_t cycle, bool) override
    {
        data_accesses.push_back(vaddr);
        return cycle + data_latency;
    }

    uint64_t
    ifetch(uint64_t, uint64_t cycle) override
    {
        return cycle + ifetch_latency;
    }
};

TraceOp
aluOp(uint8_t dep = 0)
{
    TraceOp op;
    op.cls = OpClass::IntAlu;
    op.dep1 = dep;
    return op;
}

TEST(OooCore, WidthLimitsThroughput)
{
    FakeMemory memory;
    CoreConfig config;
    config.width = 4;
    OooCore core(config, memory);
    // 400 independent single-cycle ops at width 4: ~100 cycles.
    for (int i = 0; i < 400; ++i)
        core.step(aluOp());
    EXPECT_GE(core.cycles(), 100u);
    EXPECT_LE(core.cycles(), 110u);
}

TEST(OooCore, DependenceChainSerializes)
{
    FakeMemory memory;
    OooCore core(CoreConfig{}, memory);
    // Every op depends on the previous one: 1 IPC regardless of
    // width.
    for (int i = 0; i < 300; ++i)
        core.step(aluOp(/*dep=*/1));
    EXPECT_GE(core.cycles(), 300u);
}

TEST(OooCore, IndependentLoadsOverlap)
{
    FakeMemory memory;
    memory.data_latency = 100;
    OooCore core(CoreConfig{}, memory);
    // 32 independent loads: latencies overlap inside the window, so
    // total time is far below 32 * 100.
    for (int i = 0; i < 32; ++i) {
        TraceOp op;
        op.cls = OpClass::Load;
        op.addr = 0x1000 + 64 * i;
        core.step(op);
    }
    EXPECT_LT(core.cycles(), 32u * 100u / 4);
    EXPECT_EQ(core.loads(), 32u);
}

TEST(OooCore, DependentLoadsDoNotOverlap)
{
    FakeMemory memory;
    memory.data_latency = 100;
    OooCore core(CoreConfig{}, memory);
    for (int i = 0; i < 16; ++i) {
        TraceOp op;
        op.cls = OpClass::Load;
        op.addr = 0x1000 + 64 * i;
        op.dep1 = 1; // chained
        core.step(op);
    }
    EXPECT_GE(core.cycles(), 16u * 100u);
}

TEST(OooCore, RobLimitsMemoryParallelism)
{
    FakeMemory memory;
    memory.data_latency = 1000;
    CoreConfig small_rob;
    small_rob.rob_size = 8;
    OooCore core(small_rob, memory);
    // Window of 8: at most 8 of these loads can be in flight; 64
    // loads take at least (64/8) * 1000 cycles.
    for (int i = 0; i < 64; ++i) {
        TraceOp op;
        op.cls = OpClass::Load;
        op.addr = 0x1000 + 64 * i;
        core.step(op);
    }
    EXPECT_GE(core.cycles(), 8u * 1000u);
}

TEST(OooCore, MispredictRedirectsFetch)
{
    FakeMemory memory;
    OooCore baseline(CoreConfig{}, memory);
    OooCore redirected(CoreConfig{}, memory);
    for (int i = 0; i < 100; ++i) {
        TraceOp op;
        op.cls = OpClass::Branch;
        baseline.step(op);
        op.mispredict = true;
        redirected.step(op);
    }
    EXPECT_GT(redirected.cycles(), baseline.cycles());
    EXPECT_EQ(redirected.mispredicts(), 100u);
}

TEST(OooCore, StoresDoNotBlockRetirement)
{
    FakeMemory memory;
    memory.data_latency = 1000;
    OooCore core(CoreConfig{}, memory);
    for (int i = 0; i < 100; ++i) {
        TraceOp op;
        op.cls = OpClass::Store;
        op.addr = 0x2000 + 64 * i;
        core.step(op);
    }
    EXPECT_LT(core.cycles(), 1000u)
        << "stores retire through the store buffer";
}

TEST(OooCore, ResetRestartsTiming)
{
    FakeMemory memory;
    OooCore core(CoreConfig{}, memory);
    for (int i = 0; i < 100; ++i)
        core.step(aluOp());
    core.reset();
    EXPECT_EQ(core.cycles(), 0u);
    EXPECT_EQ(core.instructions(), 0u);
}

// -------------------------------------------------------------- workloads

TEST(Workload, Deterministic)
{
    SyntheticWorkload a(benchmarkProfile("gcc"));
    SyntheticWorkload b(benchmarkProfile("gcc"));
    for (int i = 0; i < 20000; ++i) {
        const TraceOp &op_a = a.next();
        const TraceOp &op_b = b.next();
        ASSERT_EQ(op_a.cls, op_b.cls);
        ASSERT_EQ(op_a.addr, op_b.addr);
        ASSERT_EQ(op_a.dep1, op_b.dep1);
    }
}

TEST(Workload, ResetReproducesStream)
{
    SyntheticWorkload workload(benchmarkProfile("mcf"));
    std::vector<uint64_t> first;
    for (int i = 0; i < 5000; ++i)
        first.push_back(workload.next().addr);
    workload.reset();
    for (int i = 0; i < 5000; ++i)
        ASSERT_EQ(workload.next().addr, first[static_cast<size_t>(i)]);
}

TEST(Workload, MixMatchesProfile)
{
    const WorkloadProfile profile = benchmarkProfile("parser");
    SyntheticWorkload workload(profile);
    std::map<OpClass, uint64_t> counts;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[workload.next().cls];
    const double mem_frac =
        static_cast<double>(counts[OpClass::Load] +
                            counts[OpClass::Store]) /
        n;
    EXPECT_NEAR(mem_frac, profile.mem_frac, 0.01);
    const double branch_frac =
        static_cast<double>(counts[OpClass::Branch]) / n;
    EXPECT_NEAR(branch_frac, profile.branch_frac, 0.01);
}

TEST(Workload, AddressesStayInRegions)
{
    const WorkloadProfile profile = benchmarkProfile("ammp");
    SyntheticWorkload workload(profile);
    for (int i = 0; i < 100000; ++i) {
        const TraceOp &op = workload.next();
        if (op.cls != OpClass::Load && op.cls != OpClass::Store)
            continue;
        bool inside = false;
        for (const DataRegion &region : workload.profile().regions) {
            const uint64_t extent =
                region.behavior == RegionBehavior::ConflictStream
                    ? region.conflict_lines * region.conflict_stride
                    : region.footprint;
            if (op.addr >= region.base &&
                op.addr < region.base + extent) {
                inside = true;
                break;
            }
        }
        ASSERT_TRUE(inside)
            << "address " << std::hex << op.addr << " outside regions";
    }
}

TEST(Workload, ChaseLoadsAreSerialized)
{
    SyntheticWorkload workload(benchmarkProfile("mcf"));
    uint64_t serialized = 0, chase_loads = 0;
    uint64_t chase_base = 0, chase_end = 0;
    for (const DataRegion &region : workload.profile().regions) {
        if (region.behavior == RegionBehavior::Chase) {
            chase_base = region.base;
            chase_end = region.base + region.footprint;
        }
    }
    ASSERT_NE(chase_base, 0u);
    for (int i = 0; i < 100000; ++i) {
        const TraceOp &op = workload.next();
        if (op.cls == OpClass::Load && op.addr >= chase_base &&
            op.addr < chase_end) {
            ++chase_loads;
            serialized += (op.dep1 != 0);
        }
    }
    EXPECT_GT(chase_loads, 1000u);
    EXPECT_GT(static_cast<double>(serialized) /
                  static_cast<double>(chase_loads),
              0.9)
        << "chase loads must depend on their predecessor";
}

TEST(Workload, LiveLinesMatchBehaviour)
{
    SyntheticWorkload workload(benchmarkProfile("gcc"));
    const auto &regions = workload.profile().regions;
    for (size_t i = 0; i < regions.size(); ++i) {
        const auto live = workload.liveLines(i);
        if (regions[i].behavior == RegionBehavior::WriteOnce) {
            EXPECT_TRUE(live.empty());
            continue;
        }
        EXPECT_FALSE(live.empty());
        std::set<uint64_t> unique(live.begin(), live.end());
        EXPECT_EQ(unique.size(), live.size()) << "no duplicate lines";
    }
}

TEST(Workload, AllElevenBenchmarksExist)
{
    EXPECT_EQ(benchmarkNames().size(), 11u);
    for (const std::string &name : benchmarkNames()) {
        const WorkloadProfile profile = benchmarkProfile(name);
        EXPECT_EQ(profile.name, name);
        EXPECT_FALSE(profile.regions.empty());
        // Paper numbers exist for every benchmark.
        const PaperNumbers numbers = paperNumbers(name);
        EXPECT_GT(numbers.xom_slowdown, 0.0);
    }
}

// A dependence probability so small that the geometric draw
// saturates still gives the longest distance, 200.
TEST(Workload, TinyDependenceProbabilityGivesLongestDistance)
{
    WorkloadProfile profile = benchmarkProfile("gzip");
    profile.dep_p = 1e-300;
    SyntheticWorkload workload(profile);
    for (int i = 0; i < 10'000; ++i) {
        const TraceOp &op = workload.next();
        if (op.cls != OpClass::Load && op.cls != OpClass::Store) {
            ASSERT_EQ(op.dep1, 200) << "op " << i;
        }
    }
}

/** FNV-1a over every field of the first @p ops ops of @p profile. */
uint64_t
streamHash(WorkloadProfile profile, uint64_t ops, uint32_t line_size = 128)
{
    SyntheticWorkload workload(std::move(profile), line_size);
    uint64_t hash = 0xCBF29CE484222325ull;
    const auto mix = [&hash](uint64_t value, int bytes) {
        for (int i = 0; i < bytes; ++i) {
            hash ^= (value >> (8 * i)) & 0xFF;
            hash *= 0x100000001B3ull;
        }
    };
    for (uint64_t i = 0; i < ops; ++i) {
        const TraceOp &op = workload.next();
        mix(static_cast<uint64_t>(op.cls), 1);
        mix(op.dep1, 1);
        mix(op.dep2, 1);
        mix(op.mispredict, 1);
        mix(op.addr, 8);
        mix(op.fetch_line, 8);
    }
    return hash;
}

DataRegion
edgeRegion(RegionBehavior behavior, uint64_t footprint, double weight)
{
    DataRegion region;
    region.behavior = behavior;
    region.footprint = footprint;
    region.weight = weight;
    return region;
}

/** Profiles at the generator's edges: non-power-of-two geometry,
 *  odds of 0 and 1, two Zipf tables in one stream, and more. */
std::vector<WorkloadProfile>
edgeProfiles()
{
    std::vector<WorkloadProfile> profiles;
    WorkloadProfile base;
    base.mem_frac = 0.5;
    base.rng_seed = 0xED6E;

    // Two Zipf/Chase regions of different universes and exponents
    // (small enough that a one-entry table cache stays fast).
    WorkloadProfile p = base;
    p.name = "two_zipf_tables";
    p.regions = {edgeRegion(RegionBehavior::Zipf, 512 * 128, 1.0),
                 edgeRegion(RegionBehavior::Chase, 300 * 128, 1.0)};
    p.regions[0].zipf_s = 1.4;
    p.regions[1].zipf_s = 1.0;
    profiles.push_back(p);

    // A Chase window wider than its 200 lines, drifting every 3
    // accesses over a non-power-of-two footprint; a narrow drifting
    // Zipf window; regions smaller than one line.
    p = base;
    p.name = "windows_and_tiny_regions";
    p.regions = {edgeRegion(RegionBehavior::Chase, 200 * 128 + 40, 2.0),
                 edgeRegion(RegionBehavior::Zipf, 400 * 128, 1.0),
                 edgeRegion(RegionBehavior::Hot, 64, 0.5),
                 edgeRegion(RegionBehavior::Zipf, 96, 0.5)};
    p.regions[0].window_lines = 1000;
    p.regions[0].drift_interval = 3;
    p.regions[0].drift_step_lines = 7;
    p.regions[1].window_lines = 64;
    p.regions[1].drift_interval = 5;
    p.regions[1].drift_step_lines = 3;
    profiles.push_back(p);

    // Bursty stream over a non-power-of-two footprint, a write-once
    // region with writes_per_line 0 and a 48-line conflict ring.
    p = base;
    p.name = "stream_writeonce_conflict";
    p.regions = {edgeRegion(RegionBehavior::Stream, 100'000, 1.0),
                 edgeRegion(RegionBehavior::WriteOnce, 64 * 1024, 1.0),
                 edgeRegion(RegionBehavior::ConflictStream, 4096, 0.5)};
    p.regions[0].stride = 24;
    p.regions[0].burst_length = 8;
    p.regions[1].writes_per_line = 0;
    p.regions[1].store_frac = 0.7;
    p.regions[2].conflict_stride = 1000 * 128;
    p.regions[2].conflict_lines = 48;
    profiles.push_back(p);

    // Odds of exactly 0 and 1, and a text segment of less than one
    // instruction at a non-zero va_offset.
    p = base;
    p.name = "certain_odds";
    p.branch_frac = 0.3;
    p.mispredict_rate = 1.0;
    p.jump_frac = 1.0;
    p.code_footprint = 2;
    p.va_offset = 1ull << 32;
    p.regions = {edgeRegion(RegionBehavior::Hot, 32 * 1024, 1.0),
                 edgeRegion(RegionBehavior::Hot, 16 * 1024, 1.0),
                 edgeRegion(RegionBehavior::WriteOnce, 8 * 1024, 1.0)};
    p.regions[0].store_frac = 0.0;
    p.regions[1].store_frac = 1.0;
    p.regions[2].store_frac = 1.0;
    profiles.push_back(p);

    // Op fractions summing to 1.2 and a zero-weight region between
    // two others.
    p = base;
    p.name = "fractions_over_one";
    p.mem_frac = 0.5;
    p.branch_frac = 0.3;
    p.mul_frac = 0.2;
    p.fp_frac = 0.2;
    p.mispredict_rate = 0.5;
    p.jump_frac = 0.5;
    p.regions = {edgeRegion(RegionBehavior::Hot, 8 * 1024, 1.0),
                 edgeRegion(RegionBehavior::Stream, 64 * 1024, 0.0),
                 edgeRegion(RegionBehavior::Zipf, 384 * 128, 2.0)};
    profiles.push_back(p);

    // Flat (s = 0) and steep (s = 3) popularity.
    p = base;
    p.name = "zipf_s_extremes";
    p.regions = {edgeRegion(RegionBehavior::Zipf, 256 * 128, 1.0),
                 edgeRegion(RegionBehavior::Chase, 500 * 128, 1.0)};
    p.regions[0].zipf_s = 0.0;
    p.regions[1].zipf_s = 3.0;
    profiles.push_back(p);

    // mem_frac half a draw above the first op's class draw k: the op
    // is a memory op only if the comparison is exact at its edge.
    p = base;
    p.name = "class_edge";
    const uint64_t k = util::Rng(p.rng_seed).next53();
    EXPECT_LT(k, util::Rng::kDrawSpan / 2) << "k + 0.5 must be exact";
    p.mem_frac = (static_cast<double>(k) + 0.5) * 0x1.0p-53;
    p.regions = {edgeRegion(RegionBehavior::Hot, 4096, 1.0)};
    profiles.push_back(p);

    // A two-rank Zipf region whose rank-0 CDF entry c lies strictly
    // between the first op's Zipf draw k and the draw below it: the
    // op takes rank 1 only if c compares exactly. The Zipf draw is
    // the third (op class, region pick, rank; store_frac 0 draws
    // nothing). A seed with a small k leaves room for c near
    // (k - 0.5) * 2^-53, which s = -log2(1/c - 1) gives.
    p = base;
    p.name = "zipf_edge";
    p.mem_frac = 1.0;
    uint64_t draw = 0;
    for (;; ++p.rng_seed) {
        util::Rng probe(p.rng_seed);
        probe.next64();
        probe.next64();
        draw = probe.next53();
        if (draw < (uint64_t{1} << 43))
            break;
    }
    const double zipf_k = static_cast<double>(draw);
    DataRegion zipf = edgeRegion(RegionBehavior::Zipf, 2 * 128, 1.0);
    zipf.store_frac = 0.0;
    zipf.zipf_s = -std::log2(1.0 / ((zipf_k - 0.5) * 0x1.0p-53) - 1.0);
    const double c = 1.0 / (1.0 + 1.0 / std::pow(2.0, zipf.zipf_s));
    EXPECT_GT(c * 0x1.0p53, zipf_k - 1.0);
    EXPECT_LT(c * 0x1.0p53, zipf_k);
    p.regions = {zipf};
    profiles.push_back(p);
    return profiles;
}

// Every op of every profile at two seeds, and of the edge profiles
// (one at a 64-byte line), hashed: any change to a generated stream,
// however rare the op it touches, fails here.
TEST(Workload, StreamsArePinned)
{
    // {calibrated seed, rng_seed ^ 0x5EED5EED}
    const std::map<std::string, std::pair<uint64_t, uint64_t>> want = {
        {"ammp", {0xd2919d3c8bba9103, 0x9d7af6170cd6dfd8}},
        {"art", {0x616786addae0553c, 0x97c5b69384c110b5}},
        {"bzip2", {0xffe0188d6f57f5e8, 0x2067bfa0128cf0c0}},
        {"equake", {0x7d1c3e893596316f, 0x88a42d39906f8387}},
        {"gcc", {0xa309da511bf551da, 0xd1ed4172ae4936b5}},
        {"gzip", {0x84230cfd1e0d244f, 0x0d45efc0c785cfe4}},
        {"mcf", {0xc75af4b33c76a4f1, 0x1b7cfc446a5039cf}},
        {"mesa", {0x33564968bbd3b270, 0x8ec952c70420c975}},
        {"parser", {0xdf98a9f226c9e996, 0x8a651e3badb94a6b}},
        {"vortex", {0x3c96c600b1c5d21a, 0xf597dde95713ead7}},
        {"vpr", {0xd618e8e0ec92d953, 0xaab921a02733e5f7}},
    };
    ASSERT_EQ(want.size(), benchmarkNames().size());
    for (const std::string &name : benchmarkNames()) {
        WorkloadProfile profile = benchmarkProfile(name);
        EXPECT_EQ(streamHash(profile, 200'000), want.at(name).first)
            << name;
        profile.rng_seed ^= 0x5EED5EED;
        EXPECT_EQ(streamHash(profile, 200'000), want.at(name).second)
            << name << " (reseeded)";
    }

    const std::map<std::string, uint64_t> want_edges = {
        {"two_zipf_tables", 0x35999a7ddf0043a9},
        {"windows_and_tiny_regions", 0x6cb67a66497efa3a},
        {"stream_writeonce_conflict", 0x21f706196c667bea},
        {"certain_odds", 0x1ac293456232853f},
        {"fractions_over_one", 0x41839c089e8369c6},
        {"zipf_s_extremes", 0xe25284431c074ddd},
        {"class_edge", 0x674a9645715387c8},
        {"zipf_edge", 0x5f7978eff2262d64},
    };
    const std::vector<WorkloadProfile> edges = edgeProfiles();
    ASSERT_EQ(edges.size(), want_edges.size());
    for (const WorkloadProfile &profile : edges) {
        const uint32_t line_size =
            profile.name == "stream_writeonce_conflict" ? 64 : 128;
        EXPECT_EQ(streamHash(profile, 50'000, line_size),
                  want_edges.at(profile.name))
            << profile.name;
    }
}

// ----------------------------------------------------------- full system

SystemConfig
quickConfig(secure::SecurityModel model)
{
    auto config = paperConfig(model);
    return config;
}

uint64_t
runCycles(const std::string &bench, const SystemConfig &config,
          uint64_t instructions)
{
    SyntheticWorkload workload(benchmarkProfile(bench),
                               config.l2.line_size);
    System system(config, workload);
    system.run(instructions / 4);
    system.beginMeasurement();
    system.run(instructions);
    return system.stats().cycles;
}

TEST(SystemOrdering, XomSlowerThanBaseline)
{
    // The paper's central premise, as a property over two memory-
    // bound benchmarks.
    for (const std::string bench : {"art", "mcf"}) {
        const uint64_t base = runCycles(
            bench, quickConfig(secure::SecurityModel::Baseline),
            400000);
        const uint64_t xom = runCycles(
            bench, quickConfig(secure::SecurityModel::Xom), 400000);
        EXPECT_GT(xom, base + base / 10)
            << bench << ": XOM must cost >10%";
    }
}

TEST(SystemOrdering, OtpBeatsXom)
{
    // The paper's central result.
    for (const std::string bench : {"art", "vpr"}) {
        const uint64_t xom = runCycles(
            bench, quickConfig(secure::SecurityModel::Xom), 400000);
        const uint64_t otp = runCycles(
            bench, quickConfig(secure::SecurityModel::OtpSnc), 400000);
        EXPECT_LT(otp, xom) << bench << ": OTP+SNC must beat XOM";
    }
}

TEST(SystemOrdering, LruBeatsNoReplacementOnGcc)
{
    // Figure 5's gcc pathology: drifting working sets fill a
    // no-replacement SNC with dead entries.
    auto lru = quickConfig(secure::SecurityModel::OtpSnc);
    auto norepl = lru;
    norepl.protection.snc.allow_replacement = false;
    const uint64_t lru_cycles = runCycles("gcc", lru, 600000);
    const uint64_t norepl_cycles = runCycles("gcc", norepl, 600000);
    EXPECT_LT(lru_cycles, norepl_cycles);
}

TEST(SystemOrdering, BiggerSncHelpsMcf)
{
    // Figure 6 on the most footprint-bound benchmark.
    auto small = quickConfig(secure::SecurityModel::OtpSnc);
    small.protection.snc.capacity_bytes = 32 * 1024;
    auto large = quickConfig(secure::SecurityModel::OtpSnc);
    large.protection.snc.capacity_bytes = 128 * 1024;
    const uint64_t small_cycles = runCycles("mcf", small, 600000);
    const uint64_t large_cycles = runCycles("mcf", large, 600000);
    EXPECT_LT(large_cycles, small_cycles);
}

TEST(SystemOrdering, CryptoLatencyHurtsXomNotOtp)
{
    // Figure 10's property: XOM degrades with crypto latency, the
    // OTP fast path absorbs it.
    auto xom_fast = quickConfig(secure::SecurityModel::Xom);
    auto xom_slow = xom_fast;
    xom_slow.protection.crypto.latency =
        crypto::kStrongCipherLatency;
    auto otp_fast = quickConfig(secure::SecurityModel::OtpSnc);
    auto otp_slow = otp_fast;
    otp_slow.protection.crypto.latency =
        crypto::kStrongCipherLatency;

    const uint64_t base = runCycles(
        "art", quickConfig(secure::SecurityModel::Baseline), 400000);
    const uint64_t xf = runCycles("art", xom_fast, 400000);
    const uint64_t xs = runCycles("art", xom_slow, 400000);
    const uint64_t of = runCycles("art", otp_fast, 400000);
    const uint64_t os = runCycles("art", otp_slow, 400000);

    EXPECT_GT(xs, xf) << "102-cycle crypto must slow XOM further";
    const double otp_delta =
        std::abs(static_cast<double>(os) - static_cast<double>(of)) /
        static_cast<double>(base);
    EXPECT_LT(otp_delta, 0.05)
        << "OTP slowdown is insensitive to crypto latency";
}

TEST(System, MshrLimitEnforced)
{
    auto config = quickConfig(secure::SecurityModel::Baseline);
    config.mshrs = 1;
    const uint64_t serialized = runCycles("art", config, 200000);
    config.mshrs = 16;
    const uint64_t parallel = runCycles("art", config, 200000);
    EXPECT_LT(parallel, serialized)
        << "more MSHRs must increase miss overlap";
}

TEST(System, StatsAreConsistent)
{
    auto config = quickConfig(secure::SecurityModel::OtpSnc);
    SyntheticWorkload workload(benchmarkProfile("parser"),
                               config.l2.line_size);
    System system(config, workload);
    system.run(100000);
    system.beginMeasurement();
    system.run(200000);
    const RunStats stats = system.stats();
    EXPECT_EQ(stats.instructions, 200000u);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.ipc, 0.0);
    EXPECT_LE(stats.l2_misses, stats.l2_accesses);
    EXPECT_GT(stats.data_bytes, 0u);
}

TEST(System, DeterministicAcrossRuns)
{
    const uint64_t first = runCycles(
        "vpr", quickConfig(secure::SecurityModel::OtpSnc), 300000);
    const uint64_t second = runCycles(
        "vpr", quickConfig(secure::SecurityModel::OtpSnc), 300000);
    EXPECT_EQ(first, second)
        << "identical configuration must give identical cycles";
}

/** Parameterized: every benchmark runs under every model. */
class EveryBenchEveryModel
    : public ::testing::TestWithParam<
          std::tuple<std::string, secure::SecurityModel>>
{};

TEST_P(EveryBenchEveryModel, RunsAndProducesSaneStats)
{
    const auto &[bench, model] = GetParam();
    auto config = quickConfig(model);
    SyntheticWorkload workload(benchmarkProfile(bench),
                               config.l2.line_size);
    System system(config, workload);
    system.run(60000);
    system.beginMeasurement();
    system.run(120000);
    const RunStats stats = system.stats();
    EXPECT_EQ(stats.instructions, 120000u);
    EXPECT_GT(stats.ipc, 0.05);
    EXPECT_LT(stats.ipc, 4.0);
}

std::string
matrixName(const ::testing::TestParamInfo<
           std::tuple<std::string, secure::SecurityModel>> &info)
{
    std::string name =
        std::get<0>(info.param) + "_" +
        secure::securityModelName(std::get<1>(info.param));
    for (char &c : name) {
        if (c == '-')
            c = '_';
    }
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, EveryBenchEveryModel,
    ::testing::Combine(
        ::testing::ValuesIn(benchmarkNames()),
        ::testing::Values(secure::SecurityModel::Baseline,
                          secure::SecurityModel::Xom,
                          secure::SecurityModel::OtpSnc)),
    matrixName);

} // namespace
