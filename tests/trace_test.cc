/**
 * @file
 * Trace record/replay tests: bit-exact round trips, cycle-identical
 * System replays, wrap semantics, and malformed-input rejection
 * (including lengths, counts and enums crafted past their bounds).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "sim/profiles.hh"
#include "sim/system.hh"
#include "sim/trace_io.hh"

namespace
{

using namespace secproc;
using namespace secproc::sim;

/** Unique temp path per test; removed on destruction. */
class TempTrace
{
  public:
    explicit TempTrace(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("secproc_trace_" + tag + ".bin"))
    {}

    ~TempTrace() { std::filesystem::remove(path_); }

    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

WorkloadProfile
traceProfile(uint64_t seed)
{
    WorkloadProfile profile;
    profile.name = "trace-test";
    profile.mem_frac = 0.35;
    profile.code_footprint = 8 * 1024;
    profile.rng_seed = seed;
    DataRegion hot;
    hot.behavior = RegionBehavior::Hot;
    hot.footprint = 32 * 1024;
    hot.weight = 0.5;
    DataRegion zipf;
    zipf.behavior = RegionBehavior::Zipf;
    zipf.footprint = 1024 * 1024;
    zipf.weight = 0.5;
    zipf.store_frac = 0.4;
    profile.regions = {hot, zipf};
    return profile;
}

TEST(TraceIo, RoundTripIsBitExact)
{
    TempTrace path("roundtrip");
    SyntheticWorkload source(traceProfile(1), 128);
    recordTrace(path.str(), source, 20'000);

    SyntheticWorkload reference(traceProfile(1), 128);
    TraceWorkload replay(path.str());
    ASSERT_EQ(replay.length(), 20'000u);
    for (int i = 0; i < 20'000; ++i) {
        const TraceOp &want = reference.next();
        const TraceOp &got = replay.next();
        ASSERT_EQ(got.cls, want.cls) << "op " << i;
        ASSERT_EQ(got.addr, want.addr) << "op " << i;
        ASSERT_EQ(got.fetch_line, want.fetch_line) << "op " << i;
        ASSERT_EQ(got.dep1, want.dep1) << "op " << i;
        ASSERT_EQ(got.dep2, want.dep2) << "op " << i;
        ASSERT_EQ(got.mispredict, want.mispredict) << "op " << i;
    }
}

TEST(TraceIo, ProfileSurvivesSerialization)
{
    TempTrace path("profile");
    SyntheticWorkload source(traceProfile(2), 128);
    recordTrace(path.str(), source, 100);

    TraceWorkload replay(path.str());
    const WorkloadProfile &original = source.profile();
    const WorkloadProfile &restored = replay.profile();
    EXPECT_EQ(restored.name, original.name);
    EXPECT_EQ(restored.rng_seed, original.rng_seed);
    EXPECT_EQ(restored.code_footprint, original.code_footprint);
    ASSERT_EQ(restored.regions.size(), original.regions.size());
    for (size_t i = 0; i < original.regions.size(); ++i) {
        EXPECT_EQ(restored.regions[i].base, original.regions[i].base);
        EXPECT_EQ(restored.regions[i].footprint,
                  original.regions[i].footprint);
        EXPECT_EQ(restored.regions[i].behavior,
                  original.regions[i].behavior);
    }
    for (size_t i = 0; i < original.regions.size(); ++i)
        EXPECT_EQ(replay.liveLines(i), source.liveLines(i));
}

TEST(TraceIo, ReplayedSystemMatchesLiveSystemCycles)
{
    // The headline property: a System driven by a recorded trace
    // must produce byte-identical timing to one driven by the live
    // generator, because preinitialization state (profile + live
    // lines) travels inside the trace.
    const uint64_t instructions = 150'000;
    TempTrace path("cycles");
    {
        SyntheticWorkload recorder(traceProfile(3), 128);
        recordTrace(path.str(), recorder, instructions);
    }

    SyntheticWorkload live(traceProfile(3), 128);
    System live_system(paperConfig(secure::SecurityModel::OtpSnc),
                       live);
    live_system.run(instructions);

    TraceWorkload replay(path.str());
    System replay_system(paperConfig(secure::SecurityModel::OtpSnc),
                         replay);
    replay_system.run(instructions);

    EXPECT_EQ(replay_system.core().cycles(),
              live_system.core().cycles());
}

TEST(TraceIo, ReplayWrapsAroundAtEnd)
{
    TempTrace path("wrap");
    SyntheticWorkload source(traceProfile(4), 128);
    recordTrace(path.str(), source, 1'000);

    TraceWorkload replay(path.str());
    std::vector<uint64_t> first_pass;
    for (int i = 0; i < 1'000; ++i)
        first_pass.push_back(replay.next().addr);
    EXPECT_EQ(replay.wraps(), 1u);
    for (int i = 0; i < 1'000; ++i)
        ASSERT_EQ(replay.next().addr, first_pass[i]) << "op " << i;
    EXPECT_EQ(replay.wraps(), 2u);

    replay.reset();
    EXPECT_EQ(replay.wraps(), 0u);
    EXPECT_EQ(replay.next().addr, first_pass[0]);
}

TEST(TraceIo, RejectsNonTraceFile)
{
    TempTrace path("garbage");
    FILE *f = std::fopen(path.str().c_str(), "wb");
    std::fputs("definitely not a trace", f);
    std::fclose(f);
    EXPECT_DEATH_IF_SUPPORTED(
        {
            TraceWorkload replay(path.str());
            (void)replay;
        },
        "not a secproc trace");
}

TEST(TraceIo, RejectsTruncatedFile)
{
    TempTrace path("truncated");
    SyntheticWorkload source(traceProfile(5), 128);
    recordTrace(path.str(), source, 500);
    // Chop the tail off.
    const auto full = std::filesystem::file_size(path.str());
    std::filesystem::resize_file(path.str(), full / 2);
    EXPECT_DEATH_IF_SUPPORTED(
        {
            TraceWorkload replay(path.str());
            (void)replay;
        },
        "truncated");
}

TEST(TraceIo, RejectsMissingFile)
{
    EXPECT_DEATH_IF_SUPPORTED(
        {
            TraceWorkload replay("/nonexistent/dir/file.bin");
            (void)replay;
        },
        "cannot open");
}

/**
 * Write a minimal valid trace to @p path and return its bytes: an
 * unnamed profile with one @p behavior region, an empty live-line
 * list and no ops. The file ends in the list's one-byte count (0)
 * and the u64 op count (0), which the tests below patch.
 */
std::vector<uint8_t>
minimalTrace(const TempTrace &path,
             RegionBehavior behavior = RegionBehavior::Hot)
{
    TraceImage image;
    image.profile.name.clear();
    DataRegion region;
    region.behavior = behavior;
    image.profile.regions = {region};
    image.live_lines = {{}};
    writeTrace(path.str(), image);
    FILE *f = std::fopen(path.str().c_str(), "rb");
    std::vector<uint8_t> bytes(std::filesystem::file_size(path.str()));
    EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
    return bytes;
}

void
writeBytes(const TempTrace &path, const std::vector<uint8_t> &bytes)
{
    FILE *f = std::fopen(path.str().c_str(), "wb");
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
}

/** LEB128 encoding of @p v, the format's length and count varint. */
std::vector<uint8_t>
varint(uint64_t v)
{
    std::vector<uint8_t> out;
    for (; v >= 0x80; v >>= 7)
        out.push_back(static_cast<uint8_t>(v) | 0x80);
    out.push_back(static_cast<uint8_t>(v));
    return out;
}

// Lengths and counts come from the file: each must be checked against
// the bytes left before it sizes a string or a reservation, or the
// reader dies on an uncaught std::length_error instead of its own
// fatal().
TEST(TraceIo, RejectsNameLengthPastTheEnd)
{
    TempTrace path("name_len");
    std::vector<uint8_t> bytes = minimalTrace(path);
    // The name's length varint sits right after magic and version.
    ASSERT_EQ(bytes[8], 0u);
    const std::vector<uint8_t> huge = varint(~uint64_t{0});
    bytes.insert(bytes.erase(bytes.begin() + 8), huge.begin(), huge.end());
    writeBytes(path, bytes);
    EXPECT_DEATH_IF_SUPPORTED((void)readTrace(path.str()), "truncated");
}

TEST(TraceIo, RejectsLiveLineCountPastTheEnd)
{
    TempTrace path("live_count");
    std::vector<uint8_t> bytes = minimalTrace(path);
    const auto count = bytes.end() - 9;
    ASSERT_EQ(*count, 0u);
    const std::vector<uint8_t> huge = varint((uint64_t{1} << 62) - 1);
    bytes.insert(bytes.erase(count), huge.begin(), huge.end());
    writeBytes(path, bytes);
    EXPECT_DEATH_IF_SUPPORTED((void)readTrace(path.str()), "truncated");
}

TEST(TraceIo, RejectsOpCountPastTheEnd)
{
    TempTrace path("op_count");
    std::vector<uint8_t> bytes = minimalTrace(path);
    std::fill(bytes.end() - 8, bytes.end(), 0xFF);
    writeBytes(path, bytes);
    EXPECT_DEATH_IF_SUPPORTED((void)readTrace(path.str()), "truncated");
}

TEST(TraceIo, RejectsUnknownRegionBehavior)
{
    TempTrace path("behavior");
    minimalTrace(path, static_cast<RegionBehavior>(127));
    EXPECT_DEATH_IF_SUPPORTED((void)readTrace(path.str()),
                              "corrupt region behavior");
}

/**
 * A trace whose profile holds @p regions, written to @p path: the
 * writer takes any layout, so the reader's checks are what stands
 * between the file and a System warming every line it declares.
 */
void
writeLayout(const TempTrace &path, std::vector<DataRegion> regions)
{
    TraceImage image;
    image.profile.regions = std::move(regions);
    image.live_lines.resize(image.profile.regions.size());
    image.ops.resize(1);
    writeTrace(path.str(), image);
}

DataRegion
hotRegion(uint64_t base, uint64_t footprint)
{
    DataRegion region;
    region.behavior = RegionBehavior::Hot;
    region.base = base;
    region.footprint = footprint;
    return region;
}

TEST(TraceIo, RejectsRegionAboveTheCap)
{
    TempTrace path("region_cap");
    writeLayout(path, {hotRegion(0x1000'0000, kMaxRegionBytes + 128)});
    EXPECT_DEATH_IF_SUPPORTED((void)readTrace(path.str()),
                              "exceeds the .*region cap");
}

TEST(TraceIo, RejectsConflictRingWhoseSizeOverflows)
{
    // 2^33 lines 2^31 bytes apart: the product wraps to 0, which would
    // pass for a 1 MB region.
    TempTrace path("conflict_ring");
    DataRegion ring = hotRegion(0x1000'0000, 1 << 20);
    ring.behavior = RegionBehavior::ConflictStream;
    ring.conflict_lines = uint64_t{1} << 33;
    ring.conflict_stride = uint64_t{1} << 31;
    writeLayout(path, {ring});
    EXPECT_DEATH_IF_SUPPORTED((void)readTrace(path.str()),
                              "conflict ring .*exceeds");
}

TEST(TraceIo, RejectsRegionThatWraps)
{
    TempTrace path("region_wrap");
    writeLayout(path, {hotRegion(~uint64_t{0} - 0xFFFF, 1 << 20)});
    EXPECT_DEATH_IF_SUPPORTED((void)readTrace(path.str()),
                              "wraps the address space");
}

TEST(TraceIo, RejectsOverlappingRegions)
{
    // Listed out of address order: the check sorts by base.
    TempTrace path("region_overlap");
    writeLayout(path, {hotRegion(0x1008'0000, 1 << 20),
                       hotRegion(0x4000'0000, 1 << 20),
                       hotRegion(0x1000'0000, 1 << 20)});
    EXPECT_DEATH_IF_SUPPORTED((void)readTrace(path.str()),
                              "regions overlap");
}

TEST(TraceIo, CompressionIsCompact)
{
    // Delta+varint encoding should keep the common op well under
    // four bytes: a 20k-op trace of a loopy workload must be far
    // smaller than the naive 24-byte-per-op encoding.
    TempTrace path("size");
    SyntheticWorkload source(benchmarkProfile("gzip"), 128);
    recordTrace(path.str(), source, 20'000);
    const auto size = std::filesystem::file_size(path.str());
    EXPECT_LT(size, 20'000u * 8)
        << "expected < 8 bytes/op, got " << size;
}

TEST(TraceIo, AllBenchmarkProfilesRoundTrip)
{
    for (const std::string &name : benchmarkNames()) {
        TempTrace path("bench_" + name);
        SyntheticWorkload source(benchmarkProfile(name), 128);
        recordTrace(path.str(), source, 2'000);
        SyntheticWorkload reference(benchmarkProfile(name), 128);
        TraceWorkload replay(path.str());
        for (int i = 0; i < 2'000; ++i) {
            const TraceOp &want = reference.next();
            const TraceOp &got = replay.next();
            ASSERT_EQ(got.addr, want.addr) << name << " op " << i;
            ASSERT_EQ(got.cls, want.cls) << name << " op " << i;
        }
    }
}

} // namespace
