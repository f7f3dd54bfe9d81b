/**
 * @file
 * Unit tests for the util library: bit operations, RNG determinism
 * and distributions, statistics, string helpers, table rendering.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <unordered_map>

#include "util/bitops.hh"
#include "util/flat_map.hh"
#include "util/random.hh"
#include "util/stats.hh"
#include "util/strutil.hh"
#include "util/table.hh"

namespace
{

using namespace secproc::util;

// ----------------------------------------------------------------- bitops

TEST(BitOps, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ull << 40));
    EXPECT_FALSE(isPowerOfTwo((1ull << 40) + 1));
}

TEST(BitOps, FloorCeilLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(3), 1u);
    EXPECT_EQ(floorLog2(4), 2u);
    EXPECT_EQ(floorLog2(255), 7u);
    EXPECT_EQ(floorLog2(256), 8u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(256), 8u);
    EXPECT_EQ(ceilLog2(257), 9u);
}

TEST(BitOps, Alignment)
{
    EXPECT_EQ(alignDown(0x12345, 0x100), 0x12300u);
    EXPECT_EQ(alignUp(0x12345, 0x100), 0x12400u);
    EXPECT_EQ(alignUp(0x12300, 0x100), 0x12300u);
    EXPECT_EQ(alignDown(127, 128), 0u);
    EXPECT_EQ(alignUp(1, 128), 128u);
}

TEST(BitOps, BitsAndMask)
{
    EXPECT_EQ(bits(0xABCD, 4, 8), 0xBCu);
    EXPECT_EQ(bits(~0ull, 0, 64), ~0ull);
    EXPECT_EQ(mask(0), 0u);
    EXPECT_EQ(mask(16), 0xFFFFu);
    EXPECT_EQ(mask(64), ~0ull);
}

TEST(BitOps, Rotl28)
{
    // Rotating a 28-bit value by 28 must be the identity.
    const uint32_t v = 0x0ABCDEF;
    uint32_t r = v;
    for (int i = 0; i < 28; ++i)
        r = rotl28(r, 1);
    EXPECT_EQ(r, v);
    EXPECT_EQ(rotl28(0x8000000, 1) & ~0x0FFFFFFFu, 0u)
        << "rotl28 must stay within 28 bits";
}

TEST(BitOps, EndianRoundTrip)
{
    uint8_t buf[8];
    storeBe64(buf, 0x0123456789ABCDEFull);
    EXPECT_EQ(buf[0], 0x01);
    EXPECT_EQ(buf[7], 0xEF);
    EXPECT_EQ(loadBe64(buf), 0x0123456789ABCDEFull);
    storeLe64(buf, 0x0123456789ABCDEFull);
    EXPECT_EQ(buf[0], 0xEF);
    EXPECT_EQ(loadLe64(buf), 0x0123456789ABCDEFull);
}

// ----------------------------------------------------------------- random

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += (a.next64() == b.next64());
    EXPECT_LT(same, 3);
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        ASSERT_LT(rng.nextRange(17), 17u);
    // All residues reachable.
    std::set<uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.nextRange(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(3);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        ASSERT_GE(d, 0.0);
        ASSERT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceApproximatesProbability)
{
    Rng rng(11);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, ZipfSkewsTowardLowRanks)
{
    Rng rng(13);
    const Rng::Zipf zipf = Rng::zipf(1000, 1.0);
    uint64_t low = 0, high = 0;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t rank = rng.nextZipf(zipf);
        ASSERT_LT(rank, 1000u);
        if (rank < 10)
            ++low;
        if (rank >= 500)
            ++high;
    }
    EXPECT_GT(low, high) << "Zipf must favor popular ranks";
    EXPECT_GT(low, 20000u / 10) << "top-10 of 1000 should exceed 10%";
}

TEST(Rng, GeometricMeanRoughlyMatches)
{
    Rng rng(17);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(0.5));
    // Mean of geometric (failures before success) = (1-p)/p = 1.
    EXPECT_NEAR(sum / n, 1.0, 0.05);
}

// nextDouble() < p holds exactly when next53() < threshold(p): check
// both sides of each threshold and both ends of the draw range.
TEST(Rng, ThresholdMatchesDoubleComparison)
{
    const double ps[] = {0.0,
                         -1.0,
                         std::numeric_limits<double>::quiet_NaN(),
                         5e-324,
                         1e-300,
                         0x1.0p-53,
                         0.001,
                         0.3,
                         1.0 - 0x1.0p-53,
                         1.0,
                         2.0};
    for (const double p : ps) {
        const uint64_t t = Rng::threshold(p);
        ASSERT_LE(t, Rng::kDrawSpan) << p;
        std::vector<uint64_t> draws = {0, Rng::kDrawSpan - 1};
        if (t > 0)
            draws.push_back(t - 1);
        if (t < Rng::kDrawSpan)
            draws.push_back(t);
        for (const uint64_t k : draws) {
            // nextDouble()'s value for the 53-bit draw k.
            const double u = static_cast<double>(k) * 0x1.0p-53;
            EXPECT_EQ(k < t, u < p) << "p " << p << ", draw " << k;
        }
    }
}

// chance(Odds) and nextGeometric(Geometric) return what the double
// forms return and leave the stream where they leave it; the
// geometric is also checked against its formula.
TEST(Rng, PrecomputedDrawsMatchDoubleForms)
{
    for (const double p : {0.0, 1.0, 0.5, 1.0 / 3.0, 1e-9}) {
        const Rng::Odds odds = Rng::odds(p);
        const Rng::Geometric geometric = Rng::geometric(p);
        Rng want(29), got(29);
        for (int i = 0; i < 10'000; ++i) {
            ASSERT_EQ(got.chance(odds), want.chance(p)) << p;
            ASSERT_EQ(got.next64(), want.next64()) << p;

            Rng before = got;
            const uint64_t value = got.nextGeometric(geometric);
            ASSERT_EQ(value, want.nextGeometric(p)) << p;
            if (p > 0.0 && p < 1.0) {
                ASSERT_EQ(value, static_cast<uint64_t>(
                                     std::log1p(-before.nextDouble()) /
                                     std::log1p(-p)))
                    << p;
            } else {
                ASSERT_EQ(value, 0u) << p;
            }
            ASSERT_EQ(got.next64(), want.next64()) << p;
        }
    }
}

// nextGeometric saturates where log1p(-u) / log1p(-p) reaches 2^64 (a
// conversion that would be undefined), and treats NaN like p <= 0.
TEST(Rng, GeometricSaturatesAndRejectsNaN)
{
    for (const double p : {1e-20, 1e-300}) {
        const Rng::Geometric geometric = Rng::geometric(p);
        ASSERT_TRUE(geometric.draws) << p;
        Rng rng(31), by_value(31);
        int saturated = 0;
        for (int i = 0; i < 1000; ++i) {
            Rng before = rng;
            const uint64_t value = rng.nextGeometric(geometric);
            ASSERT_EQ(by_value.nextGeometric(p), value) << p;
            const double failures =
                std::log1p(-before.nextDouble()) / std::log1p(-p);
            if (failures >= 0x1.0p64) {
                ASSERT_EQ(value, UINT64_MAX) << p;
                ++saturated;
            } else {
                ASSERT_EQ(value, static_cast<uint64_t>(failures)) << p;
            }
            const uint64_t after = rng.next64();
            ASSERT_EQ(before.next64(), after) << "one draw";
            ASSERT_EQ(by_value.next64(), after) << p;
        }
        EXPECT_GT(saturated, 500) << p;
    }

    const double nan = std::numeric_limits<double>::quiet_NaN();
    EXPECT_FALSE(Rng::geometric(nan).draws);
    Rng rng(37), untouched(37);
    EXPECT_EQ(rng.nextGeometric(nan), 0u);
    EXPECT_EQ(rng.nextGeometric(Rng::geometric(nan)), 0u);
    EXPECT_EQ(rng.next64(), untouched.next64()) << "NaN draws nothing";
}

/** The double-CDF Zipf search that Rng::Zipf replaces. */
struct DoubleZipf
{
    std::vector<double> cdf;
    std::vector<uint64_t> bucket_lo;

    DoubleZipf(uint64_t n, double s) : cdf(n), bucket_lo(4097)
    {
        double sum = 0.0;
        for (uint64_t i = 0; i < n; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
            cdf[i] = sum;
        }
        for (auto &v : cdf)
            v /= sum;
        uint64_t lo = 0;
        for (uint64_t b = 0; b <= 4096; ++b) {
            const double threshold = static_cast<double>(b) / 4096;
            while (lo < n && cdf[lo] < threshold)
                ++lo;
            bucket_lo[b] = lo;
        }
    }

    uint64_t
    rank(double u) const
    {
        const uint64_t n = cdf.size();
        const auto b = static_cast<uint64_t>(u * 4096.0);
        const auto first = cdf.begin() + bucket_lo[b];
        const auto last =
            cdf.begin() + std::min<uint64_t>(bucket_lo[b + 1] + 1, n);
        const auto it = std::lower_bound(first, last, u);
        if (it == cdf.end())
            return n - 1;
        return static_cast<uint64_t>(it - cdf.begin());
    }
};

// The integer table returns the double search's rank at both sides of
// every table entry (sampled above 4097 ranks) and at both ends of the
// draw range, and a seeded stream of draws consumes one next64() each.
TEST(Rng, ZipfTableMatchesDoubleSearch)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const std::pair<uint64_t, double> cases[] = {
        {1, 1.0},     {2, 0.5},      {1000, 1.0}, {2720, 0.45},
        {4097, 1.4},  {45056, 1.4},  {3000, 0.0}, {100, nan}};
    for (const auto &[n, s] : cases) {
        const Rng::Zipf zipf = Rng::zipf(n, s);
        const DoubleZipf reference(n, s);
        ASSERT_EQ(zipf.cdf.size(), n);
        ASSERT_EQ(zipf.bucket_lo, reference.bucket_lo) << n << " " << s;

        const auto check = [&](uint64_t k) {
            if (k >= Rng::kDrawSpan)
                return;
            ASSERT_EQ(zipf.rank(k),
                      reference.rank(static_cast<double>(k) * 0x1.0p-53))
                << "n " << n << ", s " << s << ", draw " << k;
        };
        check(0);
        check(Rng::kDrawSpan - 1);
        Rng pick(n);
        const uint64_t probes = n <= 4097 ? n : 10'000;
        for (uint64_t j = 0; j < probes; ++j) {
            const uint64_t i = n <= 4097 ? j : pick.nextRange(n);
            const uint64_t entry = zipf.cdf[i];
            if (entry > 0)
                check(entry - 1);
            check(entry);
            check(entry + 1);
        }

        Rng got(n ^ 0x21F), want(n ^ 0x21F);
        for (int i = 0; i < 100'000; ++i) {
            ASSERT_EQ(got.nextZipf(zipf), reference.rank(want.nextDouble()))
                << "n " << n << ", s " << s << ", draw " << i;
            ASSERT_EQ(got.next64(), want.next64()) << "one draw per rank";
        }
    }
}

TEST(Rng, FillBytesCoversAllPositions)
{
    Rng rng(19);
    uint8_t buf[37] = {};
    rng.fillBytes(buf, sizeof(buf));
    int nonzero = 0;
    for (uint8_t b : buf)
        nonzero += (b != 0);
    EXPECT_GT(nonzero, 25) << "essentially all bytes should be random";
}

// ------------------------------------------------------------------ stats

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c += 41;
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Stats, AccumulatorMoments)
{
    Accumulator a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(1.0);
    a.sample(2.0);
    a.sample(6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.minValue(), 1.0);
    EXPECT_DOUBLE_EQ(a.maxValue(), 6.0);
}

TEST(Stats, HistogramBucketsAndOverflow)
{
    Histogram h(10.0, 5);
    h.sample(0.0);
    h.sample(9.99);
    h.sample(10.0);
    h.sample(49.0);
    h.sample(50.0);   // overflow
    h.sample(1234.0); // overflow
    // Past any size_t bucket index: overflow, never a wrapped bucket.
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(std::numeric_limits<double>::infinity());
    h.sample(1e300);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.overflow(), 5u);
    EXPECT_EQ(h.totalSamples(), 9u);
}

TEST(Stats, HistogramMergeMatchesUnshardedFeed)
{
    // Split one sample stream across shards; the merged histogram
    // must be indistinguishable from feeding one histogram directly
    // (the sharded-fleet invariant).
    Histogram whole(10.0, 8);
    Histogram shard_a(10.0, 8), shard_b(10.0, 8);
    const double samples[] = {0.0, 5.0, 15.0, 33.3, 79.9,
                              80.0, 500.0, 42.0};
    for (size_t i = 0; i < 8; ++i) {
        whole.sample(samples[i]);
        (i % 2 == 0 ? shard_a : shard_b).sample(samples[i]);
    }
    shard_a.merge(shard_b);
    EXPECT_EQ(shard_a.totalSamples(), whole.totalSamples());
    EXPECT_EQ(shard_a.overflow(), whole.overflow());
    for (size_t i = 0; i < whole.bucketCount(); ++i)
        EXPECT_EQ(shard_a.bucket(i), whole.bucket(i));
    EXPECT_DOUBLE_EQ(shard_a.mean(), whole.mean());
    for (const double p : {0.0, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(shard_a.percentile(p),
                         whole.percentile(p));
}

TEST(Stats, HistogramMergeWithEmptyIsIdentity)
{
    Histogram h(1.0, 4), empty(1.0, 4);
    h.sample(2.5);
    h.merge(empty);
    EXPECT_EQ(h.totalSamples(), 1u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.5);
    empty.merge(h);
    EXPECT_EQ(empty.totalSamples(), 1u);
    EXPECT_EQ(empty.bucket(2), 1u);
}

TEST(Stats, HistogramMergeRejectsMismatchedGeometry)
{
    Histogram h(10.0, 5);
    Histogram wrong_width(5.0, 5);
    Histogram wrong_count(10.0, 6);
    EXPECT_DEATH_IF_SUPPORTED(h.merge(wrong_width), "geometry");
    EXPECT_DEATH_IF_SUPPORTED(h.merge(wrong_count), "geometry");
}

// ---------------------------------------------------------------- strutil

TEST(StrUtil, FormatDouble)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(16.756, 1), "16.8");
}

TEST(StrUtil, FormatPercent)
{
    EXPECT_EQ(formatPercent(0.1676, 2), "16.76%");
    EXPECT_EQ(formatPercent(0.0128, 2), "1.28%");
}

TEST(StrUtil, FormatBytes)
{
    EXPECT_EQ(formatBytes(64 * 1024), "64KB");
    EXPECT_EQ(formatBytes(4ull * 1024 * 1024), "4MB");
    EXPECT_EQ(formatBytes(193), "193B");
    EXPECT_EQ(formatBytes(1536), "1536B") << "non-multiples stay exact";
}

TEST(StrUtil, HexRoundTrip)
{
    const std::vector<uint8_t> bytes = {0x01, 0x23, 0xAB, 0xFF, 0x00};
    const std::string hex = toHex(bytes.data(), bytes.size());
    EXPECT_EQ(hex, "0123abff00");
    EXPECT_EQ(fromHex(hex), bytes);
}

TEST(StrUtil, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

// ------------------------------------------------------------------ table

TEST(Table, RendersAlignedColumns)
{
    Table t({"bench", "paper", "measured"});
    t.addRow({"ammp", "23.02", "21.80"});
    t.addRow({"mcf", "34.76", "33.10"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("bench"), std::string::npos);
    EXPECT_NE(out.find("ammp"), std::string::npos);
    EXPECT_NE(out.find("34.76"), std::string::npos);
    // Header separator row present.
    EXPECT_NE(out.find("|---"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}


// --------------------------------------------------------------- flat_map

TEST(FlatMap, BasicInsertFindErase)
{
    FlatMap<uint32_t> map;
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(0x1000), nullptr);

    map[0x1000] = 7;
    map.insert(0x2000, 9);
    EXPECT_EQ(map.size(), 2u);
    ASSERT_NE(map.find(0x1000), nullptr);
    EXPECT_EQ(*map.find(0x1000), 7u);
    EXPECT_EQ(*map.find(0x2000), 9u);
    EXPECT_TRUE(map.contains(0x2000));
    EXPECT_FALSE(map.contains(0x3000));

    map.insert(0x1000, 11); // overwrite
    EXPECT_EQ(*map.find(0x1000), 11u);
    EXPECT_EQ(map.size(), 2u);

    EXPECT_TRUE(map.erase(0x1000));
    EXPECT_FALSE(map.erase(0x1000));
    EXPECT_EQ(map.find(0x1000), nullptr);
    EXPECT_EQ(map.size(), 1u);

    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_EQ(map.find(0x2000), nullptr);
}

TEST(FlatMap, ZeroKeyAndDefaultConstruction)
{
    // Key 0 is a legitimate line address; operator[] must
    // default-construct on first touch like std::unordered_map.
    FlatMap<uint64_t> map;
    EXPECT_EQ(map[0], 0u);
    map[0] = 42;
    ASSERT_NE(map.find(0), nullptr);
    EXPECT_EQ(*map.find(0), 42u);
    EXPECT_TRUE(map.erase(0));
    EXPECT_EQ(map.find(0), nullptr);
}

TEST(FlatMap, DifferentialChurnAgainstStdUnorderedMap)
{
    // The simulator's tables see heavy insert/erase churn on
    // line-aligned keys. Drive both maps with the same random
    // operation stream and require identical observable behaviour,
    // which exercises growth, collisions, and backward-shift
    // deletion together.
    FlatMap<uint32_t> flat;
    std::unordered_map<uint64_t, uint32_t> ref;
    Rng rng(0xf1a7);

    for (int op = 0; op < 200'000; ++op) {
        // Line-aligned keys from a small space force probe chains.
        const uint64_t key = rng.nextRange(512) * 64;
        switch (rng.nextRange(4)) {
        case 0:
        case 1: {
            const uint32_t value = static_cast<uint32_t>(rng.next64());
            flat.insert(key, value);
            ref[key] = value;
            break;
        }
        case 2: {
            EXPECT_EQ(flat.erase(key), ref.erase(key) == 1);
            break;
        }
        case 3: {
            const uint32_t *it = flat.find(key);
            const auto ref_it = ref.find(key);
            if (ref_it == ref.end()) {
                EXPECT_EQ(it, nullptr) << "key " << key;
            } else {
                ASSERT_NE(it, nullptr) << "key " << key;
                EXPECT_EQ(*it, ref_it->second);
            }
            break;
        }
        }
        EXPECT_EQ(flat.size(), ref.size());
    }

    // Final sweep: every surviving key must agree.
    for (const auto &[key, value] : ref) {
        ASSERT_NE(flat.find(key), nullptr);
        EXPECT_EQ(*flat.find(key), value);
    }
}

TEST(FlatMap, ReserveAvoidsGrowthAndKeepsEntries)
{
    FlatMap<uint32_t> map;
    map.reserve(10'000);
    for (uint64_t i = 0; i < 10'000; ++i)
        map[i * 64] = static_cast<uint32_t>(i);
    EXPECT_EQ(map.size(), 10'000u);
    for (uint64_t i = 0; i < 10'000; ++i) {
        ASSERT_NE(map.find(i * 64), nullptr);
        EXPECT_EQ(*map.find(i * 64), static_cast<uint32_t>(i));
    }
}

TEST(FlatMap, NonTrivialValueType)
{
    // SequenceNumberCache stores std::vector slot tables.
    FlatMap<std::vector<uint32_t>> map;
    map.insert(0x40, std::vector<uint32_t>(4, 5));
    auto &slots = map[0x40];
    ASSERT_EQ(slots.size(), 4u);
    slots[2] = 99;
    EXPECT_EQ((*map.find(0x40))[2], 99u);
    EXPECT_TRUE(map.erase(0x40));
    EXPECT_EQ(map.find(0x40), nullptr);
}

} // namespace
