/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * All simulator randomness flows through Rng so that every experiment
 * is exactly reproducible from its seed. The generator is
 * xoshiro256** (Blackman & Vigna), which is fast and passes BigCrush;
 * it is NOT cryptographic and is never used for key material — key
 * material in examples comes from Rng only because the threat model
 * there is simulated.
 */

#ifndef SECPROC_UTIL_RANDOM_HH
#define SECPROC_UTIL_RANDOM_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace secproc::util
{

/**
 * Deterministic xoshiro256** generator with convenience distributions.
 */
class Rng
{
  public:
    /** Number of distinct 53-bit draws (next53()). */
    static constexpr uint64_t kDrawSpan = uint64_t{1} << 53;

    /** Seed the generator; identical seeds give identical streams. */
    explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ull);

    /**
     * @return next raw 64-bit value.
     *
     * The per-draw primitives are defined inline: the synthetic
     * workload draws several values per generated instruction, so
     * these sit directly on the simulator's hottest path.
     */
    uint64_t
    next64()
    {
        const uint64_t result = rotl64(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl64(s_[3], 45);

        return result;
    }

    /** @return uniform value in [0, bound); bound must be non-zero. */
    uint64_t
    nextRange(uint64_t bound)
    {
        // Lemire's multiply-shift; bias is negligible for simulator
        // bounds (all far below 2^32).
        return static_cast<uint64_t>(
            (static_cast<__uint128_t>(next64()) * bound) >> 64);
    }

    /** @return the 53-bit draw k in [0, kDrawSpan) that
     *  nextDouble() scales to k * 2^-53. */
    uint64_t next53() { return next64() >> 11; }

    /** @return uniform double in [0, 1). */
    double
    nextDouble()
    {
        return static_cast<double>(next53()) * 0x1.0p-53;
    }

    /** @return true with probability @p p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * ceil(p * 2^53), clamped to [0, kDrawSpan] (NaN gives 0). For
     * every p, nextDouble() < p holds exactly when
     * next53() < threshold(p): k * 2^-53 and p * 2^53 are exact, and
     * k is an integer. Without -march flags std::ceil is a library
     * call, so build thresholds once per distribution, never per
     * draw.
     */
    static uint64_t
    threshold(double p)
    {
        if (!(p > 0.0))
            return 0;
        if (p >= 1.0)
            return kDrawSpan;
        return static_cast<uint64_t>(std::ceil(p * 0x1.0p53));
    }

    /** A chance(p) draw with its threshold precomputed. */
    struct Odds
    {
        uint64_t threshold = 0; ///< Rng::threshold(p)
        bool draws = false;     ///< chance(p) consumes a draw
    };

    /** chance(p)'s constants: no draw for p <= 0 or p >= 1. */
    static Odds
    odds(double p)
    {
        return Odds{threshold(p), !(p <= 0.0 || p >= 1.0)};
    }

    /** chance(p) for the p @p o was built from: same result, same
     *  draws consumed. */
    bool
    chance(const Odds &o)
    {
        if (!o.draws)
            return o.threshold != 0;
        return next53() < o.threshold;
    }

    /**
     * An inverted-CDF table for Zipf-distributed ranks in [0, n) with
     * exponent s; rank 0 is the most popular. Built once by zipf(),
     * drawn by nextZipf(const Zipf &), which consumes exactly one
     * next64() per call.
     *
     * Exactness: zipf() sums the weights 1/(i+1)^s in double, in
     * rank order, and divides by the total, which gives a CDF c[i] in
     * [0, 1] or NaN (s = NaN, or weights that overflow). It stores
     * cdf[i] = floor(c[i] * 2^53), and kDrawSpan for NaN. For every
     * 53-bit draw k, c[i] < k * 2^-53 holds exactly when cdf[i] < k
     * (c[i] * 2^53 is exact and k is an integer), so a draw returns
     * the rank that std::lower_bound of nextDouble() over the double
     * CDF returns, NaN entries included (they never compare below a
     * draw). The bucket index makes each draw search only the entries
     * its bucket spans; it changes no result.
     */
    struct Zipf
    {
        /** First rank whose CDF is >= b / 4096, for each bucket b
         *  in [0, 4096] (a draw's bucket is its top 12 bits). */
        std::vector<uint64_t> bucket_lo;
        std::vector<uint64_t> cdf; ///< floor(c[i] * 2^53); see above

        /** The rank for the 53-bit draw @p k (k < kDrawSpan). */
        uint64_t
        rank(uint64_t k) const
        {
            // k * 2^-53 lies in bucket floor(k * 2^-41) = k >> 41,
            // and below the CDF entry that bucket_lo[b + 1] names.
            const uint64_t b = k >> kZipfBucketShift;
            const uint64_t n = cdf.size();
            const auto first = cdf.begin() + bucket_lo[b];
            const auto last =
                cdf.begin() + std::min<uint64_t>(bucket_lo[b + 1] + 1, n);
            const auto it = std::lower_bound(first, last, k);
            if (it == cdf.end())
                return n - 1;
            return static_cast<uint64_t>(it - cdf.begin());
        }
    };

    /** Build the Zipf table for ranks [0, @p n), exponent @p s
     *  (O(n) pow calls: build it once per distribution). */
    static Zipf zipf(uint64_t n, double s);

    /** Zipf-distributed rank from table @p z: one draw. */
    uint64_t nextZipf(const Zipf &z) { return z.rank(next53()); }

    /**
     * Geometric: number of failures before first success, prob p.
     * No draw and 0 for p <= 0, p >= 1 and NaN; a value of 2^64 or
     * more (p below about 1e-18) saturates to UINT64_MAX.
     */
    uint64_t nextGeometric(double p);

    /** A nextGeometric(p) draw with log1p(-p) precomputed. */
    struct Geometric
    {
        double log1m_p = 0.0; ///< log1p(-p)
        bool draws = false;   ///< nextGeometric(p) consumes a draw
    };

    /** nextGeometric(p)'s constants: no draw unless 0 < p < 1. */
    static Geometric
    geometric(double p)
    {
        if (!(p > 0.0 && p < 1.0))
            return Geometric{};
        return Geometric{std::log1p(-p), true};
    }

    /** nextGeometric(p) for the p @p g was built from: same value,
     *  same draws consumed. */
    uint64_t
    nextGeometric(const Geometric &g)
    {
        if (!g.draws)
            return 0;
        const double u = nextDouble();
        // log1p(-u) / log1p(-p) is >= 0, and unbounded as p -> 0;
        // converting 2^64 or more to uint64_t would be undefined.
        const double failures = std::log1p(-u) / g.log1m_p;
        if (!(failures < 0x1.0p64))
            return UINT64_MAX;
        return static_cast<uint64_t>(failures);
    }

    /** Fill @p out with @p len pseudo-random bytes. */
    void fillBytes(uint8_t *out, size_t len);

  private:
    /** A Zipf table's buckets, and the shift from a 53-bit draw to
     *  its bucket. */
    static constexpr uint64_t kZipfBuckets = 4096;
    static constexpr int kZipfBucketShift = 41;
    static_assert(kDrawSpan >> kZipfBucketShift == kZipfBuckets);

    static uint64_t
    rotl64(uint64_t value, int amount)
    {
        return (value << amount) | (value >> (64 - amount));
    }

    uint64_t s_[4];
};

// The generator is its four state words; distribution tables live
// with their owners.
static_assert(std::is_trivially_copyable_v<Rng>);
static_assert(sizeof(Rng) == 4 * sizeof(uint64_t));

} // namespace secproc::util

#endif // SECPROC_UTIL_RANDOM_HH
