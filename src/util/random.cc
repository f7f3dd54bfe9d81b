/**
 * @file
 * xoshiro256** implementation and derived distributions.
 */

#include "util/random.hh"

#include <bit>
#include <cmath>

#include "util/logging.hh"

namespace secproc::util
{

namespace
{

/** splitmix64, used only to expand the user seed into generator state. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &word : s_)
        word = splitmix64(x);
    // All-zero state would be absorbing; splitmix64 cannot produce it
    // from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0)
        s_[0] = 1;
}

Rng::Zipf
Rng::zipf(uint64_t n, double s)
{
    panic_if(n == 0, "a Zipf table needs a non-empty universe");
    std::vector<double> cdf(n);
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        cdf[i] = sum;
    }
    for (auto &v : cdf)
        v /= sum;

    // Bucket b covers draws in [b/K, (b+1)/K); a draw there lands in
    // [bucket_lo[b], bucket_lo[b+1]] because cdf[bucket_lo[b+1]] >=
    // (b+1)/K.
    Zipf table;
    table.bucket_lo.resize(kZipfBuckets + 1);
    uint64_t lo = 0;
    for (uint64_t b = 0; b <= kZipfBuckets; ++b) {
        const double threshold =
            static_cast<double>(b) / kZipfBuckets;
        while (lo < n && cdf[lo] < threshold)
            ++lo;
        table.bucket_lo[b] = lo;
    }

    // Every entry is in [0, 1] or NaN; only [0, 1) reaches the
    // conversion.
    table.cdf.resize(n);
    for (uint64_t i = 0; i < n; ++i) {
        const double scaled = cdf[i] * 0x1.0p53;
        table.cdf[i] = scaled < 0x1.0p53
                           ? static_cast<uint64_t>(std::floor(scaled))
                           : kDrawSpan;
    }
    return table;
}

uint64_t
Rng::nextGeometric(double p)
{
    return nextGeometric(geometric(p));
}

void
Rng::fillBytes(uint8_t *out, size_t len)
{
    size_t i = 0;
    while (i + 8 <= len) {
        const uint64_t v = next64();
        for (int b = 0; b < 8; ++b)
            out[i++] = static_cast<uint8_t>(v >> (8 * b));
    }
    if (i < len) {
        uint64_t v = next64();
        while (i < len) {
            out[i++] = static_cast<uint8_t>(v);
            v >>= 8;
        }
    }
}

} // namespace secproc::util
