/**
 * @file
 * xoshiro256** implementation and derived distributions.
 */

#include "util/random.hh"

#include <algorithm>
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

void
Rng::rebuildZipf(uint64_t n, double s)
{
    zipf_n_ = n;
    zipf_s_ = s;
    zipf_cdf_.resize(n);
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
        zipf_cdf_[i] = sum;
    }
    for (auto &v : zipf_cdf_)
        v /= sum;

    // Bucket index over the CDF: bucket b covers u in
    // [b/K, (b+1)/K) and zipf_bucket_lo_[b] is the first CDF entry
    // >= b/K, so a draw only binary-searches the few entries its
    // bucket spans. Pure accelerator — the selected index is the
    // same lower_bound result as scanning the whole CDF.
    zipf_bucket_lo_.resize(kZipfBuckets + 1);
    uint64_t lo = 0;
    for (uint64_t b = 0; b <= kZipfBuckets; ++b) {
        const double threshold =
            static_cast<double>(b) / kZipfBuckets;
        while (lo < n && zipf_cdf_[lo] < threshold)
            ++lo;
        zipf_bucket_lo_[b] = lo;
    }
}

uint64_t
Rng::nextZipf(uint64_t n, double s)
{
    panic_if(n == 0, "nextZipf needs a non-empty universe");
    if (n != zipf_n_ || s != zipf_s_)
        rebuildZipf(n, s);
    const double u = nextDouble();
    // u in [b/K, (b+1)/K): the answer lies in
    // [bucket_lo[b], bucket_lo[b+1]] because cdf[bucket_lo[b+1]] >=
    // (b+1)/K > u. nextDouble() < 1.0, so b < kZipfBuckets.
    const uint64_t b =
        static_cast<uint64_t>(u * static_cast<double>(kZipfBuckets));
    const auto first = zipf_cdf_.begin() + zipf_bucket_lo_[b];
    const auto last = zipf_cdf_.begin() +
                      std::min<uint64_t>(zipf_bucket_lo_[b + 1] + 1, n);
    const auto it = std::lower_bound(first, last, u);
    if (it == zipf_cdf_.end())
        return n - 1;
    return static_cast<uint64_t>(it - zipf_cdf_.begin());
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
