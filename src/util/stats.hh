/**
 * @file
 * Lightweight statistics primitives used by every simulation component.
 *
 * Components own these by value and bind them by name into an
 * obs::MetricsRegistry from their registerMetrics(); the registry is
 * the one place dumps, measurement windows and JSON read them from.
 */

#ifndef SECPROC_UTIL_STATS_HH
#define SECPROC_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace secproc::util
{

/** A named monotonically increasing counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++value_; return *this; }
    Counter &operator+=(uint64_t n) { value_ += n; return *this; }

    uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    uint64_t value_ = 0;
};

/** Accumulates samples; reports count / sum / mean / min / max. */
class Accumulator
{
  public:
    void sample(double v);

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double minValue() const { return min_; }
    double maxValue() const { return max_; }
    void reset();

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Fixed-bucket histogram over [0, bucket width * bucketCount). */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket (must be > 0).
     * @param bucket_count Number of regular buckets; values past the
     *        end accumulate in an overflow bucket.
     */
    Histogram(double bucket_width, size_t bucket_count);

    void sample(double v);

    uint64_t bucket(size_t i) const { return buckets_.at(i); }
    uint64_t overflow() const { return overflow_; }
    uint64_t totalSamples() const { return total_; }
    size_t bucketCount() const { return buckets_.size(); }
    double mean() const;

    /**
     * Upper edge of the bucket holding the @p p-quantile sample
     * (p in [0, 1]); samples in the overflow bucket report the
     * histogram's upper bound. 0 when the histogram is empty.
     */
    double percentile(double p) const;

    /**
     * Fold @p other's samples into this histogram. Both must share
     * the same geometry (bucket width and count) — fatal() otherwise,
     * because mixing geometries would silently misbucket. The merge
     * is exact: percentiles over the merged histogram equal the
     * percentiles of one histogram fed every sample, independent of
     * how samples were split across shards (the sharded-fleet use).
     */
    void merge(const Histogram &other);

    void reset();

  private:
    double bucket_width_;
    std::vector<uint64_t> buckets_;
    uint64_t overflow_ = 0;
    uint64_t total_ = 0;
    double sum_ = 0.0;
};

} // namespace secproc::util

#endif // SECPROC_UTIL_STATS_HH
