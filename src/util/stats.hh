/**
 * @file
 * Lightweight statistics primitives used by every simulation component.
 *
 * The design mirrors gem5's Stats package at a much smaller scale:
 * named counters register themselves with a StatGroup so components
 * can be dumped uniformly at the end of a run.
 */

#ifndef SECPROC_UTIL_STATS_HH
#define SECPROC_UTIL_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
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

/** Fixed-bucket histogram over [0, bucketWidth * bucketCount). */
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
    double bucketWidth() const { return bucket_width_; }
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

/**
 * A registry of named statistics owned by one component.
 *
 * Components hold their Counters by value and register pointers here;
 * the group never owns the statistics, it only knows how to print
 * them. Lifetime: the group must not outlive its registrants, which
 * holds because both live in the owning component.
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    void regCounter(const std::string &stat_name, const Counter *c);

    /** Dump "group.stat value" lines, sorted by name. */
    void dump(std::ostream &os) const;

    const std::string &name() const { return name_; }

    /** Registered counters, for registry bridges. */
    const std::map<std::string, const Counter *> &counters() const
    {
        return counters_;
    }

  private:
    std::string name_;
    std::map<std::string, const Counter *> counters_;
};

} // namespace secproc::util

#endif // SECPROC_UTIL_STATS_HH
