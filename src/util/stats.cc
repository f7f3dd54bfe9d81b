/**
 * @file
 * Statistics primitive implementations.
 */

#include "util/stats.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secproc::util
{

void
Accumulator::sample(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    ++count_;
    sum_ += v;
}

double
Accumulator::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

void
Accumulator::reset()
{
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
}

Histogram::Histogram(double bucket_width, size_t bucket_count)
    : bucket_width_(bucket_width), buckets_(bucket_count, 0)
{
    fatal_if(bucket_width <= 0.0, "histogram bucket width must be > 0");
    fatal_if(bucket_count == 0, "histogram needs at least one bucket");
}

void
Histogram::sample(double v)
{
    ++total_;
    sum_ += v;
    // Decide overflow in double, then convert: converting NaN,
    // infinity or a quotient of 2^64 or more to size_t is undefined.
    // Negative samples, NaN and +inf all overflow.
    const double idx = v / bucket_width_;
    if (!(v >= 0.0 && idx < static_cast<double>(buckets_.size()))) {
        ++overflow_;
        return;
    }
    ++buckets_[static_cast<size_t>(idx)];
}

double
Histogram::mean() const
{
    return total_ == 0 ? 0.0 : sum_ / static_cast<double>(total_);
}

double
Histogram::percentile(double p) const
{
    fatal_if(p < 0.0 || p > 1.0, "percentile wants p in [0, 1], got ",
             p);
    if (total_ == 0)
        return 0.0;
    // Rank of the p-quantile sample, 1-based; p == 0 maps to the
    // first sample so the result is always a populated bucket edge.
    const uint64_t rank = std::max<uint64_t>(
        1, static_cast<uint64_t>(p * static_cast<double>(total_)));
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            return bucket_width_ * static_cast<double>(i + 1);
    }
    // The quantile landed in the overflow bucket (out-of-range
    // samples); report the histogram's covered upper bound.
    return bucket_width_ * static_cast<double>(buckets_.size());
}

void
Histogram::merge(const Histogram &other)
{
    fatal_if(bucket_width_ != other.bucket_width_ ||
                 buckets_.size() != other.buckets_.size(),
             "histogram merge needs matching geometry: ",
             bucket_width_, "x", buckets_.size(), " vs ",
             other.bucket_width_, "x", other.buckets_.size());
    for (size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets_[i];
    overflow_ += other.overflow_;
    total_ += other.total_;
    sum_ += other.sum_;
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    overflow_ = 0;
    total_ = 0;
    sum_ = 0.0;
}

} // namespace secproc::util
