/**
 * @file
 * Unified metrics plane.
 *
 * Components own util/stats primitives (Counter, Accumulator,
 * Histogram) or expose accessor functions, and their
 * registerMetrics() binds them into a MetricsRegistry under
 * hierarchical dotted names ("l2.hits", "channel.agent.core.bytes",
 * "crypto.reserved_operations", "install.stage_write_cycles") so
 * stats rendering, measurement windows and machine-readable dumps
 * all read from one source instead of each report hand-aggregating
 * its components.
 *
 * Reading is done through snapshots: a MetricsSnapshot freezes every
 * registered metric's value; snapshot.delta(base) subtracts
 * counter-kind metrics (a measurement window) while gauge-kind
 * metrics keep their current value. Snapshots serialize to
 * util::Json and to sorted "name value" text lines.
 *
 * The registry never owns a statistic — registrants must outlive it
 * (they do: both live in the owning component or System).
 */

#ifndef SECPROC_OBS_METRICS_HH
#define SECPROC_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "util/json.hh"
#include "util/stats.hh"

namespace secproc::obs
{

/** How a metric behaves across a measurement window. */
enum class MetricKind
{
    /** Monotonic count; delta() subtracts the base value. */
    Counter,
    /** Point-in-time value; delta() keeps the current value. */
    Gauge,
};

class MetricsSnapshot;

/**
 * Binds named metrics to their live sources. Names must be unique;
 * registering a duplicate is fatal (it would silently shadow).
 */
class MetricsRegistry
{
  public:
    /** Bind a live counter (counter kind). */
    void counter(const std::string &name, const util::Counter *c);

    /** Bind a counter-kind accessor function. */
    void counterFn(const std::string &name,
                   std::function<uint64_t()> fn);

    /** Bind a gauge-kind accessor function. */
    void gaugeFn(const std::string &name, std::function<double()> fn);

    /**
     * Bind an accumulator as "<name>.count" (counter) and
     * "<name>.mean" (gauge).
     */
    void accumulator(const std::string &name,
                     const util::Accumulator *a);

    /**
     * Bind a histogram as "<name>.samples" (counter) plus ".mean",
     * ".p50", ".p90" and ".p99" gauges.
     */
    void histogram(const std::string &name, const util::Histogram *h);

    /** Metrics registered so far (accumulators/histograms expand). */
    size_t size() const { return metrics_.size(); }

    /** Freeze every metric's current value. */
    MetricsSnapshot snapshot() const;

  private:
    struct Metric
    {
        std::string name;
        MetricKind kind;
        std::function<double()> read;
    };

    std::vector<Metric> metrics_;
    std::set<std::string> names_;

    void add(std::string name, MetricKind kind,
             std::function<double()> read);
};

/**
 * An immutable, name-sorted view of every metric at one instant.
 */
class MetricsSnapshot
{
  public:
    struct Entry
    {
        std::string name;
        MetricKind kind;
        double value;
    };

    MetricsSnapshot() = default;
    explicit MetricsSnapshot(std::vector<Entry> entries);

    /** Entries sorted by name. */
    const std::vector<Entry> &entries() const { return entries_; }

    /** @return the entry named @p name, or nullptr. */
    const Entry *find(const std::string &name) const;

    /** Value of @p name; fatal() when absent. */
    double value(const std::string &name) const;

    /**
     * value() as an exact uint64_t — every counter the simulator
     * produces stays below 2^53, where doubles are exact.
     */
    uint64_t u64(const std::string &name) const;

    /**
     * Measurement window: counters report this snapshot minus
     * @p base (metrics absent from @p base subtract zero), gauges
     * report this snapshot's value unchanged.
     */
    MetricsSnapshot delta(const MetricsSnapshot &base) const;

    /** One flat JSON object: name -> value, in name order. */
    util::Json toJson() const;

    /** Sorted "name value" lines (the dumpStats text format). */
    void dump(std::ostream &os) const;

  private:
    std::vector<Entry> entries_;
};

} // namespace secproc::obs

#endif // SECPROC_OBS_METRICS_HH
