/**
 * @file
 * MetricsRegistry / MetricsSnapshot implementation.
 */

#include "obs/metrics.hh"

#include <algorithm>
#include <iomanip>

#include "util/logging.hh"

namespace secproc::obs
{

void
MetricsRegistry::add(std::string name, MetricKind kind,
                     std::function<double()> read)
{
    fatal_if(name.empty(), "metrics need a name");
    fatal_if(!names_.insert(name).second,
             "metric '", name, "' registered twice");
    metrics_.push_back(Metric{std::move(name), kind, std::move(read)});
}

void
MetricsRegistry::counter(const std::string &name,
                         const util::Counter *c)
{
    panic_if(c == nullptr, "null counter registered as ", name);
    add(name, MetricKind::Counter,
        [c] { return static_cast<double>(c->value()); });
}

void
MetricsRegistry::counterFn(const std::string &name,
                           std::function<uint64_t()> fn)
{
    panic_if(!fn, "metric '", name, "' registered without a reader");
    add(name, MetricKind::Counter,
        [fn = std::move(fn)] { return static_cast<double>(fn()); });
}

void
MetricsRegistry::gaugeFn(const std::string &name,
                         std::function<double()> fn)
{
    panic_if(!fn, "metric '", name, "' registered without a reader");
    add(name, MetricKind::Gauge, std::move(fn));
}

void
MetricsRegistry::accumulator(const std::string &name,
                             const util::Accumulator *a)
{
    panic_if(a == nullptr, "null accumulator registered as ", name);
    add(name + ".count", MetricKind::Counter,
        [a] { return static_cast<double>(a->count()); });
    add(name + ".mean", MetricKind::Gauge, [a] { return a->mean(); });
}

void
MetricsRegistry::histogram(const std::string &name,
                           const util::Histogram *h)
{
    panic_if(h == nullptr, "null histogram registered as ", name);
    add(name + ".samples", MetricKind::Counter,
        [h] { return static_cast<double>(h->totalSamples()); });
    add(name + ".mean", MetricKind::Gauge, [h] { return h->mean(); });
    add(name + ".p50", MetricKind::Gauge,
        [h] { return h->percentile(0.50); });
    add(name + ".p90", MetricKind::Gauge,
        [h] { return h->percentile(0.90); });
    add(name + ".p99", MetricKind::Gauge,
        [h] { return h->percentile(0.99); });
}

MetricsSnapshot
MetricsRegistry::snapshot() const
{
    std::vector<MetricsSnapshot::Entry> entries;
    entries.reserve(metrics_.size());
    for (const Metric &metric : metrics_)
        entries.push_back({metric.name, metric.kind, metric.read()});
    return MetricsSnapshot(std::move(entries));
}

MetricsSnapshot::MetricsSnapshot(std::vector<Entry> entries)
    : entries_(std::move(entries))
{
    std::sort(entries_.begin(), entries_.end(),
              [](const Entry &a, const Entry &b) {
                  return a.name < b.name;
              });
}

const MetricsSnapshot::Entry *
MetricsSnapshot::find(const std::string &name) const
{
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), name,
        [](const Entry &e, const std::string &n) { return e.name < n; });
    if (it == entries_.end() || it->name != name)
        return nullptr;
    return &*it;
}

double
MetricsSnapshot::value(const std::string &name) const
{
    const Entry *entry = find(name);
    fatal_if(entry == nullptr, "no metric named '", name,
             "' in this snapshot");
    return entry->value;
}

uint64_t
MetricsSnapshot::u64(const std::string &name) const
{
    return static_cast<uint64_t>(value(name));
}

MetricsSnapshot
MetricsSnapshot::delta(const MetricsSnapshot &base) const
{
    std::vector<Entry> entries;
    entries.reserve(entries_.size());
    for (const Entry &entry : entries_) {
        Entry out = entry;
        if (entry.kind == MetricKind::Counter) {
            if (const Entry *was = base.find(entry.name))
                out.value = entry.value - was->value;
        }
        entries.push_back(std::move(out));
    }
    return MetricsSnapshot(std::move(entries));
}

util::Json
MetricsSnapshot::toJson() const
{
    util::Json doc = util::Json::object();
    for (const Entry &entry : entries_)
        doc.set(entry.name, entry.value);
    return doc;
}

void
MetricsSnapshot::dump(std::ostream &os) const
{
    for (const Entry &entry : entries_) {
        if (entry.kind == MetricKind::Counter) {
            os << entry.name << ' '
               << static_cast<uint64_t>(entry.value) << '\n';
        } else {
            os << entry.name << ' ' << std::setprecision(6)
               << entry.value << '\n';
        }
    }
}

} // namespace secproc::obs
