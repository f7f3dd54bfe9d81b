#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <iostream>

namespace perfbench
{

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    uint64_t z = a + 0x9E3779B97F4A7C15ull * (b + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

Tracer::Scope::Scope(Tracer &tracer, const char *name)
    : tracer_(tracer.enabled_ ? &tracer : nullptr), index_(-1)
{
    if (tracer_ == nullptr)
        return;
    index_ = static_cast<int>(tracer_->spans_.size());
    tracer_->spans_.push_back({name, nowSeconds(), 0.0, tracer_->current_});
    tracer_->current_ = index_;
}

Tracer::Scope::~Scope()
{
    if (tracer_ == nullptr)
        return;
    Span &span = tracer_->spans_[static_cast<size_t>(index_)];
    span.end = nowSeconds();
    tracer_->current_ = span.parent;
}

std::map<std::string, Tracer::Totals>
Tracer::rollup(const std::vector<Range> &ranges) const
{
    // Spans nest strictly (one thread, RAII scopes), so the time the
    // children cover is the sum of their durations.
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const Span &span : spans_) {
        if (span.parent >= 0)
            child_time[static_cast<size_t>(span.parent)] +=
                span.end - span.start;
    }
    std::map<std::string, Totals> totals;
    for (const Range &range : ranges) {
        for (size_t i = range.first; i < range.last; ++i) {
            const double duration = spans_[i].end - spans_[i].start;
            Totals &t = totals[spans_[i].name];
            t.total_s += duration;
            t.self_s += duration - child_time[i];
            ++t.calls;
        }
    }
    return totals;
}

void
Tracer::writeJson(const std::string &path) const
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "perfbench: cannot write spans to " << path << "\n";
        return;
    }
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    out << std::setprecision(9) << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
            << "\",\"start\":" << s.start - origin
            << ",\"end\":" << s.end - origin << ",\"parent\":" << s.parent
            << "}";
    }
    out << "\n]\n";
}

bool
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
    return ok;
}

void
Digest::add(uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash_ ^= (value >> (8 * i)) & 0xFF;
        hash_ *= 0x100000001B3ull;
    }
}

void
Digest::add(const std::string &bytes)
{
    add(static_cast<uint64_t>(bytes.size()));
    for (const char c : bytes) {
        hash_ ^= static_cast<uint8_t>(c);
        hash_ *= 0x100000001B3ull;
    }
}

double
LayerTimes::self(const std::string &name) const
{
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.self_s;
}

double
LayerTimes::perCall(const std::string &name) const
{
    const auto it = totals.find(name);
    if (it == totals.end() || it->second.calls == 0)
        return 0.0;
    return it->second.total_s / static_cast<double>(it->second.calls);
}

uint64_t
Workload::scaled(uint64_t instructions) const
{
    const double n = std::round(static_cast<double>(instructions) *
                                opt_.scale);
    return std::max<uint64_t>(1000, static_cast<uint64_t>(n));
}

} // namespace perfbench
