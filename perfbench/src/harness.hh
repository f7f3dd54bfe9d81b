/**
 * @file
 * The benchmark harness shared by every workload: options, host-clock
 * spans, correctness checks, metric output and the digest that pins
 * simulated results.
 *
 * Everything here lives outside the library. Spans are recorded only
 * around calls the benchmark itself makes into a layer's public API,
 * so a traced run executes exactly the same library code as an
 * untraced one.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** Command-line options (see main.cc for the flags). */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Multiplies every simulated length; 1 is the benchmark itself,
     *  smaller values are for the smoke tests. */
    double scale = 1.0;
    /** Where the traced run writes its spans (empty: not written). */
    std::string spans_out;
};

/** The seed every expected digest was recorded at. */
inline constexpr uint64_t kDefaultSeed = 1;

/** splitmix64 of (a, b): derives independent seeds from one. */
uint64_t mixSeed(uint64_t a, uint64_t b);

/** Host seconds on the steady clock. */
inline double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * In-memory host-clock spans. Disabled, a Scope costs one branch; the
 * spans are kept in memory and written out when the run ends.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name; ///< string literal (static storage)
        double start = 0.0;
        double end = 0.0;
        int parent = -1;  ///< index of the enclosing span, -1 for a root
    };

    /** Spans [first, last) by index. */
    struct Range
    {
        size_t first = 0;
        size_t last = 0;
    };

    /** Per-name totals over recorded spans. */
    struct Totals
    {
        double self_s = 0.0;  ///< duration minus direct children
        double total_s = 0.0;
        uint64_t calls = 0;
    };

    /** RAII span around one call; no-op when the tracer is off. */
    class Scope
    {
      public:
        Scope(Tracer &tracer, const char *name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        int index_;
    };

    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    const std::vector<Span> &spans() const { return spans_; }

    /** Self and total time per span name over the spans in @p ranges. */
    std::map<std::string, Totals>
    rollup(const std::vector<Range> &ranges) const;

    /** Write every span as a JSON array (name, start, end, parent). */
    void writeJson(const std::string &path) const;

  private:
    bool enabled_ = false;
    int current_ = -1;
    std::vector<Span> spans_;
};

/** Correctness checks: each attempt counts, each failure is logged. */
class Checks
{
  public:
    /** Record one check; logs @p what to stderr when it failed. */
    bool expect(bool ok, const std::string &what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** FNV-1a over simulated outputs. */
class Digest
{
  public:
    void add(uint64_t value);
    void add(double value)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }
    void add(const std::string &bytes);
    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 0xCBF29CE484222325ull;
};

/** Records the host seconds of each timed section, in order. */
class Stopwatch
{
  public:
    /** Run @p fn and record its host time as the next lap. */
    template <typename Fn>
    decltype(auto)
    time(Fn &&fn)
    {
        struct Lap
        {
            std::vector<double> &laps;
            double start;
            ~Lap() { laps.push_back(nowSeconds() - start); }
        } lap{laps_, nowSeconds()};
        return fn();
    }

    const std::vector<double> &laps() const { return laps_; }

  private:
    std::vector<double> laps_;
};

/** What one pass of a workload did. */
struct PassResult
{
    /** Host seconds of each construction step inside the pass. */
    std::vector<double> setup_laps;
    /** Host seconds of each call doing the system's own work. */
    std::vector<double> run_laps;
    /** Digest of every simulated output of the pass. */
    uint64_t digest = 0;
    /** Sum of the arguments of every System::run call. */
    uint64_t instructions = 0;
    /** Instructions the pass's machines report they retired. */
    uint64_t retired = 0;
    /** Work units of the pass: instructions, or fleet devices. */
    double work = 0.0;
    /**
     * Simulated counts and model outputs. Those named like a per-layer
     * metric are reported as that metric by a traced run.
     */
    std::map<std::string, double> counts;
};

/** Per-layer metric values by name (units live in main.cc). */
using LayerValues = std::map<std::string, double>;

/**
 * Rolled-up spans of a traced run: the set-up before the first traced
 * pass, the fastest traced pass and the isolation passes.
 */
struct LayerTimes
{
    std::map<std::string, Tracer::Totals> totals;

    /** Self seconds under @p name (0 if absent). */
    double self(const std::string &name) const;
    /** Mean seconds of one call under @p name (0 if absent). */
    double perCall(const std::string &name) const;
};

/**
 * One benchmark workload. The harness calls prepare() and then pass()
 * a fixed number of times (the fastest prepare() is part of setup_s);
 * a traced run also calls isolate() once.
 */
class Workload
{
  public:
    explicit Workload(const Options &options) : opt_(options) {}
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /**
     * Set-up the passes use (keys, release builds). Repeated before
     * every pass; each repeat rebuilds the same objects.
     */
    virtual void prepare(Tracer &) {}

    /**
     * Host seconds one untraced pass and its set-up took at scale 1 when
     * the workload was calibrated (on a 4-vCPU 2.1 GHz Xeon VM); a run
     * of S seconds makes S / passSeconds() passes, whatever the code's
     * speed.
     */
    virtual double passSeconds() const = 0;

    /** One pass over the workload's fixed work. */
    virtual PassResult pass(Tracer &tracer) = 0;

    /** Traced run only: layer-isolation passes (spans only). */
    virtual void isolate(Tracer &) {}

    /**
     * Expected pass digest at kDefaultSeed and scale 1, or 0 when
     * none is recorded.
     */
    virtual uint64_t expectedDigest() const = 0;

    /**
     * Per-layer metrics derived from span times (host-time rates,
     * isolation costs); the harness adds PassResult::counts itself.
     */
    virtual void layerMetrics(const LayerTimes &times,
                              const PassResult &last,
                              double untraced_run_s,
                              LayerValues &out) const = 0;

    Checks &checks() { return checks_; }

  protected:
    const Options &opt_;
    Checks checks_;

    /** Simulated length scaled by Options::scale (never 0). */
    uint64_t scaled(uint64_t instructions) const;
};

std::unique_ptr<Workload> makePaperTiming(const Options &options);
std::unique_ptr<Workload> makeLiveOta(const Options &options,
                                      bool delta);
std::unique_ptr<Workload> makeFleetRollout(const Options &options);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH
