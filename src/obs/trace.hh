/**
 * @file
 * Cycle-level event tracing.
 *
 * A TraceSink collects timestamped duration and instant events from
 * the simulation components — arbiter grants, crypto-engine
 * reservations, OTA chunk arrivals, install phase transitions,
 * context switches, power-cut resets — on named tracks (one per
 * channel agent, one for the crypto engine, one per install) and
 * exports them as Chrome trace-event JSON, loadable in
 * ui.perfetto.dev or chrome://tracing.
 *
 * Tracing is off by default and must never perturb the simulation:
 * components hold a `TraceSink *` that is nullptr until someone
 * attaches a sink, every emit site is guarded by that pointer, and
 * emitting only appends to the sink's event vector — it never reads
 * or writes timing state. tests/obs_test.cc proves the
 * bit-identity of traced vs untraced runs.
 *
 * Timestamps are simulation cycles, written into the Chrome `ts`/
 * `dur` microsecond fields unscaled: one trace microsecond == one
 * simulated cycle.
 */

#ifndef SECPROC_OBS_TRACE_HH
#define SECPROC_OBS_TRACE_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/json.hh"

namespace secproc::obs
{

/** Identifies one named track (a Perfetto "thread" row). */
using TrackId = uint32_t;

/** One key/value annotation attached to an event. */
using TraceArg = std::pair<std::string, uint64_t>;

/**
 * An append-only collector of trace events.
 *
 * Event order is emission order, which is deterministic for a
 * deterministic simulation, so two traced runs of the same seed
 * produce byte-identical exports.
 */
class TraceSink
{
  public:
    /** Get-or-create the track named @p name. */
    TrackId track(const std::string &name);

    /** A span [begin_cycle, end_cycle] on @p track. */
    void duration(TrackId track, std::string name,
                  uint64_t begin_cycle, uint64_t end_cycle,
                  std::vector<TraceArg> args = {});

    /** A point event at @p cycle on @p track. */
    void instant(TrackId track, std::string name, uint64_t cycle,
                 std::vector<TraceArg> args = {});

    /** Events collected so far. */
    size_t eventCount() const { return events_.size(); }

    /** Tracks created so far. */
    size_t trackCount() const { return track_names_.size(); }

    /**
     * Export as a Chrome trace-event document: one metadata-named
     * process, one named thread per track, then every event in
     * emission order (ph "X" durations, ph "i" instants).
     */
    util::Json toChromeJson() const;

    /** Write toChromeJson() to @p path; fatal() on I/O failure. */
    void writeChromeJson(const std::string &path) const;

  private:
    struct Event
    {
        TrackId track;
        std::string name;
        uint64_t begin;
        uint64_t duration; ///< 0 for instants
        bool is_instant;
        std::vector<TraceArg> args;
    };

    std::vector<std::string> track_names_;
    std::map<std::string, TrackId> track_ids_;
    std::vector<Event> events_;
};

} // namespace secproc::obs

#endif // SECPROC_OBS_TRACE_HH
