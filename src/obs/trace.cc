/**
 * @file
 * TraceSink implementation and the Chrome trace-event exporter.
 */

#include "obs/trace.hh"

#include <fstream>

#include "util/logging.hh"

namespace secproc::obs
{

TrackId
TraceSink::track(const std::string &name)
{
    fatal_if(name.empty(), "trace tracks need a name");
    const auto it = track_ids_.find(name);
    if (it != track_ids_.end())
        return it->second;
    const auto id = static_cast<TrackId>(track_names_.size());
    track_names_.push_back(name);
    track_ids_.emplace(name, id);
    return id;
}

void
TraceSink::duration(TrackId track, std::string name,
                    uint64_t begin_cycle, uint64_t end_cycle,
                    std::vector<TraceArg> args)
{
    panic_if(track >= track_names_.size(), "event on unknown track ",
             track);
    panic_if(end_cycle < begin_cycle, "duration event '", name,
             "' ends before it begins");
    events_.push_back(Event{track, std::move(name), begin_cycle,
                            end_cycle - begin_cycle, false,
                            std::move(args)});
}

void
TraceSink::instant(TrackId track, std::string name, uint64_t cycle,
                   std::vector<TraceArg> args)
{
    panic_if(track >= track_names_.size(), "event on unknown track ",
             track);
    events_.push_back(
        Event{track, std::move(name), cycle, 0, true, std::move(args)});
}

util::Json
TraceSink::toChromeJson() const
{
    // Track i renders as thread i + 1 of process 1; tid 0 is left
    // unused so every real track gets an explicit thread_name row.
    util::Json events = util::Json::array();

    util::Json process = util::Json::object();
    process.set("name", "process_name");
    process.set("ph", "M");
    process.set("pid", 1);
    util::Json process_args = util::Json::object();
    process_args.set("name", "secproc");
    process.set("args", std::move(process_args));
    events.push(std::move(process));

    for (size_t i = 0; i < track_names_.size(); ++i) {
        util::Json thread = util::Json::object();
        thread.set("name", "thread_name");
        thread.set("ph", "M");
        thread.set("pid", 1);
        thread.set("tid", static_cast<uint64_t>(i + 1));
        util::Json thread_args = util::Json::object();
        thread_args.set("name", track_names_[i]);
        thread.set("args", std::move(thread_args));
        events.push(std::move(thread));
    }

    for (const Event &event : events_) {
        util::Json e = util::Json::object();
        e.set("name", event.name);
        e.set("ph", event.is_instant ? "i" : "X");
        e.set("ts", event.begin);
        if (!event.is_instant)
            e.set("dur", event.duration);
        else
            e.set("s", "t"); // thread-scoped instant
        e.set("pid", 1);
        e.set("tid", static_cast<uint64_t>(event.track + 1));
        if (!event.args.empty()) {
            util::Json args = util::Json::object();
            for (const auto &[key, value] : event.args)
                args.set(key, value);
            e.set("args", std::move(args));
        }
        events.push(std::move(e));
    }

    util::Json doc = util::Json::object();
    doc.set("displayTimeUnit", "ms");
    doc.set("traceEvents", std::move(events));
    return doc;
}

void
TraceSink::writeChromeJson(const std::string &path) const
{
    std::ofstream out(path);
    fatal_if(!out, "cannot open '", path, "' for writing");
    out << toChromeJson().dump() << "\n";
    fatal_if(!out.good(), "failed writing '", path, "'");
    inform("wrote ", path, " (", eventCount(), " events on ",
           trackCount(), " tracks)");
}

} // namespace secproc::obs
