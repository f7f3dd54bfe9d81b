/**
 * @file
 * OTA transport implementation.
 */

#include "ota/transport.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secproc::ota
{

ScheduleOdds::ScheduleOdds(const TransportConfig &config)
{
    // Each range is checked in positive form, so NaN fails it.
    fatal_if(config.chunk_bytes == 0, "transport needs a chunk size");
    fatal_if(config.cycles_per_chunk == 0,
             "transport needs a bandwidth cap");
    fatal_if(!(config.loss_rate >= 0.0 && config.loss_rate < 1.0),
             "chunk loss rate must be in [0, 1), got ", config.loss_rate);
    fatal_if(!(config.reorder_rate >= 0.0 && config.reorder_rate <= 1.0),
             "chunk reorder rate must be in [0, 1], got ",
             config.reorder_rate);
    fatal_if(!(config.burst_length >= 1.0 &&
               config.burst_length <= kMaxBurstLength),
             "a loss burst drops at least one chunk and at most 2^32 "
             "on average, got ", config.burst_length);
    loss = util::Rng::odds(config.loss_rate);
    burst = util::Rng::geometric(1.0 / config.burst_length);
    reorder = util::Rng::odds(config.reorder_rate);
}

Transport::Transport(const TransportConfig &config)
    : config_(config), odds_(config)
{
}

void
Transport::send(std::vector<uint8_t> payload, uint64_t cycle)
{
    send(std::move(payload), cycle, {});
}

void
Transport::send(std::vector<uint8_t> payload, uint64_t cycle,
                const std::vector<bool> &held)
{
    payload_ = std::move(payload);
    schedule_.clear();
    next_ = 0;
    sent_ = true;
    send_cycle_ = cycle;
    chunks_skipped_ = 0;

    // The first pass covers the whole payload in offset order, minus
    // chunks the receiver reported already held (a resumed staging
    // session); the schedule maps each later pass's positions onto
    // the offsets the previous pass lost.
    struct Passes
    {
        Transport &transport;
        std::vector<uint64_t> todo; ///< offsets of the current pass
        std::vector<uint64_t> lost; ///< offsets it dropped so far

        void
        arrive(uint64_t position, uint64_t arrival)
        {
            const uint64_t off = todo[position];
            const auto length = static_cast<uint32_t>(std::min<uint64_t>(
                transport.config_.chunk_bytes,
                transport.payload_.size() - off));
            transport.schedule_.push_back(Arrival{off, length, arrival});
        }

        void
        lose(uint64_t position, uint64_t clock)
        {
            if (transport.trace_ != nullptr) {
                transport.trace_->instant(transport.trace_track_,
                                          "chunk_lost", clock,
                                          {{"offset", todo[position]}});
            }
            lost.push_back(todo[position]);
        }

        void
        endPass(uint64_t dropped, uint64_t clock)
        {
            todo.swap(lost);
            lost.clear();
            if (transport.trace_ != nullptr && dropped != 0) {
                transport.trace_->instant(transport.trace_track_,
                                          "retransmit_pass", clock,
                                          {{"chunks", dropped}});
            }
        }
    } passes{*this, {}, {}};
    for (uint64_t off = 0; off < payload_.size();
         off += config_.chunk_bytes) {
        const uint64_t index = off / config_.chunk_bytes;
        if (index < held.size() && held[index])
            ++chunks_skipped_;
        else
            passes.todo.push_back(off);
    }

    const ScheduleCounts counts =
        scheduleArrivals(config_, odds_, passes.todo.size(), cycle,
                         passes);
    chunks_sent_ = counts.sent;
    chunks_lost_ = counts.lost;
    chunks_reordered_ = counts.reordered;
    passes_ = counts.passes;

    std::stable_sort(schedule_.begin(), schedule_.end(),
                     [](const Arrival &a, const Arrival &b) {
                         return a.cycle < b.cycle;
                     });
}

std::vector<Transport::Chunk>
Transport::poll(uint64_t cycle)
{
    std::vector<Chunk> out;
    while (next_ < schedule_.size() &&
           schedule_[next_].cycle <= cycle) {
        const Arrival &arrival = schedule_[next_];
        Chunk chunk;
        chunk.offset = arrival.offset;
        chunk.arrival_cycle = arrival.cycle;
        chunk.bytes.assign(
            payload_.begin() + static_cast<ptrdiff_t>(arrival.offset),
            payload_.begin() +
                static_cast<ptrdiff_t>(arrival.offset + arrival.length));
        if (trace_ != nullptr) {
            trace_->instant(trace_track_, "chunk", arrival.cycle,
                            {{"offset", arrival.offset}});
        }
        out.push_back(std::move(chunk));
        ++next_;
    }
    return out;
}

void
Transport::setTraceSink(obs::TraceSink *sink)
{
    trace_ = sink;
    if (sink != nullptr)
        trace_track_ = sink->track("ota");
}

uint64_t
Transport::completionCycle() const
{
    panic_if(!sent_, "no stream was sent");
    // A degenerate stream (empty payload, or every chunk held by a
    // resumed receiver) schedules nothing and completes at the send
    // cycle itself; this used to panic on the empty schedule, which
    // delta bundles' tiny payloads turned into a real crash.
    return schedule_.empty() ? send_cycle_ : schedule_.back().cycle;
}

} // namespace secproc::ota
