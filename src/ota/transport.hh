/**
 * @file
 * Over-the-air transport model: how an update bundle actually
 * reaches the device.
 *
 * The update planes so far assumed the whole bundle sits in the
 * transport buffer before the install begins. Real OTA downlinks
 * deliver a *chunk stream*: bandwidth-capped, with bursty loss
 * (radio fades, lossy links) and reordering (multi-path, retries),
 * and lost chunks only reappear after a NACK round trip. The
 * Transport precomputes a deterministic arrival schedule from a
 * seeded RNG, so every experiment replays bit-identically: chunks
 * are transmitted in offset order at the bandwidth cap, a
 * Gilbert-style two-state process drops bursts of them, survivors
 * may be jittered out of order, and the drop set is retransmitted
 * (subject to the same loss process) one NACK round trip after the
 * pass that lost it — until every payload byte has arrived.
 *
 * Consumers poll(cycle) for newly arrived chunks; the LiveInstall
 * agent step-locks its admission verify against this stream, so an
 * install can make no progress on bytes the network has not
 * delivered yet.
 *
 * The schedule itself — every loss, burst and reorder draw — lives in
 * scheduleArrivals(), the one place the downlink's RNG is consumed.
 * It draws against a ScheduleOdds: the config's loss and reorder
 * probabilities as integer thresholds and the burst length's
 * log1p(-p), built once per config. Building one is also the one
 * validation of a TransportConfig, so every schedule runs on a config
 * it can run. Transport keeps payload offsets, bytes and statistics
 * on top of it; the fleet's lightweight devices (fleet/device.hh) run
 * the very same routine, with one ScheduleOdds per link class,
 * keeping only the latest arrival.
 */

#ifndef SECPROC_OTA_TRANSPORT_HH
#define SECPROC_OTA_TRANSPORT_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/trace.hh"
#include "util/logging.hh"
#include "util/random.hh"

namespace secproc::ota
{

/** Knobs of the OTA downlink. */
struct TransportConfig
{
    /** Payload bytes per chunk (the link MTU). */
    uint32_t chunk_bytes = 1024;

    /** Cycles between successive chunk transmissions (bandwidth
     *  cap; chunk_bytes / cycles_per_chunk is the link rate). */
    uint32_t cycles_per_chunk = 2048;

    /** Probability a transmission enters a loss burst. */
    double loss_rate = 0.0;

    /** Mean chunks lost per burst (geometric burst length >= 1). */
    double burst_length = 4.0;

    /** Probability a delivered chunk is jittered out of order. */
    double reorder_rate = 0.0;

    /** Max chunk slots a jittered chunk is delayed by. */
    uint32_t reorder_window = 4;

    /** Cycles from end of a pass to its retransmissions (NACK RTT). */
    uint64_t retransmit_delay = 16384;

    /** Loss/reorder RNG seed; same seed, same arrival schedule. */
    uint64_t seed = 0x07A'7EA5;
};

/** Largest mean burst length a TransportConfig may ask for: the
 *  largest geometric draw is about 36.7 x burst_length, so 2^32
 *  keeps every burst far below 2^64 chunks. */
inline constexpr double kMaxBurstLength = 0x1.0p32;

/**
 * The constants scheduleArrivals() draws against, built once per
 * TransportConfig: the loss and reorder chances as integer
 * thresholds and the burst-length geometric's log1p(-p). Every draw
 * is the one the config's doubles would make.
 *
 * The constructor is the one validation of a TransportConfig and
 * fatal()s on a config the schedule cannot run: a zero chunk size or
 * bandwidth cap, loss_rate outside [0, 1), reorder_rate outside
 * [0, 1], burst_length outside [1, kMaxBurstLength]. NaN is outside
 * every range.
 */
struct ScheduleOdds
{
    explicit ScheduleOdds(const TransportConfig &config);

    util::Rng::Odds loss;
    util::Rng::Geometric burst;
    util::Rng::Odds reorder;
};

/** What one scheduleArrivals() run drew. */
struct ScheduleCounts
{
    uint64_t sent = 0;      ///< transmissions, retransmissions included
    uint64_t lost = 0;      ///< transmissions the loss process dropped
    uint64_t reordered = 0; ///< deliveries jittered out of order
    uint64_t passes = 0;    ///< transmission passes (first + retries)
};

/**
 * The downlink's arrival schedule for @p chunks chunks, the first
 * transmitted one chunk time after @p cycle. Chunks go out at the
 * bandwidth cap in pass order; a Gilbert-style two-state process
 * drops bursts of them (each pass starts with a clear channel),
 * survivors may be jittered up to reorder_window chunk times late,
 * and the drop set is retransmitted, in loss order, as the next pass
 * one NACK round trip after the current one ends — until nothing is
 * lost. Arrival cycles depend only on a chunk's position in its
 * pass, never on its payload offset, so the schedule is a function
 * of counts; @p visit maps positions to whatever it tracks:
 *
 *  - visit.arrive(position, cycle): the position-th chunk of the
 *    current pass arrives at cycle;
 *  - visit.lose(position, cycle): it was dropped at cycle;
 *  - visit.endPass(lost, cycle): the pass ended at cycle; its @p lost
 *    drops, in loss order, form the next pass.
 *
 * Header-inline and allocation-free, so a visitor that keeps only a
 * running maximum costs no more than the loop itself. @p odds must be
 * built from a config with @p config's loss, burst and reorder
 * fields; the seed, pacing and window come from @p config.
 */
template <typename Visitor>
ScheduleCounts
scheduleArrivals(const TransportConfig &config, const ScheduleOdds &odds,
                 uint64_t chunks, uint64_t cycle, Visitor &visit)
{
    util::Rng rng(config.seed);
    ScheduleCounts counts;
    uint64_t clock = cycle;
    // A stuck loss process cannot happen (loss_rate < 1 and burst
    // lengths are finite), but bound the passes anyway so a future
    // config change fails loudly instead of spinning.
    constexpr uint64_t kMaxPasses = 10'000;
    for (uint64_t todo = chunks; todo != 0;) {
        fatal_if(++counts.passes > kMaxPasses,
                 "transport retransmitted the same payload ",
                 kMaxPasses, " times; loss model is stuck");
        uint64_t lost = 0;
        uint64_t burst_remaining = 0;
        for (uint64_t i = 0; i < todo; ++i) {
            clock += config.cycles_per_chunk;
            ++counts.sent;
            if (burst_remaining == 0 && rng.chance(odds.loss)) {
                // Gilbert-ish burst: geometric number of extra
                // losses after the one that opened the burst.
                burst_remaining = 1 + rng.nextGeometric(odds.burst);
            }
            if (burst_remaining > 0) {
                --burst_remaining;
                ++lost;
                visit.lose(i, clock);
                continue;
            }
            uint64_t arrival = clock;
            if (rng.chance(odds.reorder)) {
                const uint64_t jitter =
                    1 + rng.nextRange(std::max(config.reorder_window,
                                               1u));
                arrival += jitter * config.cycles_per_chunk;
                ++counts.reordered;
            }
            visit.arrive(i, arrival);
        }
        counts.lost += lost;
        visit.endPass(lost, clock);
        todo = lost;
        clock += config.retransmit_delay;
    }
    return counts;
}

/**
 * One deterministic lossy downlink carrying one payload.
 */
class Transport
{
  public:
    /** A delivered piece of the payload. */
    struct Chunk
    {
        uint64_t offset;       ///< payload offset of the first byte
        uint64_t arrival_cycle;
        std::vector<uint8_t> bytes;
    };

    explicit Transport(const TransportConfig &config);

    /**
     * Begin streaming @p payload at @p cycle. Computes the full
     * arrival schedule (transmissions, losses, retransmissions)
     * up front; resets any previous stream. An empty payload is a
     * legal degenerate stream: complete() immediately, nothing to
     * poll, completionCycle() == @p cycle.
     */
    void send(std::vector<uint8_t> payload, uint64_t cycle);

    /**
     * Resume-aware send: like send(), but chunk indices marked true
     * in @p held (payload offset / chunk_bytes) are already in the
     * receiver's hands — a resumed staging session after a power
     * cut — so the device NACKs only the missing ranges and the held
     * chunks are never transmitted. Indices past the end of @p held
     * are treated as missing.
     */
    void send(std::vector<uint8_t> payload, uint64_t cycle,
              const std::vector<bool> &held);

    /**
     * Chunks that have arrived by @p cycle and have not been
     * collected yet, in arrival order. @p cycle must not decrease
     * between calls.
     */
    std::vector<Chunk> poll(uint64_t cycle);

    /** True once every payload byte has an arrival scheduled and
     *  collected via poll(). */
    bool complete() const { return next_ == schedule_.size(); }

    /**
     * Arrival cycle of the earliest chunk poll() has not yet
     * delivered, or UINT64_MAX once the stream is fully collected.
     * The schedule is sorted by cycle, so a poll strictly before
     * this cycle is a no-op — the event kernel's transport wakeup.
     */
    uint64_t
    nextArrivalCycle() const
    {
        return next_ < schedule_.size() ? schedule_[next_].cycle
                                        : UINT64_MAX;
    }

    /** Cycle the last chunk of the stream arrives (the send cycle
     *  itself when nothing needed transmitting: empty payload, or
     *  every chunk already held). Panics only if send() was never
     *  called. */
    uint64_t completionCycle() const;

    /** Statistics over the current stream. @{ */
    uint64_t chunksSent() const { return chunks_sent_; }
    uint64_t chunksLost() const { return chunks_lost_; }
    uint64_t chunksReordered() const { return chunks_reordered_; }
    /** Chunks skipped because the receiver already held them. */
    uint64_t chunksSkipped() const { return chunks_skipped_; }
    uint64_t retransmitPasses() const
    {
        return passes_ == 0 ? 0 : passes_ - 1;
    }
    /** @} */

    const TransportConfig &config() const { return config_; }

    /**
     * Trace the downlink onto @p sink (nullptr detaches): an "ota"
     * track carries one instant per chunk arrival (collected via
     * poll), per loss, and per retransmission pass. The arrival
     * schedule itself is computed identically with or without a
     * sink attached.
     */
    void setTraceSink(obs::TraceSink *sink);

  private:
    /** Scheduled arrival of one payload range. */
    struct Arrival
    {
        uint64_t offset;
        uint32_t length;
        uint64_t cycle;
    };

    TransportConfig config_;
    ScheduleOdds odds_;
    std::vector<uint8_t> payload_;
    std::vector<Arrival> schedule_; ///< sorted by arrival cycle
    size_t next_ = 0;               ///< first uncollected arrival
    bool sent_ = false;             ///< send() has been called
    uint64_t send_cycle_ = 0;
    uint64_t chunks_sent_ = 0;
    uint64_t chunks_lost_ = 0;
    uint64_t chunks_reordered_ = 0;
    uint64_t chunks_skipped_ = 0;
    uint64_t passes_ = 0;
    obs::TraceSink *trace_ = nullptr;
    obs::TrackId trace_track_ = 0;
};

} // namespace secproc::ota

#endif // SECPROC_OTA_TRANSPORT_HH
