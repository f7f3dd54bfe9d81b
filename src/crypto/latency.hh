/**
 * @file
 * Timing model of the on-chip crypto engine.
 *
 * The paper assumes a fully pipelined engine that encrypts or
 * decrypts one L2 line in a flat 50 cycles (102 cycles for the
 * stronger-cipher study of Figure 10). This class models that — a
 * flat per-operation latency plus an optional initiation interval so
 * back-to-back line operations can be serialized when the engine is
 * configured as less than fully pipelined — and, beyond the paper,
 * lets *multiple agents* share the one physical engine: the
 * protection engines issue pipelined per-line operations while bulk
 * consumers (software-visible hashing, signature checks and capsule
 * unwraps during an OTA install) take exclusive reservations that
 * occupy the engine for the whole operation.
 */

#ifndef SECPROC_CRYPTO_LATENCY_HH
#define SECPROC_CRYPTO_LATENCY_HH

#include <compare>
#include <cstdint>

#include "obs/trace.hh"

namespace secproc::crypto
{

/**
 * The paper's Section 5 machine: one L2 line through the engine in a
 * flat 50 cycles. Every place that needs "the default crypto
 * latency" must use this constant, not a literal.
 */
inline constexpr uint32_t kPaperCryptoLatency = 50;

/**
 * The paper's stronger-cipher estimate (Figure 10): a 102-cycle
 * engine standing in for a wider-block, more serial cipher.
 */
inline constexpr uint32_t kStrongCipherLatency = 102;

/** Static description of the crypto engine hardware. */
struct CryptoEngineConfig
{
    /** Cycles from first input block to last output block. */
    uint32_t latency = kPaperCryptoLatency;

    /**
     * Cycles between accepting successive whole-line operations.
     * 0 or 1 models the paper's fully pipelined assumption.
     */
    uint32_t initiation_interval = 1;

    auto operator<=>(const CryptoEngineConfig &) const = default;
};

/**
 * Occupancy model of the shared crypto engine: answers "when would
 * this crypto operation complete?" while tracking how busy the
 * engine already is.
 *
 * Two kinds of work contend for the engine:
 *  - schedule(): a pipelined per-line operation (pad generation,
 *    line decryption on a fill). Successive operations only pay the
 *    initiation interval, matching the paper's fully pipelined
 *    assumption.
 *  - reserve(): an exclusive bulk reservation (digesting or
 *    re-encrypting a whole image line during an install, an RSA
 *    operation). The engine is held for the full operation latency,
 *    so concurrent pipelined work queues behind it.
 */
class CryptoEngineModel
{
  public:
    explicit CryptoEngineModel(CryptoEngineConfig cfg = {})
        : cfg_(cfg)
    {}

    /**
     * Schedule one pipelined whole-line operation.
     *
     * @param request_cycle Cycle the operands are available.
     * @return Cycle the output is available.
     */
    uint64_t
    schedule(uint64_t request_cycle)
    {
        const uint64_t start =
            request_cycle > busy_until_ ? request_cycle : busy_until_;
        busy_until_ = start + (cfg_.initiation_interval
                               ? cfg_.initiation_interval : 1);
        ++operations_;
        return start + cfg_.latency;
    }

    /**
     * Schedule a *dependent chain* of @p ops pipelined operations in
     * one call: operation k's operands are operation k-1's output
     * (pad generation feeding a seed into the next block, multi-block
     * digests). Occupancy, operation count and the returned
     * completion are exactly what @p ops successive schedule() calls
     * — each requesting at its predecessor's completion — would
     * produce, computed in closed form instead of call-by-call:
     * successive starts are spaced by max(latency,
     * initiation_interval), so the chain completes at
     * start + (ops-1)*max(latency, ii) + latency.
     *
     * @param request_cycle Cycle the first operation's operands are
     *        available.
     * @param ops Chain length (0 returns @p request_cycle untouched).
     * @return Completion cycle of the last operation.
     */
    uint64_t
    scheduleChained(uint64_t request_cycle, uint32_t ops)
    {
        if (ops == 0)
            return request_cycle;
        const uint64_t ii =
            cfg_.initiation_interval ? cfg_.initiation_interval : 1;
        const uint64_t step = ii > cfg_.latency ? ii : cfg_.latency;
        const uint64_t first_start =
            request_cycle > busy_until_ ? request_cycle : busy_until_;
        const uint64_t last_start =
            first_start + (uint64_t{ops} - 1) * step;
        busy_until_ = last_start + ii;
        operations_ += ops;
        return last_start + cfg_.latency;
    }

    /**
     * Take an exclusive reservation of @p ops back-to-back whole-line
     * operations: the engine is occupied until the last one drains,
     * so pipelined work issued meanwhile queues behind the
     * reservation.
     *
     * @param request_cycle Cycle the operands are available.
     * @param ops Number of line-sized operations reserved.
     * @return Cycle the reservation completes (== busyUntil()).
     */
    uint64_t
    reserve(uint64_t request_cycle, uint32_t ops = 1)
    {
        const uint64_t start =
            request_cycle > busy_until_ ? request_cycle : busy_until_;
        busy_until_ = start + static_cast<uint64_t>(ops) * cfg_.latency;
        operations_ += ops;
        reserved_ops_ += ops;
        if (trace_ != nullptr) {
            trace_->duration(trace_track_, "reserve", start,
                             busy_until_, {{"ops", ops}});
        }
        return busy_until_;
    }

    /** First cycle a new operation could start unobstructed. */
    uint64_t busyUntil() const { return busy_until_; }

    /** Flat operation latency in cycles. */
    uint32_t latency() const { return cfg_.latency; }

    /** Total operations scheduled (statistics). */
    uint64_t operations() const { return operations_; }

    /** Operations issued through exclusive reservations. */
    uint64_t reservedOperations() const { return reserved_ops_; }

    /**
     * Trace exclusive reservations onto @p sink (nullptr detaches).
     * The pipelined schedule() path is deliberately not traced: it
     * is the per-line hot path, and bulk reservations are what a
     * timeline viewer needs to see. Emitting never touches
     * occupancy state, so traced and untraced runs are
     * bit-identical.
     */
    void
    setTraceSink(obs::TraceSink *sink)
    {
        trace_ = sink;
        if (sink != nullptr)
            trace_track_ = sink->track("crypto");
    }

    /** Forget all occupancy state (new simulation run). */
    void
    reset()
    {
        busy_until_ = 0;
        operations_ = 0;
        reserved_ops_ = 0;
    }

  private:
    CryptoEngineConfig cfg_;
    uint64_t busy_until_ = 0;
    uint64_t operations_ = 0;
    uint64_t reserved_ops_ = 0;
    obs::TraceSink *trace_ = nullptr;
    obs::TrackId trace_track_ = 0;
};

} // namespace secproc::crypto

#endif // SECPROC_CRYPTO_LATENCY_HH
