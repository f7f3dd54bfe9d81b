/**
 * @file
 * Background machine agents.
 *
 * The core drives simulated time, but it is not the only client of
 * the machine's shared resources: a background OTA install streams
 * through the same memory channel and crypto engine while the
 * foreground program runs. A BackgroundAgent is anything that wants
 * to issue such self-paced work; the System pumps every attached
 * agent as the core's cycle count advances, so agent transactions
 * interleave deterministically with the core's.
 */

#ifndef SECPROC_SIM_AGENT_HH
#define SECPROC_SIM_AGENT_HH

#include <cstdint>

namespace secproc::obs
{
class TraceSink;
}

namespace secproc::sim
{

/** "No event pending" sentinel cycle (see nextEventCycle()). */
inline constexpr uint64_t kNeverCycle = UINT64_MAX;

/**
 * A self-paced producer of memory-channel transactions and
 * crypto-engine reservations.
 */
class BackgroundAgent
{
  public:
    virtual ~BackgroundAgent() = default;

    /**
     * Issue all work whose start time has been reached. Called with
     * a monotonically non-decreasing @p cycle; must be cheap when
     * there is nothing to do.
     */
    virtual void advance(uint64_t cycle) = 0;

    /** True once the agent has no further work to issue. */
    virtual bool done() const = 0;

    /**
     * Event-kernel contract: a conservative lower bound on the next
     * cycle at which this agent's advance() could change any machine
     * state — its own, the channel's, the crypto engine's or the
     * functional plane's. The System skips pumping agents across
     * [now, bound) and pumps *every* agent, in attach order, at the
     * first core-clock boundary that reaches the earliest bound, so
     * the pump sequence is a subset of the legacy every-step pump
     * containing all of its effectful elements — bit-identical
     * results by construction.
     *
     * Sources of wakeups an implementation must cover: channel-idle
     * windows and starvation-bound deadlines (via
     * MemoryChannel::nextArbiterEventCycle), OTA chunk arrival (via
     * ota::Transport::nextArrivalCycle), crypto reservation expiry /
     * self-paced cursors (the agent's own completion cycle).
     * Return kNeverCycle when done() and nothing can wake the agent
     * again.
     */
    virtual uint64_t nextEventCycle(uint64_t now) const = 0;

    /**
     * Drop all in-flight work (machine reset / power cycle). Called
     * by System::reset() after the shared channel and crypto engine
     * have been reset, so any transaction the agent still had queued
     * in the channel's arbiter is already gone; the agent must
     * forget it ever issued it.
     */
    virtual void reset() {}

    /**
     * Attach (or with nullptr detach) a trace sink. Called by
     * System::setTraceSink() so agents can emit timeline events;
     * agents without a timeline ignore it. Emitting events must
     * never perturb timing state.
     */
    virtual void setTraceSink(obs::TraceSink *) {}
};

} // namespace secproc::sim

#endif // SECPROC_SIM_AGENT_HH
