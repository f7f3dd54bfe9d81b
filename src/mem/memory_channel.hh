/**
 * @file
 * Timing model of the processor-memory channel plus write buffer.
 *
 * One shared channel carries demand line fills, dirty write-backs,
 * the protection engines' metadata traffic (sequence-number fetches
 * and spills, MAC fetches) and, since the cycle-plane update work,
 * the update engine's staging/verification streams. Reads are
 * latency-critical and modelled precisely; writes sit in a write
 * buffer (paper Figure 2/4) and drain into idle bus gaps, only
 * impeding reads when the buffer is saturated.
 *
 * Traffic is accounted per category so Figure 9 (SNC-induced traffic
 * as a percentage of L2 traffic) can be reproduced exactly, and per
 * *agent* so a machine with more than one client of the channel —
 * the core plus a background OTA installer — can attribute every
 * byte to whoever moved it.
 *
 * Background agents may additionally go through a foreground-priority
 * arbiter (requestBackground / pollBackground): their transactions
 * queue until they fit into genuinely idle bus time, so the core
 * keeps the channel to itself, with a starvation bound that
 * force-grants a queued transaction ahead of foreground traffic once
 * it has waited too long. Per-agent stall accounting records what
 * the arbitration cost each background client.
 */

#ifndef SECPROC_MEM_MEMORY_CHANNEL_HH
#define SECPROC_MEM_MEMORY_CHANNEL_HH

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "mem/dram.hh"
#include "obs/trace.hh"
#include "util/stats.hh"

namespace secproc::mem
{

/** What a channel transaction carries (for traffic attribution). */
enum class Traffic
{
    DataFill,         ///< demand line read
    DataWriteback,    ///< dirty line write
    SeqnumFetch,      ///< SNC spill-table read (LRU query/update miss)
    SeqnumWriteback,  ///< SNC victim spill write
    MacFetch,         ///< integrity metadata read (extension)
    MacWriteback,     ///< integrity metadata write (extension)
    UpdateFill,       ///< staged-update read (verify/load streams)
    UpdateWriteback,  ///< staging or re-encrypted image write
    NumCategories,
};

/**
 * Identifies one registered client of the channel. The core is
 * always agent 0; further agents (the update engine's install
 * stream, future DMA masters) register at construction time.
 */
using AgentId = uint16_t;

/** The implicit default client: the core-side cache hierarchy. */
inline constexpr AgentId kCoreAgent = 0;

/** Static timing parameters of the channel. */
struct ChannelConfig
{
    /** Cycles from read issue to full line arrival (paper: 100). */
    uint32_t access_latency = 100;

    /** Bus occupancy per line-sized transfer. */
    uint32_t transfer_cycles = 16;

    /** Bus occupancy per metadata-sized (seqnum/MAC) transfer. */
    uint32_t small_transfer_cycles = 2;

    /** Write buffer capacity in entries. */
    uint32_t write_buffer_entries = 16;

    /** Bytes accounted per line transaction. */
    uint32_t line_bytes = 128;

    /** Bytes accounted per metadata transaction. */
    uint32_t small_bytes = 8;

    /**
     * Arbiter starvation bound: a background transaction queued via
     * requestBackground() is force-granted ahead of foreground
     * traffic once it has waited this many cycles without finding an
     * idle bus gap. Smaller bounds trade foreground latency for
     * background progress.
     */
    uint32_t bg_starvation_bound = 2048;

    /**
     * Model the device as banked DRAM instead of a flat
     * access_latency (DRAM-sensitivity ablation). When set, the
     * address passed to scheduleRead()/enqueueWrite() selects the
     * bank and row.
     */
    bool use_dram = false;

    /** DRAM geometry/timing when use_dram is set. */
    DramConfig dram;
};

/**
 * Shared memory channel with opportunistic write draining.
 *
 * The model keeps a scalar `busy_until` horizon for the bus. Reads
 * schedule immediately after the horizon; queued writes drain into
 * gaps between the horizon and the next read, and are force-drained
 * ahead of a read when the write buffer is full — the only case in
 * which writes delay the critical path, matching the paper's
 * assumption that "write operation is not on the critical path".
 *
 * Timing is agent-blind: every client contends for the same scalar
 * horizon, exactly as multiple masters share one physical bus. Only
 * the accounting is per-agent.
 */
class MemoryChannel
{
  public:
    explicit MemoryChannel(ChannelConfig config = {});

    /**
     * Register a named client. Agent 0 ("core") always exists; the
     * returned id is passed to scheduleRead()/enqueueWrite() so the
     * agent's traffic is attributed to it. Names stay unique: a name
     * already taken is registered as "<name>#<id>".
     */
    AgentId registerAgent(const std::string &name);

    /** Registered agents (at least 1: the core). */
    size_t agentCount() const { return agent_names_.size(); }

    /** Display name of @p agent. */
    const std::string &agentName(AgentId agent) const;

    /**
     * Schedule a latency-critical read.
     *
     * @param request_cycle Cycle the request leaves the chip.
     * @param category Traffic attribution.
     * @param small True for metadata-sized transfers.
     * @param addr Target address; only consulted in DRAM mode
     *        (bank/row selection), ignored by the flat model.
     * @param agent Registered client issuing the read.
     * @return Cycle the data is available on chip.
     */
    uint64_t scheduleRead(uint64_t request_cycle, Traffic category,
                          bool small = false, uint64_t addr = 0,
                          AgentId agent = kCoreAgent);

    /**
     * Queue a write that becomes ready at @p ready_cycle (e.g. after
     * encryption completes in the write buffer).
     */
    void enqueueWrite(uint64_t ready_cycle, Traffic category,
                      bool small = false, uint64_t addr = 0,
                      AgentId agent = kCoreAgent);

    // ------------------------------------ foreground-priority arbiter

    /**
     * Queue one background transaction through the arbiter. It is
     * granted bus time only once it fits into an idle gap the
     * foreground left behind — or once it has waited
     * bg_starvation_bound cycles, at which point it is granted ahead
     * of foreground traffic (bounded intrusion: one transfer time).
     *
     * At most one request may be outstanding per agent, and the
     * core (agent 0) must not use this path: its reads keep absolute
     * priority through scheduleRead().
     *
     * @param request_cycle Cycle the transaction becomes ready.
     * @param write True for a write (no access latency in the
     *        completion; occupies the bus only).
     */
    void requestBackground(uint64_t request_cycle, Traffic category,
                           bool write, bool small, uint64_t addr,
                           AgentId agent);

    /**
     * Poll @p agent's queued transaction at time @p now. Grants any
     * queued background work that fits into bus idle time up to
     * @p now (or is past its starvation bound) in queue order, then
     * reports: the completion cycle of @p agent's transaction — data
     * arrival for reads, last bus cycle for writes — once granted
     * (clearing the slot for the next request), or std::nullopt
     * while it is still queued.
     */
    std::optional<uint64_t> pollBackground(AgentId agent,
                                           uint64_t now);

    /**
     * True when @p agent has a granted, ungathered transaction: its
     * next pollBackground() returns immediately.
     */
    bool
    backgroundGrantReady(AgentId agent) const
    {
        return agent < bg_done_.size() && bg_done_[agent].has_value();
    }

    /**
     * True when *any* agent has a granted, ungathered transaction.
     * The event kernel checks this every boundary: foreground
     * channel activity runs the arbiter at the access's own cycle,
     * which can sit *ahead* of the core's boundary clock (the OoO
     * core's memory ops run ahead of retire), so a grant can park
     * while every armed wakeup is still in the future. The legacy
     * every-step pump collects such grants at the very next
     * boundary; bit-identity requires the event kernel to do the
     * same, and this O(1) flag is how it notices.
     */
    bool backgroundGrantParked() const { return bg_done_count_ != 0; }

    /**
     * Event-kernel support: the earliest cycle at which a
     * pollBackground()/grantBackground() call could change arbiter
     * state, given everything issued so far — i.e. the first cycle
     * any front-of-queue threshold is reached:
     *
     *  - the front pending write's drain completion
     *    (max(busy_until, ready) + transfer);
     *  - the front background request's idle-fit grant
     *    (max(busy_until, request) + transfer) or its
     *    starvation-bound force grant (request + bg_starvation_bound);
     *  - *now*, when the write queue is over capacity — drainWrites'
     *    force condition is time-independent, so any poll drains.
     *
     * Every threshold is monotone under future foreground traffic
     * (busy_until only grows; queues pop from the front), so this is
     * a conservative lower bound: polls strictly before it are
     * provable no-ops, and the caller re-queries after any boundary
     * it does pump. Returns kNoArbiterEvent when both queues are
     * empty.
     */
    uint64_t nextArbiterEventCycle() const;

    /** nextArbiterEventCycle()'s "no pending arbiter work" value. */
    static constexpr uint64_t kNoArbiterEvent = UINT64_MAX;

    /** Background transactions still queued in the arbiter. */
    size_t backgroundQueued() const { return bg_queue_.size(); }

    /** Background transactions granted so far. */
    uint64_t backgroundGrants() const { return bg_grants_; }

    /** Grants forced by the starvation bound (ahead of foreground). */
    uint64_t backgroundForcedGrants() const { return bg_forced_; }

    /** Total cycles @p agent's granted transactions spent queued. */
    uint64_t agentStallCycles(AgentId agent) const;

    /** Largest single queue wait @p agent has seen. */
    uint64_t agentMaxStallCycles(AgentId agent) const;

    /** Bytes moved in @p category so far. */
    uint64_t bytes(Traffic category) const;

    /** Transactions in @p category so far. */
    uint64_t transactions(Traffic category) const;

    /** Total bytes across the data categories (fill + writeback). */
    uint64_t dataBytes() const;

    /** Total bytes across the seqnum categories. */
    uint64_t seqnumBytes() const;

    /** Total bytes across the MAC metadata categories. */
    uint64_t macBytes() const;

    /** Total bytes across the update categories. */
    uint64_t updateBytes() const;

    /** Bytes moved by every category together. */
    uint64_t totalBytes() const { return total_bytes_; }

    /** Bytes moved by @p agent in @p category. */
    uint64_t agentBytes(AgentId agent, Traffic category) const;

    /** Bytes moved by @p agent across all categories. */
    uint64_t agentBytes(AgentId agent) const;

    /** Transactions issued by @p agent across all categories. */
    uint64_t agentTransactions(AgentId agent) const;

    /**
     * Every category with its name, bytes and transaction count —
     * generically over the enum, so a newly added category can never
     * be silently dropped from reports.
     */
    struct CategoryRow
    {
        Traffic category;
        std::string name;
        uint64_t bytes;
        uint64_t transactions;
    };
    std::vector<CategoryRow> byCategory() const;

    /**
     * Panic unless every accounted byte is covered by one of the
     * named category groups (data / seqnum / mac / update). Guards
     * report code: adding a Traffic category without teaching the
     * grouped accessors about it would otherwise silently drop its
     * traffic from the per-category tables (and skew Figure 9 style
     * ratios). Called from the stats paths; cheap.
     */
    void assertFullyAttributed() const;

    /** Cycles the bus has been occupied (utilization numerator). */
    uint64_t busyCycles() const { return busy_cycles_; }

    /** First cycle the bus is free of everything issued so far. */
    uint64_t busyUntil() const { return busy_until_; }

    /**
     * Trace channel activity onto @p sink (nullptr detaches). Each
     * registered agent gets its own "channel.<agent>" track; agents
     * registered later join automatically. The core's demand traffic
     * is deliberately not traced (it is the per-access hot path and
     * would dwarf every other track); arbiter grants, background
     * reads/writes and starvation force-grants are. Emitting never
     * touches timing state, so traced and untraced runs are
     * bit-identical.
     */
    void setTraceSink(obs::TraceSink *sink);

    /**
     * Reset all counters, occupancy, the write buffer and the
     * arbiter (queued background transactions and ungathered grants
     * are dropped — a machine reset leaves no in-flight work).
     * Agents stay registered, as does any attached trace sink.
     */
    void reset();

    const ChannelConfig &config() const { return config_; }

    /** DRAM backend, or nullptr in flat-latency mode. */
    const DramModel *dram() const { return dram_.get(); }

  private:
    struct PendingWrite
    {
        uint64_t ready_cycle;
        bool small;
        uint64_t addr;
    };

    /** One transaction queued in the background arbiter. */
    struct BgRequest
    {
        uint64_t request_cycle;
        Traffic category;
        bool write;
        bool small;
        uint64_t addr;
        AgentId agent;
    };

    ChannelConfig config_;
    std::unique_ptr<DramModel> dram_;
    uint64_t busy_until_ = 0;
    uint64_t busy_cycles_ = 0;
    std::deque<PendingWrite> write_queue_;

    std::deque<BgRequest> bg_queue_;
    /** agent -> completion cycle of its granted, ungathered txn. */
    std::vector<std::optional<uint64_t>> bg_done_;
    /** Number of set entries in bg_done_ (backgroundGrantParked). */
    size_t bg_done_count_ = 0;
    std::vector<bool> bg_pending_;
    std::vector<uint64_t> bg_stall_cycles_;
    std::vector<uint64_t> bg_max_stall_;
    uint64_t bg_grants_ = 0;
    uint64_t bg_forced_ = 0;

    static constexpr size_t kNumCategories =
        static_cast<size_t>(Traffic::NumCategories);
    std::array<uint64_t, kNumCategories> bytes_{};
    std::array<uint64_t, kNumCategories> transactions_{};
    uint64_t total_bytes_ = 0;

    std::vector<std::string> agent_names_;
    /** agent -> per-category byte / transaction tables. */
    std::vector<std::array<uint64_t, kNumCategories>> agent_bytes_;
    std::vector<std::array<uint64_t, kNumCategories>>
        agent_transactions_;

    obs::TraceSink *trace_ = nullptr;
    /** agent -> trace track, parallel to agent_names_ when tracing. */
    std::vector<obs::TrackId> agent_tracks_;

    void account(Traffic category, bool small, AgentId agent);
    uint32_t transferCycles(bool small) const;
    void drainWrites(uint64_t now, bool force_all);
    void grantBackground(uint64_t now);
};

/** Human-readable category name. */
std::string trafficName(Traffic category);

} // namespace secproc::mem

#endif // SECPROC_MEM_MEMORY_CHANNEL_HH
