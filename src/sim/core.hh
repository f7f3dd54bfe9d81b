/**
 * @file
 * Windowed out-of-order core timing model.
 *
 * A one-pass approximation of a 4-issue out-of-order processor in
 * the spirit of the paper's SimpleScalar baseline: instructions
 * dispatch at up to `width` per cycle into a reorder buffer;
 * completion times are limited by operand dataflow, functional-unit
 * latency and the memory system; retirement is in order, so a
 * long-latency load at the ROB head stalls dispatch when the window
 * fills — which is exactly how off-chip decryption latency turns
 * into slowdown. Branch mispredictions redirect fetch after the
 * branch resolves.
 *
 * Known simplifications (DESIGN.md section 7): no wrong-path memory
 * traffic, stores retire without stalling (write-buffer semantics),
 * fetch is charged only at instruction-cache line boundaries.
 */

#ifndef SECPROC_SIM_CORE_HH
#define SECPROC_SIM_CORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "util/stats.hh"

namespace secproc::obs
{
class MetricsRegistry;
}

namespace secproc::sim
{

/** Core pipeline parameters (defaults match the paper Section 5). */
struct CoreConfig
{
    uint32_t rob_size = 128;
    uint32_t width = 4; ///< dispatch/commit width (paper: 4-issue)
    uint32_t redirect_penalty = 12;
    uint32_t int_latency = 1;
    uint32_t mul_latency = 3;
    uint32_t fp_latency = 4;

    /**
     * Loads block dispatch until their data returns (simple in-order
     * core). The paper's win comes partly from out-of-order cores
     * hiding part of the fill latency; this flag measures how much
     * larger the crypto penalty is when nothing overlaps
     * (ablation_core_model).
     */
    bool blocking_loads = false;
};

/**
 * Memory-system interface the core issues accesses through.
 * Implemented by sim::System.
 */
class MemorySystem
{
  public:
    virtual ~MemorySystem() = default;

    /**
     * Data access.
     * @param vaddr Effective address.
     * @param cycle Issue cycle.
     * @param store True for stores.
     * @return Completion cycle (data available / store accepted).
     */
    virtual uint64_t dataAccess(uint64_t vaddr, uint64_t cycle,
                                bool store) = 0;

    /**
     * Instruction line fetch.
     * @return Cycle the fetched line can feed dispatch.
     */
    virtual uint64_t ifetch(uint64_t line_va, uint64_t cycle) = 0;
};

/**
 * The core model. Feed ops in program order via step(); read cycles()
 * at the end.
 */
class OooCore
{
  public:
    OooCore(const CoreConfig &config, MemorySystem &memory);

    /** Account one instruction. */
    void step(const TraceOp &op);

    /** Cycles consumed so far (in-order retirement horizon). */
    uint64_t cycles() const;

    /** Instructions stepped so far. */
    uint64_t instructions() const { return instructions_; }

    /** Loads / stores / branches / mispredicts seen (sanity stats). */
    uint64_t loads() const { return loads_.value(); }
    uint64_t stores() const { return stores_.value(); }
    uint64_t branches() const { return branches_.value(); }
    uint64_t mispredicts() const { return mispredicts_.value(); }

    /** Restart timing (fresh run; memory system reset separately). */
    void reset();

    /**
     * Bind the loads, stores, branches and mispredicts counters into
     * @p reg as "<prefix>.<name>".
     */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    CoreConfig config_;
    MemorySystem &memory_;

    uint64_t dispatch_cycle_ = 0;
    uint32_t dispatched_this_cycle_ = 0;
    uint64_t fetch_ready_ = 0;
    uint64_t instructions_ = 0;

    /** In-order retirement horizon (monotonic). */
    uint64_t retire_horizon_ = 0;

    /** ROB occupancy ring: monotonicized completion cycles. */
    std::vector<uint64_t> rob_;
    size_t rob_head_ = 0;
    size_t rob_count_ = 0;

    /** Recent dataflow completion times for dependence lookup. */
    static constexpr size_t kRecentWindow = 256;
    std::vector<uint64_t> recent_;
    size_t recent_pos_ = 0;

    util::Counter loads_;
    util::Counter stores_;
    util::Counter branches_;
    util::Counter mispredicts_;

    uint64_t producerReady(const TraceOp &op) const;
    uint64_t takeDispatchSlot(uint64_t earliest);
};

} // namespace secproc::sim

#endif // SECPROC_SIM_CORE_HH
