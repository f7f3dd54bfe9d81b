/**
 * @file
 * Synthetic workload generation.
 *
 * The paper evaluates 11 SPEC CPU2000 benchmarks. SPEC binaries and
 * reference inputs cannot ship with this repository, so each
 * benchmark is replaced by a deterministic synthetic generator whose
 * memory behaviour is calibrated to reproduce the figures' shapes:
 * baseline L2 miss pressure (XOM slowdown, Fig. 3), encrypted
 * working-set footprint versus SNC coverage (Figs. 5-6), SNC set
 * conflicts (Fig. 7, ammp), working-set drift (gcc's no-replacement
 * pathology, Fig. 5) and write-once streams (seqnum spill traffic,
 * Fig. 9). See DESIGN.md section 6.
 */

#ifndef SECPROC_SIM_WORKLOAD_HH
#define SECPROC_SIM_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/trace.hh"
#include "util/random.hh"

namespace secproc::sim
{

/** Access pattern of one data region. */
enum class RegionBehavior
{
    /** Small, heavily reused set (mostly cache resident). */
    Hot,
    /** Cyclic sequential sweep over the footprint. */
    Stream,
    /**
     * Zipf-skewed line popularity. Popularity ranks are mapped to
     * lines through a random permutation (popular lines scattered in
     * the address space, as in real heaps), optionally restricted to
     * a window that drifts through the footprint (LRU-friendly
     * temporal locality and working-set migration).
     */
    Zipf,
    /** Zipf reuse with dependent loads: each access serializes on
     *  the previous one (pointer chasing, mcf). */
    Chase,
    /**
     * Accesses cycling over lines spaced a fixed stride apart so
     * that many hot lines map to a single SNC set (the ammp 32-way
     * pathology of Figure 7).
     */
    ConflictStream,
    /** Monotonically advancing writes, revisited only briefly
     *  (gzip/mesa output buffers: seqnum churn without reuse). */
    WriteOnce,
};

/** One data region of a workload profile. */
struct DataRegion
{
    RegionBehavior behavior = RegionBehavior::Hot;
    uint64_t footprint = 64 * 1024; ///< bytes
    double weight = 1.0;            ///< share of data accesses
    double store_frac = 0.3;        ///< stores among its accesses
    double zipf_s = 0.9;            ///< skew for Zipf/Chase
    uint64_t stride = 8;            ///< bytes per Stream step
    /**
     * Consecutive memory accesses issued to this region once it is
     * selected (models array-processing inner loops; bursts create
     * overlapping misses).
     */
    uint32_t burst_length = 1;

    /**
     * Zipf/Chase: restrict reuse to a window of this many lines
     * (0 = the whole footprint).
     */
    uint64_t window_lines = 0;
    /** Window drift: advance every this many region accesses
     *  (0 = static window). */
    uint64_t drift_interval = 0;
    /** Lines the window advances per drift step (wraps). */
    uint64_t drift_step_lines = 0;

    uint64_t conflict_stride = 0; ///< bytes between conflict lines
    uint64_t conflict_lines = 64; ///< lines in the conflict ring
    /** WriteOnce: stores to a line before moving to the next. */
    uint32_t writes_per_line = 2;

    bool plaintext = false; ///< program input (no crypto)
    /**
     * Pretend the program wrote the region before the measurement
     * window: lines start OTP/Direct-encrypted with warm SNC state
     * rather than Unwritten.
     */
    bool preinitialized = true;

    /** Resolved at layout time. */
    uint64_t base = 0;
};

/** Full description of one synthetic benchmark. */
struct WorkloadProfile
{
    std::string name = "workload";
    double mem_frac = 0.35;    ///< loads+stores among all ops
    double branch_frac = 0.12;
    double mispredict_rate = 0.04;
    double mul_frac = 0.04;
    double fp_frac = 0.08;
    uint64_t code_footprint = 16 * 1024;
    double jump_frac = 0.25;   ///< taken branches that leave the line
    double dep_p = 0.35;       ///< geometric parameter for distances
    std::vector<DataRegion> regions;
    uint64_t rng_seed = 1;

    /**
     * Base offset added to the text segment and every region
     * (multi-tasking: each task gets a disjoint virtual address
     * range, modelling XOM's compartment-tagged caches — a line of
     * one compartment can never hit on another's).
     */
    uint64_t va_offset = 0;
};

/**
 * Instruction-stream source consumed by the System: either generated
 * on the fly (SyntheticWorkload) or replayed from a recorded trace
 * file (TraceWorkload in trace_io.hh).
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Produce the next instruction in program order. */
    virtual const TraceOp &next() = 0;

    /** The profile with resolved region bases. */
    virtual const WorkloadProfile &profile() const = 0;

    /** Restart the stream from the beginning. */
    virtual void reset() = 0;

    /**
     * The region's steady-state live set in access-recency order
     * (least recently used first). Used by the system to prime
     * protection-engine state as a long-running program would have
     * left it — the paper measures after a 10-billion-instruction
     * fast-forward. Empty for WriteOnce regions.
     */
    virtual std::vector<uint64_t> liveLines(size_t region_idx) const = 0;

    /** Text segment base address (before any va_offset). */
    static constexpr uint64_t kTextBase = 0x0040'0000;

    /** This workload's text base (kTextBase + profile va_offset). */
    uint64_t textBase() const
    {
        return kTextBase + profile().va_offset;
    }
};

/**
 * Deterministic generator implementing a WorkloadProfile.
 *
 * Every per-op constant is built once, in the constructor: the
 * op-class and region-pick thresholds (util::Rng::threshold of the
 * same cumulative doubles a nextDouble() comparison would use), each
 * region's store odds and geometry, and the branch odds. Each
 * Zipf/Chase region owns its util::Rng::Zipf table, built at the
 * region's first draw. An op therefore costs integer compares and
 * table lookups, and the stream is the one the double comparisons
 * define, draw for draw.
 */
class SyntheticWorkload : public Workload
{
  public:
    /**
     * @param profile Behaviour description; region base addresses
     *        are resolved here.
     * @param line_size L2 line size (address alignment granularity).
     */
    explicit SyntheticWorkload(WorkloadProfile profile,
                               uint32_t line_size = 128);

    /** Generate the next instruction in program order. */
    const TraceOp &next() override;

    /** The profile with resolved region bases. */
    const WorkloadProfile &profile() const override { return profile_; }

    /** Restart the stream from the beginning (same seed). */
    void reset() override;

    /** Ops generated since construction/reset. */
    uint64_t generated() const { return generated_; }

    /** @copydoc Workload::liveLines */
    std::vector<uint64_t> liveLines(size_t region_idx) const override;

  private:
    /** A region's per-access constants, built once. */
    struct RegionShape
    {
        uint64_t lines = 1;    ///< max(1, footprint / line size)
        uint64_t universe = 1; ///< Zipf/Chase ranks: window or lines
        /** footprint - 1 when the footprint is a power of two (or 0),
         *  so that offset % footprint is offset & mask. */
        uint64_t footprint_mask = 0;
        bool footprint_pow2 = false;
        uint32_t writes_per_line = 1; ///< WriteOnce, at least 1
        util::Rng::Odds store;        ///< chance(store_frac)
    };

    /** Mutable per-region generator state. */
    struct RegionState
    {
        uint64_t cursor = 0;        ///< stream/write-once position
        uint64_t window_base = 0;   ///< drifting window origin
        /** Accesses until the window drifts (drift_interval != 0). */
        uint64_t drift_left = 0;
        uint64_t last_chase_op = 0; ///< for dependence serialization
        std::vector<uint32_t> perm; ///< rank -> line permutation
        util::Rng::Zipf zipf;       ///< built at the first draw
    };

    WorkloadProfile profile_;
    uint32_t line_size_;
    util::Rng rng_;
    TraceOp op_;
    uint64_t generated_ = 0;

    // Fetch state (pc_ is (re)set from text_base_ in the
    // constructor and reset()).
    uint64_t text_base_ = kTextBase;
    uint64_t pc_ = kTextBase;
    uint64_t last_fetch_line_ = 0;

    /** Op class of draw k: the first i with k < class_below_[i] picks
     *  memory, branch, multiply, FP; none picks integer ALU. */
    uint64_t class_below_[4] = {};
    /** Region pick: the first region with k below its threshold, or
     *  the last region. */
    std::vector<uint64_t> region_below_;
    std::vector<RegionShape> shapes_;
    std::vector<RegionState> states_;

    util::Rng::Odds mispredict_;  ///< chance(mispredict_rate)
    util::Rng::Odds jump_;        ///< chance(jump_frac)
    uint64_t jump_slots_ = 1;     ///< max(1, code_footprint / 4)

    // Active burst: remaining accesses pinned to one region.
    size_t burst_region_ = 0;
    uint32_t burst_remaining_ = 0;

    /** 256-entry pre-sampled geometric distances (speed). */
    std::vector<uint8_t> dep_table_;

    void layoutRegions();
    void buildDepTable();
    size_t pickRegion();
    uint64_t regionAddress(size_t region_idx, bool *serialize_dep,
                           bool *is_store);
    uint8_t fastDep();
};

} // namespace secproc::sim

#endif // SECPROC_SIM_WORKLOAD_HH
