/**
 * @file
 * Banked DRAM timing model with open-row (page-mode) policy.
 *
 * The paper models memory as a flat 100-cycle latency. Real DRAM is
 * banked with row buffers: an access to the open row of a bank is
 * much faster than one that must activate a new row, and two misses
 * to different rows of the same bank serialize on the precharge.
 * This model lets the DRAM-sensitivity ablation ask whether the
 * paper's conclusion — pad generation hides crypto latency behind
 * the memory access — survives a memory whose latency is *variable*:
 * when a row hit returns in fewer cycles than the crypto engine
 * needs, the pad becomes the critical path (max(mem, crypto) + 1).
 *
 * Address mapping (low to high): [row offset | bank | row index],
 * i.e. consecutive rows rotate across banks, and accesses within
 * row_bytes of each other hit the same row buffer.
 */

#ifndef SECPROC_MEM_DRAM_HH
#define SECPROC_MEM_DRAM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace secproc::obs
{
class MetricsRegistry;
}

namespace secproc::mem
{

/** Static DRAM geometry and timing. */
struct DramConfig
{
    /** Independent banks (each with one row buffer). */
    uint32_t num_banks = 8;

    /** Row buffer size per bank in bytes. */
    uint64_t row_bytes = 8 * 1024;

    /** Cycles for an access that hits the open row (CAS + transfer). */
    uint32_t row_hit_latency = 60;

    /** Cycles when the bank has no open row (ACT + CAS + transfer). */
    uint32_t row_miss_latency = 110;

    /**
     * Cycles when another row is open and must be written back first
     * (PRE + ACT + CAS + transfer).
     */
    uint32_t row_conflict_latency = 160;

    /** Bank occupancy per access (back-to-back same-bank spacing). */
    uint32_t bank_busy_cycles = 24;

    /** Close the row after every access (closed-page policy). */
    bool closed_page = false;
};

/**
 * Timing-only DRAM: answers "when does this access complete?" while
 * tracking per-bank row-buffer and occupancy state.
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &config);

    /**
     * Schedule one access.
     *
     * @param request_cycle Cycle the command can issue to the bank.
     * @param addr Physical (or proxy) byte address.
     * @return Cycle the data transfer completes.
     */
    uint64_t access(uint64_t request_cycle, uint64_t addr);

    /** Row-buffer outcome counters. @{ */
    uint64_t rowHits() const { return row_hits_.value(); }
    uint64_t rowMisses() const { return row_misses_.value(); }
    uint64_t rowConflicts() const { return row_conflicts_.value(); }
    /** @} */

    /** Fraction of accesses that hit an open row. */
    double rowHitRate() const;

    /** Close all rows and clear occupancy (new run). */
    void reset();

    /**
     * Bind row_hits, row_misses and row_conflicts into @p reg as
     * "<prefix>.<name>".
     */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

    const DramConfig &config() const { return config_; }

    /** Bank index for @p addr (exposed for tests). */
    uint32_t bankIndex(uint64_t addr) const;

    /** Row index within the bank for @p addr (exposed for tests). */
    uint64_t rowIndex(uint64_t addr) const;

  private:
    struct Bank
    {
        bool row_open = false;
        uint64_t open_row = 0;
        uint64_t busy_until = 0;
    };

    DramConfig config_;
    std::vector<Bank> banks_;

    util::Counter row_hits_;
    util::Counter row_misses_;
    util::Counter row_conflicts_;
};

} // namespace secproc::mem

#endif // SECPROC_MEM_DRAM_HH
