/**
 * @file
 * Process-wide memoization of standard experiment cells.
 *
 * Experiment grids repeat work: every comparison column re-runs the
 * baseline variant, and the install benches measure slowdown against
 * a foreground-alone run shared by several grid points. Cells are
 * deterministic functions of (benchmark, machine config, run
 * lengths, seed), so one simulation can serve every requester. The
 * cache here memoizes runCell() behind a shared_future: the first
 * worker to claim a key simulates it outside the lock while
 * concurrent workers asking for the same key block on the future
 * instead of duplicating megacycles of simulation.
 *
 * The key is the complete cell identity — the benchmark name, the
 * run lengths, the seed override, the live SECPROC_WARMUP /
 * SECPROC_MEASURE environment values, and the SystemConfig itself,
 * compared through its defaulted operator<=> so every field counts,
 * new ones included. Including the environment strings means a
 * process that mutates those overrides between runs (tests, the CI
 * kernel-equivalence harness) is never served a cell computed under
 * the old settings, even if it reuses a stale RunOptions value built
 * before the change.
 */

#ifndef SECPROC_EXP_CELL_CACHE_HH
#define SECPROC_EXP_CELL_CACHE_HH

#include <cstddef>
#include <string>

#include "exp/spec.hh"

namespace secproc::exp
{

/**
 * runCell() through the process-wide memo. Safe to call from any
 * number of Runner workers concurrently; a cell is simulated at most
 * once per distinct key per process.
 */
sim::RunStats cachedRunCell(const std::string &bench,
                            const sim::SystemConfig &config,
                            const RunOptions &options,
                            uint64_t seed_override = 0);

/** Cache observability (tests, the bench profile footer). */
struct CellCacheStats
{
    /** Distinct cells simulated (or being simulated). */
    size_t entries = 0;

    /** Requests served from an existing entry. */
    size_t hits = 0;
};

/** Snapshot of the process-wide cache counters. */
CellCacheStats cellCacheStats();

/**
 * Drop every cached cell and zero the counters (tests only — racing
 * this against in-flight cachedRunCell calls is a logic error).
 */
void clearCellCache();

} // namespace secproc::exp

#endif // SECPROC_EXP_CELL_CACHE_HH
