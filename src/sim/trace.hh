/**
 * @file
 * Trace record format consumed by the core timing model.
 *
 * Workloads are generated, not recorded: a SyntheticWorkload emits an
 * unbounded deterministic stream of TraceOps whose memory behaviour
 * is calibrated per benchmark profile (DESIGN.md section 6).
 */

#ifndef SECPROC_SIM_TRACE_HH
#define SECPROC_SIM_TRACE_HH

#include <cstdint>
#include <string>

namespace secproc::sim
{

/** Functional-unit class of one instruction. */
enum class OpClass : uint8_t
{
    IntAlu,
    IntMul,
    FpAlu,
    Load,
    Store,
    Branch,
};

/** One instruction of the synthetic dynamic stream. */
struct TraceOp
{
    OpClass cls = OpClass::IntAlu;

    /** Producer distances in ops (0 = no dependence); max 255. */
    uint8_t dep1 = 0;
    uint8_t dep2 = 0;

    /** Branch resolved as mispredicted (fetch redirect). */
    bool mispredict = false;

    /** Effective virtual address for Load/Store. */
    uint64_t addr = 0;

    /**
     * Non-zero when this op's fetch crossed into a new instruction
     * cache line: the line's virtual address.
     */
    uint64_t fetch_line = 0;
};

} // namespace secproc::sim

#endif // SECPROC_SIM_TRACE_HH
