/**
 * @file
 * Trace recording and replay.
 *
 * The paper drives SimpleScalar with SPEC2000 binaries; secproc
 * drives its timing model with synthetic generators. This module
 * closes the loop for users who want *fixed* inputs: a generated (or
 * externally converted) instruction stream can be serialized to a
 * compact binary file and replayed bit-exactly, producing the same
 * cycle counts as the live generator. The file embeds the workload
 * profile (region layout, footprints) so a replaying System can
 * pre-initialize encryption state exactly as it does for a
 * generator.
 *
 * Format (little-endian):
 *   magic "SPTR", u32 version,
 *   profile block (scalars + regions),
 *   live-lines block (per region, for SNC priming),
 *   u64 op count, then per op:
 *     u8  [2:0] OpClass, [3] mispredict, [4] has addr,
 *         [5] has fetch_line, [6] has dep1, [7] has dep2
 *     varint zigzag delta addr      (if has addr)
 *     varint zigzag delta fetch     (if has fetch_line)
 *     u8 dep1 / u8 dep2             (if present)
 * Deltas are against the previous op's value of the same field,
 * which makes streaming accesses cost one or two bytes each.
 */

#ifndef SECPROC_SIM_TRACE_IO_HH
#define SECPROC_SIM_TRACE_IO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/workload.hh"

namespace secproc::sim
{

/**
 * Largest extent a trace file may declare for a region, and for its
 * text segment: 4 GiB, 128 times gcc's 32 MB region. A System warms
 * every line of a preinitialized region when it is built, so the
 * file must not choose that count. A region's extent is its
 * footprint or, for a ConflictStream region, the larger of that and
 * its ring (conflict_lines * conflict_stride).
 */
inline constexpr uint64_t kMaxRegionBytes = uint64_t{4} << 30;

/** In-memory image of a recorded trace. */
struct TraceImage
{
    WorkloadProfile profile;
    /** Per-region live-line lists (Workload::liveLines). */
    std::vector<std::vector<uint64_t>> live_lines;
    std::vector<TraceOp> ops;
};

/**
 * Record @p count ops from @p workload into @p path.
 * fatal() on I/O errors. The workload is advanced (not reset).
 */
void recordTrace(const std::string &path, Workload &workload,
                 uint64_t count);

/** Serialize an in-memory image (testing and converters). */
void writeTrace(const std::string &path, const TraceImage &image);

/**
 * Load a trace file; fatal() on malformed input, including a region
 * or text segment above kMaxRegionBytes, a region whose end wraps the
 * address space, and regions that overlap.
 */
TraceImage readTrace(const std::string &path);

/**
 * A Workload replaying a recorded trace. Replays loop: when the
 * recorded ops are exhausted the stream restarts from op 0 (the
 * wrap count is exposed for callers that care).
 */
class TraceWorkload : public Workload
{
  public:
    /** Load from @p path. */
    explicit TraceWorkload(const std::string &path);

    /** Adopt an in-memory image. */
    explicit TraceWorkload(TraceImage image);

    const TraceOp &next() override;
    const WorkloadProfile &profile() const override
    {
        return image_.profile;
    }
    void reset() override;
    std::vector<uint64_t> liveLines(size_t region_idx) const override;

    /** Recorded ops in the file. */
    uint64_t length() const { return image_.ops.size(); }

    /** Times the replay wrapped back to op 0. */
    uint64_t wraps() const { return wraps_; }

  private:
    TraceImage image_;
    size_t position_ = 0;
    uint64_t wraps_ = 0;
};

} // namespace secproc::sim

#endif // SECPROC_SIM_TRACE_IO_HH
