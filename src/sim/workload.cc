/**
 * @file
 * Synthetic workload generator implementation.
 */

#include "sim/workload.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::sim
{

namespace
{

/** Data regions are laid out from here with generous gaps. */
constexpr uint64_t kDataBase = 0x1000'0000;

} // namespace

SyntheticWorkload::SyntheticWorkload(WorkloadProfile profile,
                                     uint32_t line_size)
    : profile_(std::move(profile)), line_size_(line_size),
      rng_(profile_.rng_seed)
{
    fatal_if(profile_.regions.empty(),
             "workload '", profile_.name, "' needs at least one region");
    layoutRegions();
    buildDepTable();
    text_base_ = textBase();
    pc_ = text_base_;

    shapes_.resize(profile_.regions.size());
    states_.resize(profile_.regions.size());
    for (size_t i = 0; i < profile_.regions.size(); ++i) {
        const DataRegion &region = profile_.regions[i];
        RegionShape &shape = shapes_[i];
        shape.lines = std::max<uint64_t>(1, region.footprint / line_size_);
        shape.universe =
            region.window_lines == 0
                ? shape.lines
                : std::min<uint64_t>(region.window_lines, shape.lines);
        shape.footprint_pow2 =
            (region.footprint & (region.footprint - 1)) == 0;
        shape.footprint_mask = region.footprint - 1;
        shape.writes_per_line =
            std::max<uint32_t>(1, region.writes_per_line);
        shape.store = util::Rng::odds(region.store_frac);
        states_[i].drift_left = region.drift_interval;

        if (region.behavior == RegionBehavior::Zipf ||
            region.behavior == RegionBehavior::Chase) {
            // Scatter popularity ranks over the region's lines so
            // popular lines are not address-clustered (matches real
            // heap layouts; crucial for the no-replacement SNC
            // behaviour, which keeps the first-written lines).
            const uint64_t lines = shape.lines;
            auto &perm = states_[i].perm;
            perm.resize(lines);
            for (uint64_t j = 0; j < lines; ++j)
                perm[j] = static_cast<uint32_t>(j);
            util::Rng perm_rng(profile_.rng_seed ^ (0x9E37 + i));
            for (uint64_t j = lines; j > 1; --j)
                std::swap(perm[j - 1], perm[perm_rng.nextRange(j)]);
        }
    }

    double total = 0.0;
    for (const DataRegion &region : profile_.regions)
        total += region.weight;
    fatal_if(total <= 0.0, "region weights must sum to > 0");
    double cumulative = 0.0;
    for (const DataRegion &region : profile_.regions) {
        cumulative += region.weight / total;
        region_below_.push_back(util::Rng::threshold(cumulative));
    }

    // Each bound is the sum next() compared against, added left to
    // right.
    const WorkloadProfile &p = profile_;
    class_below_[0] = util::Rng::threshold(p.mem_frac);
    class_below_[1] = util::Rng::threshold(p.mem_frac + p.branch_frac);
    class_below_[2] =
        util::Rng::threshold(p.mem_frac + p.branch_frac + p.mul_frac);
    class_below_[3] = util::Rng::threshold(
        p.mem_frac + p.branch_frac + p.mul_frac + p.fp_frac);
    mispredict_ = util::Rng::odds(p.mispredict_rate);
    jump_ = util::Rng::odds(p.jump_frac);
    jump_slots_ = std::max<uint64_t>(1, p.code_footprint / 4);
}

void
SyntheticWorkload::layoutRegions()
{
    uint64_t base = kDataBase + profile_.va_offset;
    for (DataRegion &region : profile_.regions) {
        region.base = base;
        uint64_t extent = region.footprint;
        if (region.behavior == RegionBehavior::ConflictStream) {
            extent = std::max(
                extent, region.conflict_lines * region.conflict_stride);
        }
        base += util::alignUp(extent, 1 << 20) + (16ull << 20);
    }
}

void
SyntheticWorkload::buildDepTable()
{
    // Pre-sample the geometric distance distribution once; the hot
    // path then draws from the table with one rng byte.
    dep_table_.resize(256);
    util::Rng dep_rng(profile_.rng_seed ^ 0xDE9);
    for (auto &entry : dep_table_) {
        const uint64_t failures = dep_rng.nextGeometric(profile_.dep_p);
        entry = static_cast<uint8_t>(std::min<uint64_t>(failures, 199) + 1);
    }
}

void
SyntheticWorkload::reset()
{
    rng_ = util::Rng(profile_.rng_seed);
    generated_ = 0;
    pc_ = text_base_;
    last_fetch_line_ = 0;
    for (size_t i = 0; i < states_.size(); ++i) {
        RegionState &state = states_[i];
        state.cursor = 0;
        state.window_base = 0;
        state.drift_left = profile_.regions[i].drift_interval;
        state.last_chase_op = 0;
    }
    burst_region_ = 0;
    burst_remaining_ = 0;
}

size_t
SyntheticWorkload::pickRegion()
{
    const uint64_t k = rng_.next53();
    for (size_t i = 0; i < region_below_.size(); ++i) {
        if (k < region_below_[i])
            return i;
    }
    return region_below_.size() - 1;
}

uint8_t
SyntheticWorkload::fastDep()
{
    return dep_table_[rng_.next64() & 0xFF];
}

namespace
{

/**
 * x % m with a power-of-two fast path: region footprints and line
 * counts are almost always powers of two, and this runs several
 * times per generated memory instruction — an actual divide here is
 * one of the hottest single instructions in the simulator.
 */
inline uint64_t
fastMod(uint64_t x, uint64_t m)
{
    if ((m & (m - 1)) == 0)
        return x & (m - 1);
    return x % m;
}

} // namespace

uint64_t
SyntheticWorkload::regionAddress(size_t region_idx, bool *serialize_dep,
                                 bool *is_store)
{
    const DataRegion &region = profile_.regions[region_idx];
    const RegionShape &shape = shapes_[region_idx];
    RegionState &state = states_[region_idx];
    *serialize_dep = false;
    *is_store = rng_.chance(shape.store);

    uint64_t offset = 0;
    switch (region.behavior) {
      case RegionBehavior::Hot:
        offset = rng_.nextRange(region.footprint) & ~7ull;
        break;
      case RegionBehavior::Stream:
        offset = fastMod(state.cursor, region.footprint);
        state.cursor += region.stride;
        break;
      case RegionBehavior::Zipf:
      case RegionBehavior::Chase: {
        // Drift the reuse window through the footprint every
        // drift_interval accesses.
        if (region.drift_interval != 0 && --state.drift_left == 0) {
            state.drift_left = region.drift_interval;
            state.window_base = fastMod(
                state.window_base + region.drift_step_lines, shape.lines);
        }
        if (state.zipf.cdf.empty())
            state.zipf = util::Rng::zipf(shape.universe, region.zipf_s);
        const uint64_t rank = rng_.nextZipf(state.zipf);
        const uint64_t windowed =
            fastMod(state.window_base + rank, shape.lines);
        const uint64_t line = state.perm[windowed];
        offset = static_cast<uint64_t>(line) * line_size_ +
                 rng_.nextRange(16) * 8;
        *serialize_dep = region.behavior == RegionBehavior::Chase;
        break;
      }
      case RegionBehavior::ConflictStream: {
        const uint64_t idx =
            fastMod(state.cursor, region.conflict_lines);
        ++state.cursor;
        return region.base + idx * region.conflict_stride;
      }
      case RegionBehavior::WriteOnce: {
        if (*is_store) {
            // Advance to a fresh line every writes_per_line stores.
            const uint64_t line_index =
                state.cursor / shape.writes_per_line;
            ++state.cursor;
            offset = fastMod(line_index, shape.lines) * line_size_ +
                     rng_.nextRange(16) * 8;
        } else {
            // Loads touch recently produced lines (cache resident).
            const uint64_t produced =
                state.cursor / shape.writes_per_line;
            const uint64_t back = rng_.nextRange(8);
            const uint64_t line_index =
                produced > back ? produced - back : 0;
            offset = fastMod(line_index, shape.lines) * line_size_ +
                     rng_.nextRange(16) * 8;
        }
        break;
      }
    }
    const uint64_t wrapped = shape.footprint_pow2
                                 ? offset & shape.footprint_mask
                                 : offset % region.footprint;
    return region.base + wrapped;
}

std::vector<uint64_t>
SyntheticWorkload::liveLines(size_t region_idx) const
{
    const DataRegion &region = profile_.regions[region_idx];
    const RegionState &state = states_[region_idx];
    const uint64_t lines = shapes_[region_idx].lines;
    std::vector<uint64_t> live;

    switch (region.behavior) {
      case RegionBehavior::WriteOnce:
        break; // fresh lines only; nothing is live
      case RegionBehavior::Hot:
      case RegionBehavior::Stream:
        // Cyclic / uniform: everything is live; for streams the
        // highest addresses were touched most recently (the cursor
        // starts at 0, wrapping from the end).
        live.reserve(lines);
        for (uint64_t i = 0; i < lines; ++i)
            live.push_back(region.base + i * line_size_);
        break;
      case RegionBehavior::ConflictStream:
        live.reserve(region.conflict_lines);
        for (uint64_t i = 0; i < region.conflict_lines; ++i)
            live.push_back(region.base + i * region.conflict_stride);
        break;
      case RegionBehavior::Zipf:
      case RegionBehavior::Chase: {
        const uint64_t universe = shapes_[region_idx].universe;
        live.reserve(universe);
        // Least popular rank first so the most popular lines end up
        // most recently used.
        for (uint64_t rank = universe; rank-- > 0;) {
            const uint64_t windowed =
                (state.window_base + rank) % lines;
            live.push_back(region.base +
                           static_cast<uint64_t>(state.perm[windowed]) *
                               line_size_);
        }
        break;
      }
    }
    return live;
}

const TraceOp &
SyntheticWorkload::next()
{
    op_ = TraceOp{};

    // Fetch: 4-byte ops; emit fetch_line on line crossing.
    pc_ += 4;
    const uint64_t fetch_line = util::alignDown(pc_, line_size_);
    if (fetch_line != last_fetch_line_) {
        op_.fetch_line = fetch_line;
        last_fetch_line_ = fetch_line;
    }

    const uint64_t k = rng_.next53();
    if (k < class_below_[0]) {
        size_t region_idx;
        if (burst_remaining_ > 0) {
            region_idx = burst_region_;
            --burst_remaining_;
        } else {
            region_idx = pickRegion();
            const uint32_t burst =
                profile_.regions[region_idx].burst_length;
            if (burst > 1) {
                burst_region_ = region_idx;
                burst_remaining_ = burst - 1;
            }
        }
        bool serialize = false;
        bool is_store = false;
        op_.addr = regionAddress(region_idx, &serialize, &is_store);
        op_.cls = is_store ? OpClass::Store : OpClass::Load;
        if (serialize && !is_store) {
            // Pointer chase: depend on the previous chase load of
            // this region so misses cannot overlap.
            RegionState &state = states_[region_idx];
            const uint64_t since = generated_ - state.last_chase_op;
            if (state.last_chase_op != 0 && since < 200)
                op_.dep1 = static_cast<uint8_t>(since);
            state.last_chase_op = generated_;
        } else {
            op_.dep1 = fastDep();
        }
    } else if (k < class_below_[1]) {
        op_.cls = OpClass::Branch;
        op_.dep1 = fastDep();
        op_.mispredict = rng_.chance(mispredict_);
        if (rng_.chance(jump_))
            pc_ = text_base_ + rng_.nextRange(jump_slots_) * 4;
    } else if (k < class_below_[2]) {
        op_.cls = OpClass::IntMul;
        op_.dep1 = fastDep();
        op_.dep2 = fastDep();
    } else if (k < class_below_[3]) {
        op_.cls = OpClass::FpAlu;
        op_.dep1 = fastDep();
        op_.dep2 = fastDep();
    } else {
        op_.cls = OpClass::IntAlu;
        op_.dep1 = fastDep();
    }

    ++generated_;
    return op_;
}

} // namespace secproc::sim
