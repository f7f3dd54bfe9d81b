/**
 * @file
 * The Sequence Number Cache (SNC) — the paper's central hardware
 * structure (Section 4).
 *
 * The SNC sits inside the security boundary below L2 and remembers,
 * for each L2 line that has gone off chip, the sequence number used
 * to form that line's one-time-pad seed. It is indexed by the line's
 * *virtual* address. Capacity is expressed in bytes with 2-byte
 * entries by default (paper Section 5.1: a 64KB SNC holds 32K
 * sequence numbers and thus covers 4MB of memory).
 *
 * Two operating policies (Section 4.1):
 *  - LRU replacement: evicted sequence numbers spill to an encrypted
 *    in-memory table; misses fetch them back.
 *  - No replacement: once full, lines without entries fall back to
 *    XOM-style direct encryption.
 */

#ifndef SECPROC_SECURE_SNC_HH
#define SECPROC_SECURE_SNC_HH

#include <compare>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mem/cache.hh"
#include "util/stats.hh"

namespace secproc::obs
{
class MetricsRegistry;
}

namespace secproc::secure
{

/** Static SNC geometry and policy. */
struct SncConfig
{
    /** Total data capacity in bytes (32KB / 64KB / 128KB in Fig. 6). */
    uint64_t capacity_bytes = 64 * 1024;

    /** Bytes per sequence number (paper: 2). */
    uint32_t bytes_per_entry = 2;

    /** Associativity; 0 = fully associative (Fig. 7 compares 32). */
    uint32_t assoc = 0;

    /** true = LRU replacement; false = no-replacement policy. */
    bool allow_replacement = true;

    /** L2 line size; consecutive L2 lines map to consecutive sets. */
    uint32_t l2_line_size = 128;

    /**
     * Consecutive L2 lines sharing one directory tag (1 = the
     * paper's per-line organization). Sectoring cuts the tag
     * overhead CactiLite charges (one tag per sector instead of per
     * entry) and acts as a spatial prefetch — a sector miss brings
     * its neighbours' sequence numbers along — at the cost of
     * coarser eviction (a victim sector spills every valid entry).
     */
    uint32_t sector_lines = 1;

    /** Number of sequence numbers the SNC can hold. */
    uint64_t entries() const { return capacity_bytes / bytes_per_entry; }

    /** Directory tags (sectors) implied by the geometry. */
    uint64_t sectors() const { return entries() / sector_lines; }

    /** Bytes of address space one sector tag covers. */
    uint64_t sectorSpan() const
    {
        return uint64_t{l2_line_size} * sector_lines;
    }

    /** Bytes of memory whose lines are covered when fully resident. */
    uint64_t coverageBytes() const { return entries() * l2_line_size; }

    /** Largest storable sequence number. */
    uint32_t maxSeqnum() const
    {
        return bytes_per_entry >= 4
                   ? 0xFFFFFFFFu
                   : (1u << (8 * bytes_per_entry)) - 1;
    }

    auto operator<=>(const SncConfig &) const = default;
};

/** One flushed or spilled entry (context switches, sector victims). */
struct SncEntry
{
    uint64_t line_va = 0;
    uint32_t seqnum = 0;
};

/**
 * Result of installing an entry (query- or update-miss fill).
 *
 * The spans view scratch buffers owned by the SequenceNumberCache, so
 * an install allocates nothing; they stay valid until that cache's
 * next install().
 */
struct SncInstall
{
    bool installed = false; ///< false only under no-replacement

    /**
     * Every displaced entry, to spill (at most one unless the SNC is
     * sectored), in slot order.
     */
    std::span<const SncEntry> victims;

    /**
     * Sectored only: the other L2 lines of the newly allocated
     * sector. The engine populates the ones it has sequence numbers
     * for (the sector fetch brings them from memory together).
     */
    std::span<const uint64_t> cofetched;
};

/**
 * On-chip sequence-number cache.
 */
class SequenceNumberCache
{
  public:
    explicit SequenceNumberCache(const SncConfig &config);

    /** Look up the sequence number for a line; refreshes recency. */
    std::optional<uint32_t> query(uint64_t line_va);

    /** Presence probe without recency or statistics effects. */
    bool contains(uint64_t line_va) const;

    /**
     * Read a resident line's sequence number without recency or
     * statistics effects (pad-prediction probes must not perturb
     * replacement state).
     */
    std::optional<uint32_t> peek(uint64_t line_va) const;

    /**
     * Increment a resident line's sequence number (update hit,
     * Equation 4). @return the new value, or std::nullopt on miss.
     * Wraps to 1 on overflow and counts the event — a wrap would
     * reuse pads, so real hardware must re-encrypt; see DESIGN.md.
     */
    std::optional<uint32_t> increment(uint64_t line_va);

    /**
     * Install a (line, seqnum) pair, displacing a victim sector if
     * needed. Under the no-replacement policy the install is refused
     * when the set is full. Populating a slot of an already-resident
     * sector never displaces anything. The result's spans are valid
     * until the next install().
     */
    SncInstall install(uint64_t line_va, uint32_t seqnum);

    /**
     * Populate one slot of an already-resident sector (engine-side
     * sector-fetch completion). @return false if the sector is not
     * resident.
     */
    bool setEntry(uint64_t line_va, uint32_t seqnum);

    /** Remove every entry (flush-style context switch). */
    std::vector<SncEntry> flush();

    /**
     * Bulk update miss of never-written lines: the @p count lines
     * first_va + i * stride, no two in one L2 line and none in a
     * resident sector, end exactly as count successive increment(line)
     * misses and install(line, seqnum) calls leave them, statistics
     * included. The stride is at most a sector or a multiple of one.
     * @p spill receives every entry those installs would displace
     * (not in displacement order); @p line(i, installed, spilled)
     * reports each line in run order: installed is false when the
     * no-replacement policy refused it, spilled when its install
     * displaced a populated sector. Cofetch stays the caller's: the
     * run's sectors must hold no sequence number the caller would
     * populate.
     */
    template <class Spill, class Line>
    void warmRun(uint64_t first_va, uint64_t count, uint64_t stride,
                 uint32_t seqnum, Spill &&spill, Line &&line);

    /**
     * LRU only: how many never-written lines, from the sector-aligned
     * @p first_va on, successive install() calls take until
     * occupancy() reaches entries() (the machine's history fill).
     * Computed per set: a set is full once fillers have displaced
     * every way outside the run of fully populated sectors at its MRU
     * end, and the last set to get there fixes the stop point.
     */
    uint64_t linesUntilFull(uint64_t first_va) const;

    /**
     * Visit every resident sector, set by set, most recently used
     * first: fn(entry, sector_va).
     */
    template <class Fn>
    void
    forEachSector(Fn &&fn) const
    {
        for (uint64_t set = 0; set < cache_.sets(); ++set) {
            cache_.walkSet(set, [&](uint32_t entry) {
                const std::optional<uint64_t> sector =
                    cache_.entryLine(entry);
                if (sector.has_value())
                    fn(entry, *sector);
                return sector.has_value(); // invalid ways come last
            });
        }
    }

    /** Currently resident (populated) entries. */
    uint64_t occupancy() const { return occupancy_; }

    /** Currently resident sector tags. */
    uint64_t sectorOccupancy() const { return cache_.occupancy(); }

    /** The sector tag directory (its statistics are not exported). */
    const mem::Cache &directory() const { return cache_; }

    const SncConfig &config() const { return config_; }

    /** Statistics. @{ */
    uint64_t queryHits() const { return query_hits_.value(); }
    uint64_t queryMisses() const { return query_misses_.value(); }
    uint64_t updateHits() const { return update_hits_.value(); }
    uint64_t updateMisses() const { return update_misses_.value(); }
    uint64_t spills() const { return spills_.value(); }
    uint64_t rejectedInstalls() const { return rejected_.value(); }
    uint64_t overflows() const { return overflows_.value(); }
    void resetStats();
    /** @} */

    /**
     * Bind the query, update, spill, rejected_installs and
     * seqnum_overflows counters into @p reg as "<prefix>.<name>".
     */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    /** Sentinel for a sector slot holding no sequence number. */
    static constexpr uint32_t kEmptySlot = ~uint32_t{0};

    SncConfig config_;
    /** Tag directory: one entry per sector, keyed by sector span. */
    mem::Cache cache_;
    /** log2 of the L2 line size and mask of the sector span. */
    unsigned line_shift_;
    uint64_t span_mask_;

    /**
     * Sequence-number slots, sector_lines per directory entry:
     * entry e's line i lives at slots_[e * sector_lines + i]
     * (kEmptySlot = none). The directory reports the entry of every
     * hit, fill and flush victim, so each operation costs one
     * directory probe plus one array access.
     */
    std::vector<uint32_t> slots_;
    uint64_t occupancy_ = 0;

    /** install()'s result buffers, sized once at construction. @{ */
    std::vector<SncEntry> victim_buf_;
    std::vector<uint64_t> cofetch_buf_;
    /** @} */

    /** Index in slots_ of directory entry @p entry's first slot. */
    size_t firstSlot(uint32_t entry) const
    {
        return size_t{entry} * config_.sector_lines;
    }

    /** Slot index of @p line_va within its sector. */
    size_t slotIndex(uint64_t line_va) const
    {
        return (line_va & span_mask_) >> line_shift_;
    }

    util::Counter query_hits_;
    util::Counter query_misses_;
    util::Counter update_hits_;
    util::Counter update_misses_;
    util::Counter spills_;
    util::Counter rejected_;
    util::Counter overflows_;
};

template <class Spill, class Line>
void
SequenceNumberCache::warmRun(uint64_t first_va, uint64_t count,
                             uint64_t stride, uint32_t seqnum,
                             Spill &&spill, Line &&line)
{
    // Both calls probe the directory: the increment misses (or finds
    // an empty slot), then the install allocates or populates.
    cache_.fillRun(
        first_va, count, stride, /*probes=*/2,
        [&](const mem::Victim &victim) {
            uint32_t *const slots =
                slots_.data() + firstSlot(victim.entry);
            for (uint32_t i = 0; i < config_.sector_lines; ++i) {
                if (slots[i] == kEmptySlot)
                    continue;
                spill(SncEntry{victim.line_addr +
                                   uint64_t{i} * config_.l2_line_size,
                               slots[i]});
                slots[i] = kEmptySlot;
                --occupancy_;
                ++spills_;
            }
        },
        [&](uint64_t i, const mem::RunAccess &access) {
            ++update_misses_;
            const uint64_t line_va = first_va + i * stride;
            if (access.kind == mem::RunAccess::Kind::Rejected) {
                ++rejected_;
                line(i, false, false);
                return;
            }
            if (access.entry != mem::kNoEntry) {
                slots_[firstSlot(access.entry) + slotIndex(line_va)] =
                    seqnum;
                ++occupancy_;
            } else {
                // A later line of the run displaced this one's sector.
                spill(SncEntry{line_va >> line_shift_ << line_shift_,
                               seqnum});
                ++spills_;
            }
            line(i, true,
                 access.kind == mem::RunAccess::Kind::Filled &&
                     access.displaced);
        });
}

} // namespace secproc::secure

#endif // SECPROC_SECURE_SNC_HH
