/**
 * @file
 * Generic set-associative cache model.
 *
 * One implementation serves every cache-shaped structure in secproc:
 * L1I, L1D, the unified L2 and the Sequence Number Cache (SNC). It
 * tracks tags, dirtiness, a per-line 64-bit metadata word (the L2
 * uses it to remember each line's virtual address as the paper's
 * Section 4 requires; the SNC stores the sequence number itself) and
 * supports LRU, FIFO, Random and no-replacement policies.
 *
 * The cache stores no data bytes: functional contents live in the
 * OnChipStore / MainMemory pair so the timing model stays compact.
 */

#ifndef SECPROC_MEM_CACHE_HH
#define SECPROC_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "util/radix_array.hh"
#include "util/random.hh"
#include "util/stats.hh"

namespace secproc::obs
{
class MetricsRegistry;
}

namespace secproc::mem
{

/** Victim selection policy. */
enum class ReplacementPolicy
{
    Lru,
    Fifo,
    Random,
    /**
     * Never evict: fills fail once the set is full. This is the
     * paper's "no replacement" SNC operating policy (Section 4.1).
     */
    NoReplacement,
};

/** Static geometry and policy of one cache. */
struct CacheConfig
{
    std::string name = "cache";
    uint64_t size_bytes = 32 * 1024;
    /** Associativity; 0 means fully associative. */
    uint32_t assoc = 4;
    uint32_t line_size = 64;
    ReplacementPolicy policy = ReplacementPolicy::Lru;

    /** Number of lines implied by the geometry. */
    uint64_t numLines() const { return size_bytes / line_size; }
};

/** Entry index meaning "no directory entry" (a miss). */
inline constexpr uint32_t kNoEntry = ~uint32_t{0};

/** Description of a line displaced by a fill. */
struct Victim
{
    bool valid = false;   ///< a valid line was displaced
    bool dirty = false;   ///< it held modified data
    uint64_t line_addr = 0; ///< its line address (byte addr of line start)
    uint64_t meta = 0;    ///< its metadata word
    /**
     * Directory entry the line occupied. From fill() this is the entry
     * the new line now occupies, whether or not anything was displaced.
     */
    uint32_t entry = kNoEntry;
};

/** What one access of a bulk fill (Cache::fillRun) did, in run order. */
struct RunAccess
{
    enum class Kind : uint8_t
    {
        /** First access of its line: the line was filled. */
        Filled,
        /** A later access of a line the run filled. */
        Hit,
        /** The fill was refused (NoReplacement, set full). */
        Rejected,
    };
    Kind kind = Kind::Filled;
    /** Filled only: a valid line was evicted to make room. */
    bool displaced = false;
    /**
     * Entry holding the line once the whole run is in; kNoEntry when
     * a later fill of the same run evicted it, or the fill was
     * refused.
     */
    uint32_t entry = kNoEntry;
};

/**
 * Set-associative cache directory.
 *
 * All public methods take byte addresses; alignment to lines happens
 * internally. Addresses sharing a line map to the same entry.
 *
 * Entries are numbered set * ways + way, below config().numLines().
 * A line keeps its entry index until it is evicted or invalidated,
 * so a client can keep per-entry side data in a flat array (the SNC
 * keeps its sequence-number slots that way).
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Look up the line for @p addr, counting a hit or miss; a hit
     * refreshes recency and, with @p write, marks the line dirty.
     * @return the line's entry index, or kNoEntry on a miss.
     */
    uint32_t lookup(uint64_t addr, bool write);

    /** @return true and refresh recency if the line is present. */
    bool access(uint64_t addr, bool write)
    {
        return lookup(addr, write) != kNoEntry;
    }

    /**
     * Entry index of @p addr's line, or kNoEntry, with no recency or
     * statistics side effects.
     */
    uint32_t find(uint64_t addr) const
    {
        return findIdx(addr >> line_shift_);
    }

    /** Presence test with no recency or statistics side effects. */
    bool probe(uint64_t addr) const { return find(addr) != kNoEntry; }

    /**
     * Insert the line for @p addr.
     *
     * @param addr Byte address anywhere in the line.
     * @param dirty Install in modified state.
     * @param meta Metadata word stored with the line.
     * @return The displaced victim, its entry set to the entry the
     *         line now occupies; or std::nullopt if the policy is
     *         NoReplacement and the set was full (fill rejected).
     */
    std::optional<Victim> fill(uint64_t addr, bool dirty, uint64_t meta);

    /** Remove a line if present. @return its victim record. */
    Victim invalidate(uint64_t addr);

    /**
     * Drop every line; @return all valid victims (for flushes) in
     * ascending entry order.
     */
    std::vector<Victim> invalidateAll();

    /** Read the metadata word of a resident line. */
    std::optional<uint64_t> meta(uint64_t addr) const;

    /** Update the metadata word of a resident line. */
    bool setMeta(uint64_t addr, uint64_t value);

    /** Mark a resident line dirty (store to an already-present line). */
    bool setDirty(uint64_t addr);

    /**
     * Bulk write-allocate of a fresh run: for each i < @p count in
     * order, @p probes write lookups of first + i * stride and, when
     * they miss, fill(addr, false, 0). The lines, the recency lists and
     * every statistic end exactly as those calls leave them, but each
     * set the run touches is written in one pass over its ways. Fills
     * take a set's ways from its recency tail in turn, so the set ends
     * holding its last fills, newest first, in its recency list
     * rotated by the number of fills it took.
     *
     * No line of the run may be resident. The stride is at most a
     * line (consecutive lines, each accessed one or more times) or a
     * multiple of one (one access per line), and the run must not wrap
     * the address space; the policy is LRU, FIFO or NoReplacement.
     * @p displaced receives every line resident before the run that
     * the run evicts, with the entry it held; then @p access(i, const
     * RunAccess &) is called for every access in run order.
     */
    template <class Access>
    void fillRun(uint64_t first, uint64_t count, uint64_t stride,
                 uint32_t probes,
                 const std::function<void(const Victim &)> &displaced,
                 Access &&access);

    /** Sets and ways per set. @{ */
    uint64_t sets() const { return num_sets_; }
    uint32_t ways() const { return ways_; }
    /** @} */

    /** Set that @p addr's line maps to. */
    uint64_t setOf(uint64_t addr) const
    {
        return setIndex(addr >> line_shift_);
    }

    /**
     * Walk set @p set's ways from most to least recently used (invalid
     * ways last), calling fn(entry) until it returns false.
     */
    template <class Fn>
    void
    walkSet(uint64_t set, Fn &&fn) const
    {
        for (uint32_t idx = head_[set]; idx != kNoEntry; idx = next_[idx]) {
            if (!fn(idx))
                return;
        }
    }

    /** Line address held by @p entry, or nullopt if the way is invalid. */
    std::optional<uint64_t>
    entryLine(uint32_t entry) const
    {
        if (!(tag_words_[entry] & 1))
            return std::nullopt;
        return (tag_words_[entry] >> 1) << line_shift_;
    }

    /** Number of currently valid lines. */
    uint64_t occupancy() const { return occupancy_; }

    const CacheConfig &config() const { return config_; }

    /** Byte address of the first byte of @p addr's line. */
    uint64_t lineAlign(uint64_t addr) const;

    /** Statistics. @{ */
    uint64_t hits() const { return hits_.value(); }
    uint64_t misses() const { return misses_.value(); }
    uint64_t evictions() const { return evictions_.value(); }
    uint64_t dirtyEvictions() const { return dirty_evictions_.value(); }
    uint64_t rejectedFills() const { return rejected_fills_.value(); }
    void resetStats();
    /** @} */

    /**
     * Bind hits, misses, evictions, dirty_evictions and
     * rejected_fills into @p reg as "<prefix>.<name>".
     */
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    struct Line
    {
        bool dirty = false;
        uint64_t meta = 0;
    };

    CacheConfig config_;
    unsigned line_shift_;
    uint64_t num_sets_;
    uint32_t ways_;
    std::vector<Line> lines_; ///< [set * ways_ + way]
    /**
     * (tag << 1) | valid, one word per way, indexed like lines_. The
     * tag scan is the hottest loop in the simulator; packing tag and
     * valid into one contiguous word keeps a whole set's tags in a
     * single cache line (a 24-byte struct spread them over three).
     */
    std::vector<uint64_t> tag_words_;
    uint64_t occupancy_ = 0;
    util::Rng victim_rng_;

    /**
     * Low-associativity sets are probed by scanning their ways
     * directly (a handful of contiguous tag compares beats any
     * lookup structure); only wide/fully-associative instances (the
     * SNC, 32-way configurations) keep the radix directory.
     */
    bool scan_ways_;
    /**
     * line number -> entry index, wide instances only. Radix-keyed
     * like the memory plane's other line tables: lines arrive in
     * sequential runs, which stay inside one hot group.
     */
    util::RadixArray<uint32_t> map_;
    /** Per-set intrusive recency lists (head = MRU, tail = LRU). */
    std::vector<uint32_t> next_;
    std::vector<uint32_t> prev_;
    std::vector<uint32_t> head_;
    std::vector<uint32_t> tail_;

    util::Counter hits_;
    util::Counter misses_;
    util::Counter evictions_;
    util::Counter dirty_evictions_;
    util::Counter rejected_fills_;

    uint64_t setIndex(uint64_t line_number) const;
    uint32_t findIdx(uint64_t line_number) const;
    void unlink(uint64_t set, uint32_t idx);
    void pushFront(uint64_t set, uint32_t idx);
    void pushBack(uint64_t set, uint32_t idx);

    /**
     * A fillRun's lines: the m-th distinct line is first_line + m *
     * step (m < lines), and it maps to the same set as line m mod
     * 2^period_shift, the period of the run's set sequence.
     */
    struct RunShape
    {
        uint64_t first_line = 0;
        uint64_t lines = 0;
        uint64_t step = 1;
        unsigned period_shift = 0;
        /** Sets the run touches: min(lines, period). */
        uint64_t touched = 0;
        /** One access per line (stride of at least a line). */
        bool per_access = false;
    };

    RunShape runShape(uint64_t first, uint64_t count,
                      uint64_t stride) const;

    /**
     * fillRun's directory pass for the set of the run's line
     * @p first_m (< period): displace, retag and rotate in one walk
     * from the set's recency tail. @return the set's free ways the
     * run took (all its fills, under NoReplacement).
     */
    uint32_t placeRunSet(const RunShape &shape, uint64_t first_m,
                         const std::function<void(const Victim &)>
                             &displaced);
};

// The lookup path (lookup / find / findIdx and the LRU splice) runs
// a few hundred million times per full-length experiment; defining it
// here lets the per-access call chain inline into the simulator's
// memory path instead of crossing a translation unit per probe.

inline uint64_t
Cache::setIndex(uint64_t line_number) const
{
    return line_number & (num_sets_ - 1);
}

inline uint32_t
Cache::findIdx(uint64_t line_number) const
{
    if (scan_ways_) {
        const uint64_t want = (line_number << 1) | 1;
        const uint64_t base = setIndex(line_number) * ways_;
        const uint64_t *tags = tag_words_.data() + base;
        for (uint32_t way = 0; way < ways_; ++way) {
            if (tags[way] == want)
                return static_cast<uint32_t>(base + way);
        }
        return kNoEntry;
    }
    const uint32_t *it = map_.find(line_number);
    return it == nullptr ? kNoEntry : *it;
}

inline void
Cache::unlink(uint64_t set, uint32_t idx)
{
    const uint32_t p = prev_[idx];
    const uint32_t n = next_[idx];
    if (p != kNoEntry)
        next_[p] = n;
    else
        head_[set] = n;
    if (n != kNoEntry)
        prev_[n] = p;
    else
        tail_[set] = p;
    prev_[idx] = next_[idx] = kNoEntry;
}

inline void
Cache::pushFront(uint64_t set, uint32_t idx)
{
    prev_[idx] = kNoEntry;
    next_[idx] = head_[set];
    if (head_[set] != kNoEntry)
        prev_[head_[set]] = idx;
    head_[set] = idx;
    if (tail_[set] == kNoEntry)
        tail_[set] = idx;
}

inline uint32_t
Cache::lookup(uint64_t addr, bool write)
{
    const uint64_t line_number = addr >> line_shift_;
    const uint32_t idx = findIdx(line_number);
    if (idx == kNoEntry) {
        ++misses_;
        return kNoEntry;
    }
    ++hits_;
    // FIFO recency is fixed at insertion; only LRU tracks touches.
    // Re-touching the MRU line (the overwhelmingly common case) is a
    // no-op, so skip the list splice entirely.
    if (config_.policy != ReplacementPolicy::Fifo) {
        const uint64_t set = setIndex(line_number);
        if (head_[set] != idx) {
            unlink(set, idx);
            pushFront(set, idx);
        }
    }
    if (write)
        lines_[idx].dirty = true;
    return idx;
}

inline bool
Cache::setDirty(uint64_t addr)
{
    const uint32_t idx = find(addr);
    if (idx == kNoEntry)
        return false;
    lines_[idx].dirty = true;
    return true;
}

template <class Access>
void
Cache::fillRun(uint64_t first, uint64_t count, uint64_t stride,
               uint32_t probes,
               const std::function<void(const Victim &)> &displaced,
               Access &&access)
{
    if (count == 0)
        return;
    const RunShape shape = runShape(first, count, stride);
    const uint64_t period_mask = (uint64_t{1} << shape.period_shift) - 1;
    // Directory first: a free way the run took is one whose fill
    // displaced nothing, and under NoReplacement the fills past them
    // are the refused ones.
    std::vector<uint32_t> taken(shape.touched);
    for (uint64_t m = 0; m < shape.touched; ++m)
        taken[m] = placeRunSet(shape, m, displaced);

    const bool refuse = config_.policy == ReplacementPolicy::NoReplacement;
    util::RadixArray<uint32_t>::Cursor directory(map_);
    uint64_t line = 0;
    RunAccess state;
    bool dirty = false;
    for (uint64_t i = 0; i < count; ++i) {
        const uint64_t line_number = (first + i * stride) >> line_shift_;
        if (i > 0 && line_number == line) {
            if (state.kind == RunAccess::Kind::Rejected) {
                misses_ += probes;
                ++rejected_fills_;
            } else {
                // A write hit on the set's newest line: no recency
                // change, but the line is dirty from here on.
                state.kind = RunAccess::Kind::Hit;
                state.displaced = false;
                hits_ += probes;
                if (!dirty) {
                    dirty = true;
                    if (state.entry != kNoEntry)
                        lines_[state.entry].dirty = true;
                    else
                        ++dirty_evictions_; // the run evicts it later
                }
            }
            access(i, state);
            continue;
        }
        line = line_number;
        dirty = false;
        const uint64_t m =
            shape.per_access ? i : line_number - shape.first_line;
        const uint64_t first_m = m & period_mask;
        const uint64_t j = m >> shape.period_shift; // fill index in set
        const uint64_t fills =
            (shape.lines - first_m + period_mask) >> shape.period_shift;
        misses_ += probes;
        state = RunAccess{};
        if (refuse && j >= taken[first_m]) {
            state.kind = RunAccess::Kind::Rejected;
            ++rejected_fills_;
        } else {
            state.displaced = !refuse && j >= taken[first_m];
            if (refuse || j + ways_ >= fills) {
                state.entry = scan_ways_ ? findIdx(line_number)
                                         : *directory.find(line_number);
            } else {
                ++evictions_; // fill j + ways_ of the run evicts it
            }
        }
        access(i, state);
    }
}

} // namespace secproc::mem

#endif // SECPROC_MEM_CACHE_HH
