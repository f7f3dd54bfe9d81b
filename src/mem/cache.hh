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
#include <optional>
#include <string>
#include <vector>

#include "util/radix_array.hh"
#include "util/random.hh"
#include "util/stats.hh"

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
    double missRate() const;
    void resetStats();
    /** @} */

    /** Register this cache's statistics with @p group. */
    void regStats(util::StatGroup &group) const;

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

} // namespace secproc::mem

#endif // SECPROC_MEM_CACHE_HH
