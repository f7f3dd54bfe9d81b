/**
 * @file
 * Set-associative cache directory implementation.
 *
 * Lookups scan the set's ways directly at low associativity (L1/L2:
 * a few contiguous tag compares) and fall back to a radix directory
 * keyed by line number for wide instances, so even the fully
 * associative 32K-entry SNC costs O(1) per operation. Victim
 * selection is constant-time via per-set intrusive recency lists.
 */

#include "mem/cache.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::mem
{

Cache::Cache(const CacheConfig &config)
    : config_(config),
      victim_rng_(0xC0FFEEull ^ std::hash<std::string>{}(config.name))
{
    fatal_if(!util::isPowerOfTwo(config_.line_size),
             config_.name, ": line size must be a power of two, got ",
             config_.line_size);
    fatal_if(config_.size_bytes % config_.line_size != 0,
             config_.name, ": size must be a multiple of the line size");
    line_shift_ = util::floorLog2(config_.line_size);

    const uint64_t num_lines = config_.numLines();
    fatal_if(num_lines == 0, config_.name, ": zero lines");

    ways_ = config_.assoc == 0 ? static_cast<uint32_t>(num_lines)
                               : config_.assoc;
    fatal_if(num_lines % ways_ != 0,
             config_.name, ": lines (", num_lines,
             ") not divisible by associativity (", ways_, ")");
    num_sets_ = num_lines / ways_;
    fatal_if(!util::isPowerOfTwo(num_sets_),
             config_.name, ": set count must be a power of two, got ",
             num_sets_);

    lines_.resize(num_lines);
    tag_words_.assign(num_lines, 0);
    next_.assign(num_lines, kNoEntry);
    prev_.assign(num_lines, kNoEntry);
    head_.assign(num_sets_, kNoEntry);
    tail_.assign(num_sets_, kNoEntry);
    // Link every way into its set's recency list (all invalid, so
    // order within the list is arbitrary at start).
    for (uint64_t set = 0; set < num_sets_; ++set) {
        for (uint32_t way = 0; way < ways_; ++way)
            pushFront(set, static_cast<uint32_t>(set * ways_ + way));
    }
    // 8 ways = at most three cache lines of tags per probe; beyond
    // that (the fully associative SNC) the directory wins.
    scan_ways_ = ways_ <= 8;
}

uint64_t
Cache::lineAlign(uint64_t addr) const
{
    return addr & ~util::mask(line_shift_);
}

void
Cache::pushBack(uint64_t set, uint32_t idx)
{
    next_[idx] = kNoEntry;
    prev_[idx] = tail_[set];
    if (tail_[set] != kNoEntry)
        next_[tail_[set]] = idx;
    tail_[set] = idx;
    if (head_[set] == kNoEntry)
        head_[set] = idx;
}

Cache::RunShape
Cache::runShape(uint64_t first, uint64_t count, uint64_t stride) const
{
    panic_if(config_.policy == ReplacementPolicy::Random,
             config_.name, ": a bulk fill needs a fixed victim order");
    fatal_if(count > 1 && (count - 1) > (~uint64_t{0} - first) /
                                            std::max<uint64_t>(stride, 1),
             config_.name, ": bulk fill run wraps the address space");
    fatal_if(stride > config_.line_size && stride % config_.line_size != 0,
             config_.name, ": bulk fill stride ", stride,
             " is neither within a line nor a multiple of one");
    RunShape shape;
    shape.first_line = first >> line_shift_;
    shape.per_access = stride >= config_.line_size;
    if (shape.per_access) {
        shape.lines = count;
        shape.step = stride >> line_shift_;
    } else {
        shape.lines =
            ((first + (count - 1) * stride) >> line_shift_) -
            shape.first_line + 1;
    }
    // Consecutive lines step through the sets by `step`: the sequence
    // repeats after num_sets / gcd(step, num_sets) lines, a power of
    // two because num_sets is one.
    const uint64_t gcd =
        std::min<uint64_t>(shape.step & (~shape.step + 1), num_sets_);
    shape.period_shift = util::floorLog2(num_sets_ / gcd);
    shape.touched = std::min<uint64_t>(
        shape.lines, uint64_t{1} << shape.period_shift);
    return shape;
}

uint32_t
Cache::placeRunSet(const RunShape &shape, uint64_t first_m,
                   const std::function<void(const Victim &)> &displaced)
{
    const uint64_t set =
        setIndex(shape.first_line + first_m * shape.step);
    // Fills the run makes in this set: its lines first_m, first_m +
    // period, ... Fill j takes way R[j mod ways_] of the set's
    // recency list read from the tail (R), so each way ends holding
    // the last fill j < fills with j = r (mod ways_), and the first
    // min(fills, ways_) ways of R are the ones displaced.
    const uint64_t fills =
        (shape.lines - first_m + (uint64_t{1} << shape.period_shift) - 1) >>
        shape.period_shift;
    const bool refuse = config_.policy == ReplacementPolicy::NoReplacement;
    const uint64_t reached = std::min<uint64_t>(fills, ways_);
    // Fills the run evicts again (NoReplacement evicts nothing).
    const uint64_t evicted = refuse ? 0 : fills - reached;
    const uint64_t skew = evicted % ways_;
    uint32_t taken = 0;
    uint32_t newest = kNoEntry; // way of the last fill: the new head
    util::RadixArray<uint32_t>::Cursor directory(map_);
    uint32_t idx = tail_[set];
    for (uint64_t r = 0; r < reached; ++r, idx = prev_[idx]) {
        Line &slot = lines_[idx];
        if (tag_words_[idx] & 1) {
            if (refuse)
                break; // the set is full: the rest are refused
            Victim victim;
            victim.valid = true;
            victim.dirty = slot.dirty;
            victim.line_addr = (tag_words_[idx] >> 1) << line_shift_;
            victim.meta = slot.meta;
            victim.entry = idx;
            if (!scan_ways_)
                map_.erase(tag_words_[idx] >> 1);
            ++evictions_;
            if (slot.dirty)
                ++dirty_evictions_;
            --occupancy_;
            displaced(victim);
        } else {
            ++taken;
        }
        const uint64_t j =
            evicted + (r >= skew ? r - skew : r + ways_ - skew);
        const uint64_t line =
            shape.first_line +
            (first_m + (j << shape.period_shift)) * shape.step;
        tag_words_[idx] = (line << 1) | 1;
        slot = Line{};
        if (!scan_ways_)
            directory.touch(line) = idx;
        ++occupancy_;
        if (refuse || j + 1 == fills)
            newest = idx;
    }
    if (newest != kNoEntry && head_[set] != newest) {
        // Rotate the list: close it into a ring and reopen it just
        // before the newest fill.
        next_[tail_[set]] = head_[set];
        prev_[head_[set]] = tail_[set];
        tail_[set] = prev_[newest];
        next_[tail_[set]] = kNoEntry;
        prev_[newest] = kNoEntry;
        head_[set] = newest;
    }
    return taken;
}

std::optional<Victim>
Cache::fill(uint64_t addr, bool dirty, uint64_t meta)
{
    const uint64_t line_number = addr >> line_shift_;
    const uint64_t set = setIndex(line_number);

    if (const uint32_t resident = findIdx(line_number);
        resident != kNoEntry) {
        // Refill of a resident line: refresh in place.
        Line &line = lines_[resident];
        line.dirty = line.dirty || dirty;
        line.meta = meta;
        unlink(set, resident);
        pushFront(set, resident);
        Victim none;
        none.entry = resident;
        return none;
    }

    // Victim: the set's recency tail. Invalid ways are kept at the
    // tail (see invalidate), so free slots are consumed first.
    uint32_t idx = tail_[set];
    if (tag_words_[idx] & 1) {
        switch (config_.policy) {
          case ReplacementPolicy::NoReplacement:
            ++rejected_fills_;
            return std::nullopt;
          case ReplacementPolicy::Random: {
            // Any way of the set, not necessarily the LRU one.
            uint32_t hops = static_cast<uint32_t>(
                victim_rng_.nextRange(ways_));
            idx = head_[set];
            while (hops-- > 0 && next_[idx] != kNoEntry)
                idx = next_[idx];
            break;
          }
          case ReplacementPolicy::Lru:
          case ReplacementPolicy::Fifo:
            break; // tail is correct
        }
    }

    Victim victim;
    victim.entry = idx;
    Line &slot = lines_[idx];
    if (tag_words_[idx] & 1) {
        const uint64_t old_tag = tag_words_[idx] >> 1;
        victim.valid = true;
        victim.dirty = slot.dirty;
        victim.line_addr = old_tag << line_shift_;
        victim.meta = slot.meta;
        if (!scan_ways_)
            map_.erase(old_tag);
        ++evictions_;
        if (slot.dirty)
            ++dirty_evictions_;
        --occupancy_;
    }

    tag_words_[idx] = (line_number << 1) | 1;
    slot.dirty = dirty;
    slot.meta = meta;
    if (!scan_ways_)
        map_.insert(line_number, idx);
    unlink(set, idx);
    pushFront(set, idx);
    ++occupancy_;
    return victim;
}

Victim
Cache::invalidate(uint64_t addr)
{
    const uint64_t line_number = addr >> line_shift_;
    const uint32_t idx = findIdx(line_number);
    if (idx == kNoEntry)
        return Victim{};
    Line &line = lines_[idx];
    Victim victim;
    victim.entry = idx;
    victim.valid = true;
    victim.dirty = line.dirty;
    victim.line_addr = (tag_words_[idx] >> 1) << line_shift_;
    victim.meta = line.meta;
    tag_words_[idx] = 0;
    line.dirty = false;
    if (!scan_ways_)
        map_.erase(line_number);
    --occupancy_;
    // Park the freed way at the tail so it is the next victim.
    const uint64_t set = setIndex(line_number);
    unlink(set, idx);
    pushBack(set, idx);
    return victim;
}

std::vector<Victim>
Cache::invalidateAll()
{
    std::vector<Victim> victims;
    victims.reserve(occupancy_);
    for (size_t idx = 0; idx < lines_.size(); ++idx) {
        if (!(tag_words_[idx] & 1))
            continue;
        Line &line = lines_[idx];
        Victim victim;
        victim.entry = static_cast<uint32_t>(idx);
        victim.valid = true;
        victim.dirty = line.dirty;
        victim.line_addr = (tag_words_[idx] >> 1) << line_shift_;
        victim.meta = line.meta;
        victims.push_back(victim);
        tag_words_[idx] = 0;
        line.dirty = false;
    }
    if (!scan_ways_)
        map_.clear();
    occupancy_ = 0;
    return victims;
}

std::optional<uint64_t>
Cache::meta(uint64_t addr) const
{
    const uint32_t idx = find(addr);
    if (idx == kNoEntry)
        return std::nullopt;
    return lines_[idx].meta;
}

bool
Cache::setMeta(uint64_t addr, uint64_t value)
{
    const uint32_t idx = find(addr);
    if (idx == kNoEntry)
        return false;
    lines_[idx].meta = value;
    return true;
}

void
Cache::resetStats()
{
    hits_.reset();
    misses_.reset();
    evictions_.reset();
    dirty_evictions_.reset();
    rejected_fills_.reset();
}

void
Cache::registerMetrics(obs::MetricsRegistry &reg,
                       const std::string &prefix) const
{
    reg.counter(prefix + ".hits", &hits_);
    reg.counter(prefix + ".misses", &misses_);
    reg.counter(prefix + ".evictions", &evictions_);
    reg.counter(prefix + ".dirty_evictions", &dirty_evictions_);
    reg.counter(prefix + ".rejected_fills", &rejected_fills_);
}

} // namespace secproc::mem
