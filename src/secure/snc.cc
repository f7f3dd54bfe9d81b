/**
 * @file
 * Sequence Number Cache implementation.
 *
 * Internally reuses the generic set-associative Cache as the tag
 * directory, one "line" per sector of sector_lines consecutive L2
 * lines (span = l2_line_size * sector_lines, so consecutive sectors
 * map to consecutive sets). The sequence numbers live in one flat
 * slot array indexed by the directory entry the Cache reports; with
 * the default sector_lines = 1 this reduces to the paper's
 * one-tag-per-entry organization.
 */

#include "secure/snc.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::secure
{

namespace
{

mem::CacheConfig
makeCacheConfig(const SncConfig &config)
{
    fatal_if(config.bytes_per_entry == 0 ||
                 config.capacity_bytes % config.bytes_per_entry != 0,
             "SNC capacity must be a multiple of the entry size");
    fatal_if(config.sector_lines == 0,
             "SNC sectors need at least one line");
    fatal_if(config.entries() % config.sector_lines != 0,
             "SNC entry count must be a multiple of the sector size");
    mem::CacheConfig cache;
    cache.name = "snc";
    // One directory tag per sector; the directory is keyed by L2
    // line address so geometry uses the sector span.
    cache.line_size = static_cast<uint32_t>(config.sectorSpan());
    cache.size_bytes = config.sectors() * config.sectorSpan();
    cache.assoc = config.assoc;
    cache.policy = config.allow_replacement
                       ? mem::ReplacementPolicy::Lru
                       : mem::ReplacementPolicy::NoReplacement;
    return cache;
}

} // namespace

// cache_ is built first and rejects a sector span that is not a power
// of two, so the L2 line size and sector_lines are powers of two too
// and slot arithmetic is shifts and masks.
SequenceNumberCache::SequenceNumberCache(const SncConfig &config)
    : config_(config), cache_(makeCacheConfig(config)),
      line_shift_(util::floorLog2(config.l2_line_size)),
      span_mask_(config.sectorSpan() - 1),
      slots_(config.entries(), kEmptySlot),
      victim_buf_(config.sector_lines),
      cofetch_buf_(config.sector_lines - 1)
{}

std::optional<uint32_t>
SequenceNumberCache::query(uint64_t line_va)
{
    const uint32_t entry = cache_.lookup(line_va, /*write=*/false);
    const uint32_t seqnum =
        entry == mem::kNoEntry
            ? kEmptySlot
            : slots_[firstSlot(entry) + slotIndex(line_va)];
    // A resident tag whose slot for this line was never populated
    // does not hold the sequence number either: that is a miss too.
    if (seqnum == kEmptySlot) {
        ++query_misses_;
        return std::nullopt;
    }
    ++query_hits_;
    return seqnum;
}

bool
SequenceNumberCache::contains(uint64_t line_va) const
{
    return peek(line_va).has_value();
}

std::optional<uint32_t>
SequenceNumberCache::peek(uint64_t line_va) const
{
    const uint32_t entry = cache_.find(line_va);
    if (entry == mem::kNoEntry)
        return std::nullopt;
    const uint32_t slot = slots_[firstSlot(entry) + slotIndex(line_va)];
    if (slot == kEmptySlot)
        return std::nullopt;
    return slot;
}

std::optional<uint32_t>
SequenceNumberCache::increment(uint64_t line_va)
{
    const uint32_t entry = cache_.lookup(line_va, /*write=*/true);
    uint32_t *const slot =
        entry == mem::kNoEntry
            ? nullptr
            : &slots_[firstSlot(entry) + slotIndex(line_va)];
    if (slot == nullptr || *slot == kEmptySlot) {
        ++update_misses_;
        return std::nullopt;
    }
    ++update_hits_;
    if (*slot >= config_.maxSeqnum()) {
        // Pad-reuse hazard: hardware would trigger a re-encryption
        // epoch here. We wrap and count (see DESIGN.md section 7).
        ++overflows_;
        *slot = 1;
    } else {
        ++*slot;
    }
    return *slot;
}

SncInstall
SequenceNumberCache::install(uint64_t line_va, uint32_t seqnum)
{
    SncInstall result;

    // Resident sector: populate the slot in place, no displacement.
    if (const uint32_t entry = cache_.lookup(line_va, /*write=*/true);
        entry != mem::kNoEntry) {
        uint32_t &slot = slots_[firstSlot(entry) + slotIndex(line_va)];
        if (slot == kEmptySlot)
            ++occupancy_;
        slot = seqnum;
        result.installed = true;
        return result;
    }

    const auto victim = cache_.fill(line_va, /*dirty=*/false, 0);
    if (!victim.has_value()) {
        ++rejected_;
        return result; // no-replacement policy, set full
    }
    result.installed = true;

    // The new sector takes over the victim's entry: hand back every
    // populated slot for spilling and leave them all empty. A free
    // entry's slots are already empty.
    uint32_t *const slots = slots_.data() + firstSlot(victim->entry);
    if (victim->valid) {
        size_t spilled = 0;
        for (uint32_t i = 0; i < config_.sector_lines; ++i) {
            if (slots[i] == kEmptySlot)
                continue;
            victim_buf_[spilled++] = SncEntry{
                victim->line_addr + uint64_t{i} * config_.l2_line_size,
                slots[i]};
            slots[i] = kEmptySlot;
        }
        occupancy_ -= spilled;
        spills_ += spilled;
        result.victims = {victim_buf_.data(), spilled};
    }

    const size_t own = slotIndex(line_va);
    slots[own] = seqnum;
    ++occupancy_;
    const uint64_t base = line_va & ~span_mask_;
    size_t cofetched = 0;
    for (uint32_t i = 0; i < config_.sector_lines; ++i) {
        if (i != own) {
            cofetch_buf_[cofetched++] =
                base + uint64_t{i} * config_.l2_line_size;
        }
    }
    result.cofetched = {cofetch_buf_.data(), cofetched};
    return result;
}

bool
SequenceNumberCache::setEntry(uint64_t line_va, uint32_t seqnum)
{
    const uint32_t entry = cache_.find(line_va);
    if (entry == mem::kNoEntry)
        return false;
    uint32_t &slot = slots_[firstSlot(entry) + slotIndex(line_va)];
    if (slot == kEmptySlot)
        ++occupancy_;
    slot = seqnum;
    return true;
}

std::vector<SncEntry>
SequenceNumberCache::flush()
{
    std::vector<SncEntry> entries;
    entries.reserve(occupancy_);
    for (const mem::Victim &victim : cache_.invalidateAll()) {
        uint32_t *const slots = slots_.data() + firstSlot(victim.entry);
        for (uint32_t i = 0; i < config_.sector_lines; ++i) {
            if (slots[i] == kEmptySlot)
                continue;
            entries.push_back(SncEntry{
                victim.line_addr + uint64_t{i} * config_.l2_line_size,
                slots[i]});
            slots[i] = kEmptySlot;
        }
    }
    occupancy_ = 0;
    return entries;
}

uint64_t
SequenceNumberCache::linesUntilFull(uint64_t first_va) const
{
    fatal_if(!config_.allow_replacement,
             "a no-replacement SNC refuses installs once full");
    fatal_if((first_va & span_mask_) != 0,
             "history fillers must start on a sector boundary");
    // Filler sector q lands in set first_set + q (mod sets), so a
    // set's n-th filler is sector offset + (n - 1) * sets. A full
    // set stays full at every sector boundary after it: each later
    // filler displaces a full sector and is itself full once its
    // lines are in. The fill therefore stops at the end of the sector
    // that makes the last set full.
    const uint64_t sets = cache_.sets();
    const uint64_t first_set = cache_.setOf(first_va);
    uint64_t sectors = 0;
    for (uint64_t set = 0; set < sets; ++set) {
        uint64_t full = 0;
        cache_.walkSet(set, [&](uint32_t entry) {
            if (!cache_.entryLine(entry).has_value())
                return false;
            const uint32_t *const slots = slots_.data() + firstSlot(entry);
            for (uint32_t i = 0; i < config_.sector_lines; ++i) {
                if (slots[i] == kEmptySlot)
                    return false;
            }
            ++full;
            return true;
        });
        if (full == cache_.ways())
            continue;
        const uint64_t offset = (set - first_set) & (sets - 1);
        sectors = std::max(sectors, offset + (cache_.ways() - full - 1) *
                                                 sets + 1);
    }
    return sectors * config_.sector_lines;
}

void
SequenceNumberCache::resetStats()
{
    query_hits_.reset();
    query_misses_.reset();
    update_hits_.reset();
    update_misses_.reset();
    spills_.reset();
    rejected_.reset();
    overflows_.reset();
    cache_.resetStats();
}

void
SequenceNumberCache::registerMetrics(obs::MetricsRegistry &reg,
                                     const std::string &prefix) const
{
    reg.counter(prefix + ".query_hits", &query_hits_);
    reg.counter(prefix + ".query_misses", &query_misses_);
    reg.counter(prefix + ".update_hits", &update_hits_);
    reg.counter(prefix + ".update_misses", &update_misses_);
    reg.counter(prefix + ".spills", &spills_);
    reg.counter(prefix + ".rejected_installs", &rejected_);
    reg.counter(prefix + ".seqnum_overflows", &overflows_);
}

} // namespace secproc::secure
