/**
 * @file
 * Virtual memory implementation: radix page tables behind a
 * direct-mapped micro-TLB, sorted region intervals.
 */

#include "mem/virtual_memory.hh"

#include <algorithm>
#include <cstdlib>

#include "util/logging.hh"

namespace secproc::mem
{

VirtualMemory::VirtualMemory()
{
    const char *env = std::getenv("SECPROC_TLB_VERIFY");
    verify_tlb_ = env != nullptr && env[0] != '\0' && env[0] != '0';
}

VirtualMemory::AddressSpace *
VirtualMemory::findSpace(Asid asid) const
{
    return asid < spaces_.size() ? spaces_[asid].get() : nullptr;
}

VirtualMemory::AddressSpace &
VirtualMemory::touchSpace(Asid asid)
{
    if (asid >= spaces_.size())
        spaces_.resize(static_cast<size_t>(asid) + 1);
    auto &slot = spaces_[asid];
    if (slot == nullptr)
        slot = std::make_unique<AddressSpace>();
    return *slot;
}

RegionKind
VirtualMemory::regionLookup(const AddressSpace *space, uint64_t vaddr,
                            uint64_t *interval_start,
                            uint64_t *interval_end) const
{
    *interval_start = 0;
    *interval_end = ~uint64_t{0};
    if (space == nullptr || space->regions.empty())
        return RegionKind::Protected;
    const auto &list = space->regions;
    // First region starting strictly after vaddr; its predecessor is
    // the only candidate that can contain vaddr.
    const auto it = std::upper_bound(
        list.begin(), list.end(), vaddr,
        [](uint64_t v, const Region &r) { return v < r.start; });
    if (it != list.begin()) {
        const Region &prev = *std::prev(it);
        if (vaddr < prev.end) {
            *interval_start = prev.start;
            *interval_end = prev.end;
            return prev.kind;
        }
        *interval_start = prev.end;
    }
    if (it != list.end())
        *interval_end = it->start;
    return RegionKind::Protected;
}

void
VirtualMemory::fillTlb(TlbEntry &entry, Asid asid, uint64_t vpn,
                       uint64_t frame) const
{
    entry.vpn = vpn;
    entry.frame = frame;
    entry.asid = asid;
    const uint64_t page_start = vpn * kPageSize;
    uint64_t lo = 0;
    uint64_t hi = 0;
    entry.kind = regionLookup(findSpace(asid), page_start, &lo, &hi);
    // Cache the attribute only when it holds for the whole page; a
    // page straddling a region boundary always re-walks.
    entry.kind_valid =
        lo <= page_start && hi - page_start >= kPageSize;
}

void
VirtualMemory::flushTlb() const
{
    tlb_.fill(TlbEntry{});
}

void
VirtualMemory::verifyTlbEntry(const TlbEntry &entry) const
{
    const AddressSpace *space = findSpace(entry.asid);
    const uint64_t *frame =
        space != nullptr ? space->frames.find(entry.vpn) : nullptr;
    fatal_if(frame == nullptr || *frame != entry.frame,
             "micro-TLB stale translation: asid=", entry.asid,
             " vpn=", entry.vpn, " cached frame=", entry.frame);
    if (!entry.kind_valid)
        return;
    const uint64_t page_start = entry.vpn * kPageSize;
    uint64_t lo = 0;
    uint64_t hi = 0;
    const RegionKind kind =
        regionLookup(space, page_start, &lo, &hi);
    fatal_if(kind != entry.kind || lo > page_start ||
                 hi - page_start < kPageSize,
             "micro-TLB stale region attribute: asid=", entry.asid,
             " vpn=", entry.vpn);
}

uint64_t
VirtualMemory::translate(Asid asid, uint64_t vaddr)
{
    const uint64_t vpn = vaddr / kPageSize;
    TlbEntry &entry = tlb_[tlbIndex(asid, vpn)];
    if (entry.vpn == vpn && entry.asid == asid) {
        ++tlb_hits_;
        if (verify_tlb_)
            verifyTlbEntry(entry);
        return entry.frame * kPageSize + vaddr % kPageSize;
    }
    ++tlb_misses_;
    AddressSpace &space = touchSpace(asid);
    uint64_t &frame = space.frames.touch(vpn);
    if (frame == 0)
        frame = allocateFrame(); // frame 0 reserved as "unmapped"
    fillTlb(entry, asid, vpn, frame);
    return frame * kPageSize + vaddr % kPageSize;
}

std::optional<uint64_t>
VirtualMemory::probeTranslate(Asid asid, uint64_t vaddr) const
{
    const uint64_t vpn = vaddr / kPageSize;
    TlbEntry &entry = tlb_[tlbIndex(asid, vpn)];
    if (entry.vpn == vpn && entry.asid == asid) {
        ++tlb_hits_;
        if (verify_tlb_)
            verifyTlbEntry(entry);
        return entry.frame * kPageSize + vaddr % kPageSize;
    }
    ++tlb_misses_;
    const AddressSpace *space = findSpace(asid);
    const uint64_t *frame =
        space != nullptr ? space->frames.find(vpn) : nullptr;
    if (frame == nullptr)
        return std::nullopt;
    fillTlb(entry, asid, vpn, *frame);
    return *frame * kPageSize + vaddr % kPageSize;
}

void
VirtualMemory::addRegion(Asid asid, const Region &region)
{
    fatal_if(region.end <= region.start,
             "region '", region.name, "' is empty or inverted");
    auto &list = touchSpace(asid).regions;
    const auto it = std::lower_bound(
        list.begin(), list.end(), region.start,
        [](const Region &r, uint64_t start) {
            return r.start < start;
        });
    if (it != list.begin()) {
        const Region &prev = *std::prev(it);
        fatal_if(prev.end > region.start, "region '", region.name,
                 "' overlaps '", prev.name, "'");
    }
    if (it != list.end()) {
        fatal_if(it->start < region.end, "region '", region.name,
                 "' overlaps '", it->name, "'");
    }
    list.insert(it, region);
    flushTlb(); // cached kinds may cover the new region's range
}

void
VirtualMemory::share(Asid asid_a, uint64_t vaddr_a, Asid asid_b,
                     uint64_t vaddr_b, uint64_t length)
{
    fatal_if(vaddr_a % kPageSize != 0 || vaddr_b % kPageSize != 0,
             "shared segments must be page aligned");
    const uint64_t pages = (length + kPageSize - 1) / kPageSize;
    AddressSpace &space_b = touchSpace(asid_b);
    for (uint64_t i = 0; i < pages; ++i) {
        const uint64_t frame =
            translate(asid_a, vaddr_a + i * kPageSize) / kPageSize;
        space_b.frames.insert(vaddr_b / kPageSize + i, frame);
    }
    flushTlb(); // asid_b translations may have been remapped
    addRegion(asid_a, Region{"shared", vaddr_a, vaddr_a + length,
                             RegionKind::Shared});
    addRegion(asid_b, Region{"shared", vaddr_b, vaddr_b + length,
                             RegionKind::Shared});
}

RegionKind
VirtualMemory::regionKind(Asid asid, uint64_t vaddr) const
{
    const uint64_t vpn = vaddr / kPageSize;
    const TlbEntry &entry = tlb_[tlbIndex(asid, vpn)];
    if (entry.vpn == vpn && entry.asid == asid && entry.kind_valid) {
        ++tlb_hits_;
        if (verify_tlb_)
            verifyTlbEntry(entry);
        return entry.kind;
    }
    ++tlb_misses_;
    uint64_t lo = 0;
    uint64_t hi = 0;
    return regionLookup(findSpace(asid), vaddr, &lo, &hi);
}

void
VirtualMemory::rebase(Asid asid)
{
    if (AddressSpace *space = findSpace(asid)) {
        space->frames.forEach([this](uint64_t, uint64_t &frame) {
            frame = allocateFrame();
        });
    }
    flushTlb(); // every cached translation for asid is now stale
}

} // namespace secproc::mem
