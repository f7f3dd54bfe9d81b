/**
 * @file
 * Virtual memory implementation: radix page tables, sorted region
 * intervals.
 */

#include "mem/virtual_memory.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secproc::mem
{

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

uint64_t
VirtualMemory::translate(Asid asid, uint64_t vaddr)
{
    uint64_t &frame = touchSpace(asid).frames.touch(vaddr / kPageSize);
    if (frame == 0)
        frame = allocateFrame(); // frame 0 reserved as "unmapped"
    return frame * kPageSize + vaddr % kPageSize;
}

std::optional<uint64_t>
VirtualMemory::probeTranslate(Asid asid, uint64_t vaddr) const
{
    const AddressSpace *space = findSpace(asid);
    const uint64_t *frame =
        space != nullptr ? space->frames.find(vaddr / kPageSize)
                         : nullptr;
    if (frame == nullptr)
        return std::nullopt;
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
}

void
VirtualMemory::removeRegion(Asid asid, uint64_t start)
{
    if (AddressSpace *space = findSpace(asid)) {
        auto &list = space->regions;
        const auto it = std::lower_bound(
            list.begin(), list.end(), start,
            [](const Region &r, uint64_t s) { return r.start < s; });
        if (it != list.end() && it->start == start) {
            list.erase(it);
            return;
        }
    }
    fatal("no region of asid ", asid, " starts at ", start);
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
    addRegion(asid_a, Region{"shared", vaddr_a, vaddr_a + length,
                             RegionKind::Shared});
    addRegion(asid_b, Region{"shared", vaddr_b, vaddr_b + length,
                             RegionKind::Shared});
}

RegionKind
VirtualMemory::regionKind(Asid asid, uint64_t vaddr) const
{
    const AddressSpace *space = findSpace(asid);
    if (space == nullptr)
        return RegionKind::Protected;
    const auto &list = space->regions;
    // First region starting strictly after vaddr; its predecessor is
    // the only candidate that can contain vaddr.
    const auto it = std::upper_bound(
        list.begin(), list.end(), vaddr,
        [](uint64_t v, const Region &r) { return v < r.start; });
    if (it == list.begin() || vaddr >= std::prev(it)->end)
        return RegionKind::Protected;
    return std::prev(it)->kind;
}

void
VirtualMemory::rebase(Asid asid)
{
    if (AddressSpace *space = findSpace(asid)) {
        space->frames.forEach([this](uint64_t, uint64_t &frame) {
            frame = allocateFrame();
        });
    }
}

} // namespace secproc::mem
