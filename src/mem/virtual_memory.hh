/**
 * @file
 * Virtual memory: per-ASID page tables, shared segments (synonyms)
 * and region attributes.
 *
 * The paper's SNC is indexed by *virtual* line address because
 * physical placement can change across context switches (Section 4).
 * It also excludes two classes of memory from one-time-pad
 * protection: segments aliased by multiple virtual addresses
 * (synonyms, where two VAs would disagree on the seed) and plaintext
 * segments (shared libraries, program inputs; Section 4.3). This
 * module provides exactly those facts to the protection engines.
 *
 * Layout: each ASID owns a radix page table (util::RadixArray vpn ->
 * frame) and a sorted interval vector of regions with binary-search
 * lookup. They are the only copies of a translation and of a region
 * attribute: the paper's virtual-address seeding makes a stale second
 * copy a *security* bug (a wrong pad, or a protected line treated as
 * plaintext), not just a wrong number.
 */

#ifndef SECPROC_MEM_VIRTUAL_MEMORY_HH
#define SECPROC_MEM_VIRTUAL_MEMORY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "util/radix_array.hh"

namespace secproc::mem
{

/** Address space identifier (one per compartment/task). */
using Asid = uint16_t;

/** Security-relevant attributes of a mapped region. */
enum class RegionKind
{
    Protected, ///< encrypted with the compartment key
    Plaintext, ///< shared library code or program input: no crypto
    Shared,    ///< aliased by several VAs: no OTP (paper Section 4)
};

/** A named virtual address range with one attribute. */
struct Region
{
    std::string name;
    uint64_t start = 0; ///< inclusive
    uint64_t end = 0;   ///< exclusive
    RegionKind kind = RegionKind::Protected;
};

/**
 * Per-ASID page tables with allocate-on-touch physical placement.
 */
class VirtualMemory
{
  public:
    static constexpr uint64_t kPageSize = 4096;

    /**
     * Translate, allocating a fresh frame on first touch.
     * @return physical address.
     */
    uint64_t translate(Asid asid, uint64_t vaddr);

    /** Translate without allocating. */
    std::optional<uint64_t> probeTranslate(Asid asid,
                                           uint64_t vaddr) const;

    /**
     * Map @p region of @p asid; attributes become queryable via
     * regionKind(). Overlapping regions are a caller error (fatal).
     */
    void addRegion(Asid asid, const Region &region);

    /**
     * Remove the region of @p asid that starts at @p start; its range
     * reverts to RegionKind::Protected. No region starting there is a
     * caller error (fatal).
     */
    void removeRegion(Asid asid, uint64_t start);

    /**
     * Alias @p vaddr_b in @p asid_b to the same frames as
     * @p vaddr_a in @p asid_a for @p length bytes (synonym /
     * shared segment). Both ranges become RegionKind::Shared.
     */
    void share(Asid asid_a, uint64_t vaddr_a, Asid asid_b,
               uint64_t vaddr_b, uint64_t length);

    /** Attribute at @p vaddr; Protected when unmapped by regions. */
    RegionKind regionKind(Asid asid, uint64_t vaddr) const;

    /**
     * Re-randomize the physical placement of @p asid (models
     * swapping / reload at a different physical location across
     * context switches; virtual addresses are unchanged, which is
     * why seeds must be virtual). Pages are re-framed in ascending
     * vpn order — frame numbers are invisible to reports (seeds and
     * channel addresses are virtual), so the order is free to be
     * deterministic.
     */
    void rebase(Asid asid);

    /** Frames allocated so far. */
    uint64_t allocatedFrames() const { return next_frame_; }

  private:
    struct AddressSpace
    {
        util::RadixArray<uint64_t> frames; ///< vpn -> frame
        std::vector<Region> regions;       ///< sorted by start
    };

    AddressSpace *findSpace(Asid asid) const;
    AddressSpace &touchSpace(Asid asid);

    uint64_t allocateFrame() { return next_frame_++; }

    std::vector<std::unique_ptr<AddressSpace>> spaces_; ///< by asid
    uint64_t next_frame_ = 1; // frame 0 reserved
};

} // namespace secproc::mem

#endif // SECPROC_MEM_VIRTUAL_MEMORY_HH
