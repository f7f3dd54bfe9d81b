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
 * lookup; a small direct-mapped micro-TLB in front caches the
 * translation and — when the whole page carries one attribute — the
 * RegionKind alongside it. The TLB is flushed on every addRegion /
 * share / rebase: the paper's virtual-address seeding makes a stale
 * translation or attribute a *security* bug, not just a wrong
 * number, so `SECPROC_TLB_VERIFY=1` re-walks the structures on every
 * hit and dies on any divergence.
 */

#ifndef SECPROC_MEM_VIRTUAL_MEMORY_HH
#define SECPROC_MEM_VIRTUAL_MEMORY_HH

#include <array>
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

    VirtualMemory();

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

    /** Micro-TLB counters (hits include cached-kind hits). @{ */
    uint64_t tlbHits() const { return tlb_hits_; }
    uint64_t tlbMisses() const { return tlb_misses_; }
    /** @} */

  private:
    static constexpr size_t kTlbEntries = 256;

    /**
     * Direct-mapped TLB entry. Full vpn+asid tags (no truncation:
     * vpns can exceed 48 bits). kind is valid only when the whole
     * page carries one attribute; pages straddling a region boundary
     * always re-walk the interval vector.
     */
    struct TlbEntry
    {
        uint64_t vpn = ~uint64_t{0};
        uint64_t frame = 0;
        Asid asid = 0;
        bool kind_valid = false;
        RegionKind kind = RegionKind::Protected;
    };

    struct AddressSpace
    {
        util::RadixArray<uint64_t> frames; ///< vpn -> frame
        std::vector<Region> regions;       ///< sorted by start
    };

    static size_t
    tlbIndex(Asid asid, uint64_t vpn)
    {
        return static_cast<size_t>(vpn ^ asid) & (kTlbEntries - 1);
    }

    AddressSpace *findSpace(Asid asid) const;
    AddressSpace &touchSpace(Asid asid);

    /**
     * Region attribute at @p vaddr plus the bounds of the uniform
     * interval containing it (region extent, or the gap between
     * regions), for page-uniformity checks.
     */
    RegionKind regionLookup(const AddressSpace *space, uint64_t vaddr,
                            uint64_t *interval_start,
                            uint64_t *interval_end) const;

    /** Fill @p entry for (asid, vpn); kind cached when uniform. */
    void fillTlb(TlbEntry &entry, Asid asid, uint64_t vpn,
                 uint64_t frame) const;

    /** Drop every TLB entry (region/mapping change). */
    void flushTlb() const;

    /** SECPROC_TLB_VERIFY=1: die if @p entry disagrees with a walk. */
    void verifyTlbEntry(const TlbEntry &entry) const;

    uint64_t allocateFrame() { return next_frame_++; }

    std::vector<std::unique_ptr<AddressSpace>> spaces_; ///< by asid
    uint64_t next_frame_ = 1; // frame 0 reserved

    mutable std::array<TlbEntry, kTlbEntries> tlb_{};
    mutable uint64_t tlb_hits_ = 0;
    mutable uint64_t tlb_misses_ = 0;
    bool verify_tlb_ = false;
};

} // namespace secproc::mem

#endif // SECPROC_MEM_VIRTUAL_MEMORY_HH
