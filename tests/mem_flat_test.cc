/**
 * @file
 * Differential tests for the flattened memory plane.
 *
 * Each flat structure that replaced a hash-map layout is run against
 * the retired layout's semantics (std::unordered_map references)
 * under randomized workloads: sparse, dense and high-bit index
 * patterns, rebase/share aliasing, clears and context-switch storms.
 * Region attributes are checked against a linear scan of the regions
 * with additions and removals interleaved: the page table and the
 * region list are the only copies of those facts, and a wrong one is
 * a wrong pad or an unpadded protected line.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "mem/main_memory.hh"
#include "mem/virtual_memory.hh"
#include "secure/integrity.hh"
#include "util/bitops.hh"
#include "util/radix_array.hh"
#include "util/random.hh"

namespace
{

using namespace secproc;
using mem::Asid;
using mem::MainMemory;
using mem::Region;
using mem::RegionKind;
using mem::VirtualMemory;

/**
 * Key of the retired (asid, vpn) unordered_map page-table layout, for
 * the reference model below. @{
 */
struct PageKey
{
    Asid asid;
    uint64_t vpn;
    bool operator==(const PageKey &o) const
    {
        return asid == o.asid && vpn == o.vpn;
    }
};

struct PageKeyHash
{
    size_t
    operator()(const PageKey &k) const
    {
        // mix64 is bijective, so collisions can only come from
        // combining the parts — mixing *between* them keeps the pair
        // injective up to finalizer collisions, unlike the old
        // `(asid << 48) ^ vpn` packing which collided for any vpn
        // with bits >= 48 (high mmap-style VAs).
        return static_cast<size_t>(util::mix64(
            util::mix64(k.vpn) + static_cast<uint64_t>(k.asid)));
    }
};
/** @} */

/**
 * Index generator covering the patterns that broke (or would break)
 * hash layouts: dense sequential runs, mid-range sparse scatter, and
 * high-bit addresses (mmap-style VAs, synthetic proxies >= 2^40 that
 * land in the RadixArray overflow directory).
 */
uint64_t
mixedIndex(util::Rng &rng)
{
    switch (rng.nextRange(4)) {
      case 0: return rng.nextRange(4096);                   // dense
      case 1: return rng.nextRange(1 << 24);                // sparse
      case 2: return (1ull << 40) + rng.nextRange(1 << 16); // overflow
      default: // very high bits (group well past the dense directory)
        return (1ull << 60) + rng.nextRange(1 << 20);
    }
}

// --------------------------------------------------------- RadixArray

TEST(RadixArrayDifferential, RandomOpsMatchUnorderedMap)
{
    util::RadixArray<uint64_t> flat;
    std::unordered_map<uint64_t, uint64_t> reference;
    util::Rng rng(0xF1A7);

    for (int op = 0; op < 50'000; ++op) {
        const uint64_t index = mixedIndex(rng);
        switch (rng.nextRange(8)) {
          case 0: { // erase
            const bool erased_flat = flat.erase(index);
            const bool erased_ref = reference.erase(index) > 0;
            ASSERT_EQ(erased_flat, erased_ref) << "index " << index;
            break;
          }
          case 1: { // rare full clear
            if (rng.nextRange(1000) == 0) {
                flat.clear();
                reference.clear();
            }
            break;
          }
          default: { // insert/overwrite (value 0 must be storable)
            const uint64_t value = rng.nextRange(4);
            flat.insert(index, value);
            reference[index] = value;
            break;
          }
        }
        const uint64_t *found = flat.find(index);
        const auto it = reference.find(index);
        ASSERT_EQ(found != nullptr, it != reference.end())
            << "index " << index;
        if (found != nullptr) {
            ASSERT_EQ(*found, it->second) << "index " << index;
        }
        ASSERT_EQ(flat.size(), reference.size());
    }
}

TEST(RadixArrayDifferential, ForEachIsAscendingAndComplete)
{
    util::RadixArray<uint64_t> flat;
    std::unordered_map<uint64_t, uint64_t> reference;
    util::Rng rng(0xF1A8);
    for (int i = 0; i < 20'000; ++i) {
        const uint64_t index = mixedIndex(rng);
        flat.insert(index, index * 3);
        reference[index] = index * 3;
    }

    uint64_t last = 0;
    bool first = true;
    size_t visited = 0;
    flat.forEach([&](uint64_t index, const uint64_t &value) {
        if (!first) {
            ASSERT_GT(index, last);
        }
        first = false;
        last = index;
        ++visited;
        const auto it = reference.find(index);
        ASSERT_NE(it, reference.end()) << "index " << index;
        ASSERT_EQ(value, it->second);
    });
    ASSERT_EQ(visited, reference.size());
}

// --------------------------------------------------------- MainMemory

TEST(MainMemoryDifferential, RandomReadWriteMatchesByteMap)
{
    MainMemory memory;
    std::unordered_map<uint64_t, uint8_t> reference; // written bytes
    util::Rng rng(0x3E3);

    auto random_base = [&rng]() -> uint64_t {
        switch (rng.nextRange(3)) {
          case 0: return rng.nextRange(1 << 20);            // dense
          case 1: return rng.nextRange(1ull << 34);         // sparse
          // Page numbers past the dense directory (overflow path).
          default: return (1ull << 44) + rng.nextRange(1 << 22);
        }
    };

    std::vector<uint8_t> buffer(256);
    for (int op = 0; op < 6'000; ++op) {
        // Length chosen to regularly straddle page boundaries.
        const uint64_t base = random_base();
        const size_t len = 1 + rng.nextRange(buffer.size());
        if (rng.nextRange(2) == 0) {
            rng.fillBytes(buffer.data(), len);
            memory.write(base, buffer.data(), len);
            for (size_t i = 0; i < len; ++i)
                reference[base + i] = buffer[i];
        } else {
            memory.read(base, buffer.data(), len);
            for (size_t i = 0; i < len; ++i) {
                const auto it = reference.find(base + i);
                const uint8_t want =
                    it == reference.end() ? 0 : it->second;
                ASSERT_EQ(buffer[i], want)
                    << "addr " << std::hex << base + i;
            }
        }
    }
    ASSERT_GT(memory.residentPages(), 0u);
    ASSERT_GE(memory.arenaBytesReserved(),
              memory.residentPages() * MainMemory::kPageSize);
    ASSERT_FALSE(reference.empty());

    memory.clear();
    ASSERT_EQ(memory.residentPages(), 0u);
    uint8_t byte = 0xFF;
    memory.read(reference.begin()->first, &byte, 1);
    ASSERT_EQ(byte, 0); // everything reads as zero after clear
}

// --------------------------------------------------------- PageKeyHash

TEST(PageKeyHash, OldPackingCollidesNewMixDoesNot)
{
    const PageKeyHash hash;

    // The retired hash packed the pair as (asid << 48) ^ vpn, which
    // collides whenever two keys differ only in vpn bits >= 48 that
    // mirror the asid difference. Construct such pairs and require
    // the mix64-based hash to separate every one of them.
    util::Rng rng(0x4A5);
    for (int i = 0; i < 10'000; ++i) {
        const Asid asid_a = static_cast<Asid>(rng.nextRange(1 << 16));
        const Asid asid_b = static_cast<Asid>(rng.nextRange(1 << 16));
        const uint64_t vpn_a = rng.next64() >> 2; // high bits set
        const uint64_t vpn_b =
            vpn_a ^ (static_cast<uint64_t>(asid_a ^ asid_b) << 48);
        const PageKey a{asid_a, vpn_a};
        const PageKey b{asid_b, vpn_b};
        if (a == b)
            continue;
        const uint64_t old_a =
            (static_cast<uint64_t>(asid_a) << 48) ^ vpn_a;
        const uint64_t old_b =
            (static_cast<uint64_t>(asid_b) << 48) ^ vpn_b;
        ASSERT_EQ(old_a, old_b); // the old packing collides...
        ASSERT_NE(hash(a), hash(b)); // ...the mix-based hash must not
    }

    // And no collisions at all across a large sampled key set (a
    // 64-bit hash colliding on 100k random keys would be ~2^-33).
    std::unordered_set<size_t> seen;
    for (int i = 0; i < 100'000; ++i) {
        const PageKey key{static_cast<Asid>(rng.nextRange(1 << 16)),
                          rng.next64()};
        ASSERT_TRUE(seen.insert(hash(key)).second);
    }
}

// ------------------------------------------------------ VirtualMemory

/**
 * Reference model of the retired unordered_map page-table layout,
 * mirroring VirtualMemory's allocation discipline exactly: frames
 * handed out from a counter on first touch, rebase re-frames in
 * ascending vpn order.
 */
struct ReferenceVm
{
    std::unordered_map<PageKey, uint64_t, PageKeyHash> frames;
    uint64_t next_frame = 1;

    uint64_t
    translate(Asid asid, uint64_t vaddr)
    {
        const PageKey key{asid, vaddr / VirtualMemory::kPageSize};
        auto [it, inserted] = frames.try_emplace(key, 0);
        if (inserted)
            it->second = next_frame++;
        return it->second * VirtualMemory::kPageSize +
               vaddr % VirtualMemory::kPageSize;
    }

    void
    rebase(Asid asid)
    {
        std::vector<uint64_t> vpns;
        for (const auto &[key, frame] : frames) {
            if (key.asid == asid)
                vpns.push_back(key.vpn);
        }
        std::sort(vpns.begin(), vpns.end());
        for (const uint64_t vpn : vpns)
            frames[PageKey{asid, vpn}] = next_frame++;
    }

    void
    share(Asid asid_a, uint64_t vaddr_a, Asid asid_b, uint64_t vaddr_b,
          uint64_t length)
    {
        const uint64_t pages =
            (length + VirtualMemory::kPageSize - 1) /
            VirtualMemory::kPageSize;
        for (uint64_t i = 0; i < pages; ++i) {
            const uint64_t frame =
                translate(asid_a,
                          vaddr_a + i * VirtualMemory::kPageSize) /
                VirtualMemory::kPageSize;
            frames[PageKey{asid_b,
                           vaddr_b / VirtualMemory::kPageSize + i}] =
                frame;
        }
    }
};

TEST(VirtualMemoryDifferential, StormMatchesReferenceModel)
{
    VirtualMemory vm;
    ReferenceVm reference;
    util::Rng rng(0x7151);

    // Context-switch storm: a handful of ASIDs interleaved over
    // overlapping vpn sets, with random rebases mixed in.
    constexpr Asid kAsids = 8;
    auto random_vaddr = [&rng]() -> uint64_t {
        switch (rng.nextRange(3)) {
          case 0: return rng.nextRange(1 << 22);     // dense pages
          case 1: return rng.nextRange(1ull << 32);  // sparse
          default: // high-bit vpns (page-table overflow directory)
            return (1ull << 61) + rng.nextRange(1ull << 24);
        }
    };

    for (int op = 0; op < 60'000; ++op) {
        const Asid asid = static_cast<Asid>(rng.nextRange(kAsids));
        if (rng.nextRange(2000) == 0) {
            vm.rebase(asid);
            reference.rebase(asid);
            continue;
        }
        const uint64_t vaddr = random_vaddr();
        ASSERT_EQ(vm.translate(asid, vaddr),
                  reference.translate(asid, vaddr))
            << "asid " << asid << " vaddr " << std::hex << vaddr;
    }
    ASSERT_EQ(vm.allocatedFrames(), reference.next_frame);
}

TEST(VirtualMemoryDifferential, ProbeNeverAllocates)
{
    VirtualMemory vm;
    ReferenceVm reference;
    util::Rng rng(0x7152);

    for (int op = 0; op < 20'000; ++op) {
        const Asid asid = static_cast<Asid>(rng.nextRange(4));
        const uint64_t vaddr = rng.nextRange(1ull << 34);
        if (rng.nextRange(2) == 0) {
            ASSERT_EQ(vm.translate(asid, vaddr),
                      reference.translate(asid, vaddr));
        } else {
            const auto got = vm.probeTranslate(asid, vaddr);
            const PageKey key{asid, vaddr / VirtualMemory::kPageSize};
            const auto it = reference.frames.find(key);
            ASSERT_EQ(got.has_value(), it != reference.frames.end());
            if (got.has_value()) {
                ASSERT_EQ(*got,
                          it->second * VirtualMemory::kPageSize +
                              vaddr % VirtualMemory::kPageSize);
            }
        }
    }
    ASSERT_EQ(vm.allocatedFrames(), reference.next_frame);
}

TEST(VirtualMemoryDifferential, ShareAliasesAndRebaseRestoresDistinct)
{
    VirtualMemory vm;
    ReferenceVm reference;
    constexpr uint64_t kLen = 4 * VirtualMemory::kPageSize;
    const uint64_t base_a = 0x10'0000;
    const uint64_t base_b = 0x90'0000;

    // Touch one side first so share() aliases existing frames.
    vm.translate(1, base_a);
    reference.translate(1, base_a);
    vm.share(1, base_a, 2, base_b, kLen);
    reference.share(1, base_a, 2, base_b, kLen);

    for (uint64_t off = 0; off < kLen; off += 64) {
        ASSERT_EQ(vm.translate(1, base_a + off),
                  vm.translate(2, base_b + off));
        ASSERT_EQ(vm.translate(1, base_a + off),
                  reference.translate(1, base_a + off));
    }
    EXPECT_EQ(vm.regionKind(1, base_a), RegionKind::Shared);
    EXPECT_EQ(vm.regionKind(2, base_b + kLen - 1), RegionKind::Shared);
    // Outside the shared window the default attribute holds.
    EXPECT_EQ(vm.regionKind(2, base_b + kLen), RegionKind::Protected);

    // Rebasing one side re-frames it; the other keeps its frames, so
    // the alias is broken exactly as the unordered_map layout did it.
    vm.rebase(2);
    reference.rebase(2);
    for (uint64_t off = 0; off < kLen; off += VirtualMemory::kPageSize) {
        ASSERT_EQ(vm.translate(2, base_b + off),
                  reference.translate(2, base_b + off));
        ASSERT_NE(vm.translate(1, base_a + off),
                  vm.translate(2, base_b + off));
    }
}

TEST(VirtualMemoryDifferential, RegionKindMatchesLinearScan)
{
    VirtualMemory vm;
    std::vector<Region> reference; // unsorted, scanned in full
    util::Rng rng(0x7153);
    constexpr Asid kAsid = 3;
    constexpr RegionKind kKinds[] = {RegionKind::Protected,
                                     RegionKind::Plaintext,
                                     RegionKind::Shared};

    auto scan = [&reference](uint64_t vaddr) {
        for (const Region &r : reference) {
            if (r.start <= vaddr && vaddr < r.end)
                return r.kind;
        }
        return RegionKind::Protected;
    };
    auto check = [&](uint64_t vaddr) {
        ASSERT_EQ(vm.regionKind(kAsid, vaddr), scan(vaddr))
            << "vaddr " << std::hex << vaddr;
    };
    auto check_edges = [&](const Region &r) {
        for (const uint64_t v : {r.start - 1, r.start, r.end - 1, r.end})
            check(v);
    };

    check(0x1000); // an address space nothing has touched
    for (int op = 0; op < 3000 && !HasFatalFailure(); ++op) {
        if (reference.size() > 48 ||
            (!reference.empty() && rng.nextRange(3) == 0)) {
            // The removed range reverts to Protected.
            const size_t i = rng.nextRange(reference.size());
            const Region gone = reference[i];
            vm.removeRegion(kAsid, gone.start);
            reference.erase(reference.begin() + i);
            check_edges(gone);
        } else {
            Region r;
            r.kind = kKinds[rng.nextRange(3)];
            const uint64_t length = 1 + rng.nextRange(1 << 16);
            if (!reference.empty() && rng.nextRange(2) == 0) {
                // Adjacent to an existing region, on either side.
                const Region &next_to =
                    reference[rng.nextRange(reference.size())];
                r.start = rng.nextRange(2) == 0 || next_to.start < length
                              ? next_to.end
                              : next_to.start - length;
            } else {
                r.start = rng.nextRange(1 << 22);
            }
            r.end = r.start + length;
            const bool overlaps = std::any_of(
                reference.begin(), reference.end(),
                [&r](const Region &o) {
                    return o.start < r.end && r.start < o.end;
                });
            if (overlaps)
                continue;
            vm.addRegion(kAsid, r);
            reference.push_back(r);
        }
        for (const Region &r : reference)
            check_edges(r);
        for (int q = 0; q < 16; ++q)
            check(rng.nextRange(1 << 22));
    }
}

TEST(VirtualMemoryUpdate, ShareRemapsAMappedPage)
{
    VirtualMemory vm;
    const uint64_t base_a = 0x100'0000;
    const uint64_t base_b = 0x200'0000;
    const uint64_t before_b = vm.translate(5, base_b);

    vm.share(4, base_a, 5, base_b, VirtualMemory::kPageSize);
    const uint64_t after_b = vm.translate(5, base_b);
    ASSERT_NE(after_b, before_b); // remapped to asid 4's frame
    ASSERT_EQ(after_b, vm.translate(4, base_a));
}

TEST(VirtualMemoryUpdate, AddRegionChangesTheKind)
{
    VirtualMemory vm;
    const uint64_t vaddr = 0x300'0000;
    vm.translate(6, vaddr);
    ASSERT_EQ(vm.regionKind(6, vaddr), RegionKind::Protected);

    vm.addRegion(6, Region{"lib", vaddr - VirtualMemory::kPageSize,
                           vaddr + 4 * VirtualMemory::kPageSize,
                           RegionKind::Plaintext});
    ASSERT_EQ(vm.regionKind(6, vaddr), RegionKind::Plaintext);
}

TEST(VirtualMemoryUpdate, RemoveRegionNeedsItsStart)
{
    VirtualMemory vm;
    EXPECT_DEATH_IF_SUPPORTED(vm.removeRegion(7, 0x1000),
                              "no region of asid 7");
    vm.addRegion(7, Region{"lib", 0x1000, 0x3000,
                           RegionKind::Plaintext});
    EXPECT_DEATH_IF_SUPPORTED(vm.removeRegion(7, 0x2000),
                              "no region of asid 7 starts at 8192");
    vm.removeRegion(7, 0x1000);
    EXPECT_EQ(vm.regionKind(7, 0x1000), RegionKind::Protected);
}

// ------------------------------------------------------ MAC flat table

TEST(MacTableDifferential, MatchesUnorderedMapReference)
{
    secure::IntegrityConfig config;
    config.mode = secure::IntegrityMode::MacBlocking;
    secure::IntegrityEngine engine(config);
    engine.setMacKey(std::vector<uint8_t>(32, 0xA5));

    std::unordered_map<uint64_t, secure::LineMac> reference;
    util::Rng rng(0x3AC);

    auto random_line = [&rng, &config]() -> uint64_t {
        uint64_t line = 0;
        switch (rng.nextRange(3)) {
          case 0: line = rng.nextRange(1 << 16); break;      // dense
          case 1: line = rng.nextRange(1 << 26); break;      // sparse
          // Line indices past the dense directory (overflow path).
          default: line = (1ull << 41) + rng.nextRange(1 << 18);
        }
        return line * config.line_size;
    };

    std::vector<uint8_t> line_bytes(config.line_size);
    for (int op = 0; op < 30'000; ++op) {
        const uint64_t line_va = random_line();
        switch (rng.nextRange(3)) {
          case 0: { // store (evict path), possibly overwriting
            rng.fillBytes(line_bytes.data(), line_bytes.size());
            const secure::LineMac mac = engine.computeMac(
                line_va, static_cast<uint32_t>(rng.nextRange(16)),
                line_bytes);
            engine.storeMac(line_va, mac);
            reference[line_va] = mac;
            break;
          }
          case 1: { // adversary overwrite
            secure::LineMac mac{};
            rng.fillBytes(mac.data(), mac.size());
            engine.corruptStoredMac(line_va, mac);
            reference[line_va] = mac;
            break;
          }
          default: { // lookup
            const auto got = engine.storedMac(line_va);
            const auto it = reference.find(line_va);
            ASSERT_EQ(got.has_value(), it != reference.end())
                << "line " << std::hex << line_va;
            if (got.has_value()) {
                ASSERT_EQ(*got, it->second);
            }
            break;
          }
        }
    }
}

TEST(MacTableDifferential, VerifyMacBindsLineSeqnumAndBytes)
{
    secure::IntegrityConfig config;
    config.mode = secure::IntegrityMode::MacBlocking;
    secure::IntegrityEngine engine(config);
    engine.setMacKey(std::vector<uint8_t>(32, 0x5A));

    util::Rng rng(0x3AD);
    std::vector<uint8_t> bytes(config.line_size);
    rng.fillBytes(bytes.data(), bytes.size());

    const uint64_t line_va = (1ull << 40) + 7 * config.line_size;
    engine.storeMac(line_va, engine.computeMac(line_va, 3, bytes));

    EXPECT_TRUE(engine.verifyMac(line_va, 3, bytes));
    EXPECT_FALSE(engine.verifyMac(line_va, 4, bytes)); // replay
    EXPECT_FALSE(engine.verifyMac(line_va + config.line_size, 3,
                                  bytes)); // splice
    bytes[0] ^= 1;
    EXPECT_FALSE(engine.verifyMac(line_va, 3, bytes)); // tamper
}

} // namespace
