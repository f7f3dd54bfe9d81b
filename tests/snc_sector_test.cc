/**
 * @file
 * Sectored Sequence Number Cache tests: one directory tag covering
 * several consecutive L2 lines' sequence numbers (tag-area saving +
 * spatial prefetch), including the engine-level cofetch behaviour;
 * a differential suite against a reference model across directory
 * shapes and policies; and the allocation-free install path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <list>
#include <map>
#include <new>
#include <tuple>

#include "mem/memory_channel.hh"
#include "secure/engines.hh"
#include "secure/snc.hh"
#include "util/random.hh"

namespace
{

/** Heap allocations made through global operator new. */
std::atomic<uint64_t> g_allocations{0};

} // namespace

// The replacements stay out of line: inlined, the compiler pairs the
// malloc() and free() inside them with new and delete call sites and
// warns about mismatched allocation functions.

[[gnu::noinline]] void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace secproc;
using namespace secproc::secure;

SncConfig
sectoredConfig(uint32_t sector_lines, uint64_t capacity = 4 * 1024)
{
    SncConfig config;
    config.capacity_bytes = capacity;
    config.bytes_per_entry = 2;
    config.assoc = 0; // fully associative
    config.allow_replacement = true;
    config.l2_line_size = 128;
    config.sector_lines = sector_lines;
    return config;
}

TEST(SncSector, GeometryAccounting)
{
    const SncConfig config = sectoredConfig(4);
    EXPECT_EQ(config.entries(), 2048u);
    EXPECT_EQ(config.sectors(), 512u);
    EXPECT_EQ(config.sectorSpan(), 512u);
}

TEST(SncSector, EntriesMustDivideIntoSectors)
{
    SncConfig config = sectoredConfig(3); // 2048 % 3 != 0
    EXPECT_DEATH_IF_SUPPORTED(
        {
            SequenceNumberCache snc(config);
            (void)snc;
        },
        "multiple of the sector size");
}

TEST(SncSector, NeighbourSlotIsEmptyAfterSingleInstall)
{
    SequenceNumberCache snc(sectoredConfig(4));
    const auto install = snc.install(0x1000, 7);
    EXPECT_TRUE(install.installed);
    EXPECT_EQ(snc.query(0x1000), std::optional<uint32_t>{7});
    // Same sector, different line: tag present, slot empty -> miss.
    EXPECT_FALSE(snc.query(0x1080).has_value());
    EXPECT_FALSE(snc.contains(0x1080));
    EXPECT_EQ(snc.occupancy(), 1u);
    EXPECT_EQ(snc.sectorOccupancy(), 1u);
}

TEST(SncSector, InstallReportsCofetchedNeighbours)
{
    SequenceNumberCache snc(sectoredConfig(4));
    const auto install = snc.install(0x1080, 9);
    // Sector base 0x1000, span 0x200: neighbours are the other three.
    EXPECT_EQ(install.cofetched.size(), 3u);
    for (const uint64_t line : {0x1000ull, 0x1100ull, 0x1180ull}) {
        EXPECT_NE(std::find(install.cofetched.begin(),
                            install.cofetched.end(), line),
                  install.cofetched.end());
    }
}

TEST(SncSector, SetEntryPopulatesResidentSector)
{
    SequenceNumberCache snc(sectoredConfig(4));
    snc.install(0x1000, 7);
    EXPECT_TRUE(snc.setEntry(0x1080, 11));
    EXPECT_EQ(snc.query(0x1080), std::optional<uint32_t>{11});
    EXPECT_EQ(snc.occupancy(), 2u);
    EXPECT_EQ(snc.sectorOccupancy(), 1u);
    // Non-resident sector: refused.
    EXPECT_FALSE(snc.setEntry(0x9000, 1));
}

TEST(SncSector, SecondInstallInSectorDisplacesNothing)
{
    SequenceNumberCache snc(sectoredConfig(4));
    snc.install(0x1000, 7);
    const auto install = snc.install(0x1080, 9);
    EXPECT_TRUE(install.installed);
    EXPECT_TRUE(install.victims.empty());
    EXPECT_TRUE(install.cofetched.empty());
}

TEST(SncSector, VictimSectorSpillsEveryPopulatedEntry)
{
    // Two-sector directory: 4 entries, 2 lines per sector.
    SncConfig config = sectoredConfig(2, /*capacity=*/8);
    SequenceNumberCache snc(config);
    ASSERT_EQ(config.sectors(), 2u);

    snc.install(0x0000, 1);
    snc.setEntry(0x0080, 2); // sector 0 fully populated
    snc.install(0x0100, 3);  // sector 1, one slot

    // A third sector displaces the LRU sector (sector 0): both its
    // entries must come back for spilling.
    const auto install = snc.install(0x0200, 4);
    EXPECT_TRUE(install.installed);
    ASSERT_EQ(install.victims.size(), 2u);
    EXPECT_EQ(install.victims[0].line_va, 0x0000u);
    EXPECT_EQ(install.victims[0].seqnum, 1u);
    EXPECT_EQ(install.victims[1].line_va, 0x0080u);
    EXPECT_EQ(install.victims[1].seqnum, 2u);
    EXPECT_EQ(snc.spills(), 2u);
}

TEST(SncSector, IncrementOnEmptySlotIsUpdateMiss)
{
    SequenceNumberCache snc(sectoredConfig(4));
    snc.install(0x1000, 7);
    EXPECT_FALSE(snc.increment(0x1080).has_value());
    EXPECT_EQ(snc.updateMisses(), 1u);
    EXPECT_EQ(snc.increment(0x1000), std::optional<uint32_t>{8});
}

TEST(SncSector, FlushReturnsAllPopulatedEntries)
{
    SequenceNumberCache snc(sectoredConfig(4));
    snc.install(0x1000, 1);
    snc.setEntry(0x1100, 2);
    snc.install(0x5000, 3);
    auto entries = snc.flush();
    EXPECT_EQ(entries.size(), 3u);
    EXPECT_EQ(snc.occupancy(), 0u);
    EXPECT_EQ(snc.sectorOccupancy(), 0u);
    EXPECT_FALSE(snc.query(0x1000).has_value());
}

// --------------------------------------------- engine-level cofetch

class SectoredEngine : public ::testing::TestWithParam<uint32_t>
{
  protected:
    SectoredEngine()
        : channel_(mem::ChannelConfig{}),
          config_(makeConfig(GetParam())),
          engine_(config_, channel_, keys_)
    {
        std::vector<uint8_t> key(8, 0x42);
        keys_.install(1, CipherKind::Des, key);
    }

    static ProtectionConfig
    makeConfig(uint32_t sector_lines)
    {
        ProtectionConfig config;
        config.model = SecurityModel::OtpSnc;
        config.snc.capacity_bytes = 1024; // 512 entries
        config.snc.bytes_per_entry = 2;
        config.snc.sector_lines = sector_lines;
        config.snc.l2_line_size = 128;
        config.line_size = 128;
        return config;
    }

    mem::MemoryChannel channel_;
    KeyTable keys_;
    ProtectionConfig config_;
    OtpEngine engine_;
};

TEST_P(SectoredEngine, WritebackThenReadRoundTrips)
{
    // Evict (creates the seqnum), then fill: the seqnum must come
    // back identical whatever the sector geometry.
    for (uint64_t line = 0; line < 32; ++line) {
        const uint64_t va = 0x10000 + line * 128;
        const EvictPlan evict =
            engine_.planEvict(va, mem::RegionKind::Protected);
        EXPECT_EQ(evict.state, LineCipherState::Otp);
        const FillPlan fill =
            engine_.planFill(va, false, mem::RegionKind::Protected);
        EXPECT_EQ(fill.seqnum, evict.seqnum)
            << "line " << line << " sector " << GetParam();
    }
}

TEST_P(SectoredEngine, EvictedSeqnumsSurviveSncThrash)
{
    // Write back twice as many lines as the SNC holds, then read
    // them all back: every seqnum must be recoverable (from the SNC
    // or the spill table), and OTP state must be consistent.
    const uint64_t lines = 1024; // SNC holds 512
    std::vector<uint32_t> expected(lines);
    for (uint64_t i = 0; i < lines; ++i) {
        const uint64_t va = 0x40000 + i * 128;
        expected[i] =
            engine_.planEvict(va, mem::RegionKind::Protected).seqnum;
    }
    for (uint64_t i = 0; i < lines; ++i) {
        const uint64_t va = 0x40000 + i * 128;
        const FillPlan fill =
            engine_.planFill(va, false, mem::RegionKind::Protected);
        ASSERT_EQ(fill.state, LineCipherState::Otp);
        EXPECT_EQ(fill.seqnum, expected[i]) << "line " << i;
    }
}

TEST_P(SectoredEngine, SequentialQueryMissesShrinkWithSectoring)
{
    // Populate the spill table with many lines, flush the SNC, then
    // walk the lines sequentially: each sector miss cofetches the
    // neighbours, so larger sectors must produce fewer query misses.
    const uint64_t lines = 256;
    for (uint64_t i = 0; i < lines; ++i)
        engine_.planEvict(0x80000 + i * 128, mem::RegionKind::Protected);
    engine_.flushSnc(0);

    for (uint64_t i = 0; i < lines; ++i)
        engine_.planFill(0x80000 + i * 128, false,
                         mem::RegionKind::Protected);

    const uint64_t misses = engine_.snc().queryMisses();
    // Exactly one miss per sector (the walk is sequential and the
    // SNC is big enough to keep the walked sectors resident).
    EXPECT_EQ(misses, lines / GetParam());
}

INSTANTIATE_TEST_SUITE_P(SectorSizes, SectoredEngine,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const auto &info) {
                             return "lines" +
                                    std::to_string(info.param);
                         });

// ------------------------------------------------ differential suite

/**
 * Reference SNC written for clarity: per-set recency lists of
 * directory entries (front = MRU) plus a line -> sequence-number slot
 * map. Entries are numbered set * ways + way and handed out like
 * mem::Cache's (a set's free entries first, lowest way first; a
 * victim's entry goes to its replacement), so flush order compares.
 */
class ReferenceSnc
{
  public:
    struct Install
    {
        bool installed = false;
        std::vector<SncEntry> victims;
        std::vector<uint64_t> cofetched;
    };

    explicit ReferenceSnc(const SncConfig &config)
        : config_(config),
          ways_(config.assoc == 0 ? config.sectors() : config.assoc),
          tags_(config.sectors())
    {
        sets_.resize(config.sectors() / ways_);
        for (uint64_t set = 0; set < sets_.size(); ++set) {
            for (uint64_t way = 0; way < ways_; ++way)
                sets_[set].push_front(
                    static_cast<uint32_t>(set * ways_ + way));
        }
    }

    std::optional<uint32_t>
    query(uint64_t line)
    {
        const std::optional<uint32_t> seqnum =
            touch(line) ? slot(line) : std::nullopt;
        ++(seqnum ? query_hits : query_misses);
        return seqnum;
    }

    /** Only resident sectors' lines are ever in the slot map. */
    std::optional<uint32_t> peek(uint64_t line) const { return slot(line); }

    std::optional<uint32_t>
    increment(uint64_t line)
    {
        if (!touch(line) || !slots_.count(line)) {
            ++update_misses;
            return std::nullopt;
        }
        ++update_hits;
        uint32_t &seqnum = slots_[line];
        if (seqnum >= config_.maxSeqnum()) {
            ++overflows;
            seqnum = 1;
        } else {
            ++seqnum;
        }
        return seqnum;
    }

    Install
    install(uint64_t line, uint32_t seqnum)
    {
        Install result;
        if (touch(line)) {
            slots_[line] = seqnum;
            result.installed = true;
            return result;
        }
        std::list<uint32_t> &set = setOf(line);
        const uint32_t entry = set.back();
        if (tags_[entry].has_value()) {
            if (!config_.allow_replacement) {
                ++rejected;
                return result;
            }
            const uint64_t base = *tags_[entry] * config_.sectorSpan();
            for (uint32_t i = 0; i < config_.sector_lines; ++i) {
                const uint64_t other = base + i * config_.l2_line_size;
                if (const auto it = slots_.find(other);
                    it != slots_.end()) {
                    result.victims.push_back({other, it->second});
                    slots_.erase(it);
                    ++spills;
                }
            }
        }
        tags_[entry] = line / config_.sectorSpan();
        set.splice(set.begin(), set, std::prev(set.end()));
        slots_[line] = seqnum;
        result.installed = true;
        const uint64_t base =
            line / config_.sectorSpan() * config_.sectorSpan();
        for (uint32_t i = 0; i < config_.sector_lines; ++i) {
            const uint64_t other = base + i * config_.l2_line_size;
            if (other != line)
                result.cofetched.push_back(other);
        }
        return result;
    }

    bool
    setEntry(uint64_t line, uint32_t seqnum)
    {
        if (find(line) == setOf(line).end())
            return false;
        slots_[line] = seqnum;
        return true;
    }

    std::vector<SncEntry>
    flush()
    {
        std::vector<SncEntry> entries;
        for (std::optional<uint64_t> &tag : tags_) {
            if (!tag.has_value())
                continue;
            for (uint32_t i = 0; i < config_.sector_lines; ++i) {
                const uint64_t line = *tag * config_.sectorSpan() +
                                      i * config_.l2_line_size;
                if (const auto it = slots_.find(line);
                    it != slots_.end())
                    entries.push_back({line, it->second});
            }
            tag.reset();
        }
        slots_.clear();
        return entries;
    }

    uint64_t occupancy() const { return slots_.size(); }

    uint64_t
    sectorOccupancy() const
    {
        return static_cast<uint64_t>(
            std::count_if(tags_.begin(), tags_.end(),
                          [](const auto &tag) { return tag.has_value(); }));
    }

    uint64_t query_hits = 0;
    uint64_t query_misses = 0;
    uint64_t update_hits = 0;
    uint64_t update_misses = 0;
    uint64_t spills = 0;
    uint64_t rejected = 0;
    uint64_t overflows = 0;

  private:
    std::list<uint32_t> &
    setOf(uint64_t line)
    {
        return sets_[line / config_.sectorSpan() % sets_.size()];
    }

    const std::list<uint32_t> &
    setOf(uint64_t line) const
    {
        return sets_[line / config_.sectorSpan() % sets_.size()];
    }

    /** The entry holding @p line's sector, or its set's end(). */
    std::list<uint32_t>::const_iterator
    find(uint64_t line) const
    {
        const std::list<uint32_t> &set = setOf(line);
        return std::find_if(set.begin(), set.end(), [&](uint32_t e) {
            return tags_[e] == line / config_.sectorSpan();
        });
    }

    /** Refresh the recency of @p line's sector if it is resident. */
    bool
    touch(uint64_t line)
    {
        std::list<uint32_t> &set = setOf(line);
        const auto it = find(line);
        if (it == set.end())
            return false;
        set.splice(set.begin(), set, it);
        return true;
    }

    std::optional<uint32_t>
    slot(uint64_t line) const
    {
        const auto it = slots_.find(line);
        return it == slots_.end() ? std::nullopt
                                  : std::optional<uint32_t>{it->second};
    }

    SncConfig config_;
    uint64_t ways_;
    std::vector<std::list<uint32_t>> sets_;
    /** Sector number held by each entry. */
    std::vector<std::optional<uint64_t>> tags_;
    std::map<uint64_t, uint32_t> slots_;
};

/** (associativity, LRU replacement, sector_lines). */
using SncShape = std::tuple<uint32_t, bool, uint32_t>;

class SncDifferential : public ::testing::TestWithParam<SncShape>
{};

void
expectSameEntries(const std::vector<SncEntry> &got,
                  const std::vector<SncEntry> &want, int op)
{
    ASSERT_EQ(got.size(), want.size()) << "op " << op;
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].line_va, want[i].line_va) << "op " << op;
        ASSERT_EQ(got[i].seqnum, want[i].seqnum) << "op " << op;
    }
}

TEST_P(SncDifferential, RandomStreamMatchesReference)
{
    const auto [assoc, lru, sector_lines] = GetParam();
    SncConfig config;
    config.capacity_bytes = 256; // 256 one-byte entries
    config.bytes_per_entry = 1;  // seqnums wrap at 255: overflows
    config.assoc = assoc;
    config.allow_replacement = lru;
    config.l2_line_size = 128;
    config.sector_lines = sector_lines;
    SequenceNumberCache snc(config);
    ReferenceSnc reference(config);

    util::Rng rng(0x5AC0 + assoc * 16 + lru * 4 + sector_lines);
    // Three capacities of lines, a hot quarter of them drawn more
    // often, half at a high base (the radix directory's overflow
    // range, where the SNC's history filler lives).
    const auto random_line = [&rng]() -> uint64_t {
        const uint64_t base = rng.nextRange(2) == 0
                                  ? 0x1000'0000ull
                                  : 0x7F00'0000'0000ull;
        const uint64_t lines = rng.nextRange(2) == 0 ? 192 : 768;
        return base + rng.nextRange(lines) * 128;
    };

    for (int op = 0; op < 40'000; ++op) {
        const uint64_t line = random_line();
        const uint32_t seqnum =
            static_cast<uint32_t>(rng.nextRange(300));
        const uint64_t kind = rng.nextRange(10'000);
        if (kind < 2500) {
            ASSERT_EQ(snc.query(line), reference.query(line))
                << "op " << op;
        } else if (kind < 4500) {
            ASSERT_EQ(snc.increment(line), reference.increment(line))
                << "op " << op;
        } else if (kind < 7000) {
            const SncInstall got = snc.install(line, seqnum);
            const ReferenceSnc::Install want =
                reference.install(line, seqnum);
            ASSERT_EQ(got.installed, want.installed) << "op " << op;
            expectSameEntries({got.victims.begin(), got.victims.end()},
                              want.victims, op);
            ASSERT_EQ(std::vector<uint64_t>(got.cofetched.begin(),
                                            got.cofetched.end()),
                      want.cofetched)
                << "op " << op;
        } else if (kind < 8000) {
            ASSERT_EQ(snc.setEntry(line, seqnum),
                      reference.setEntry(line, seqnum))
                << "op " << op;
        } else if (kind < 9998) {
            ASSERT_EQ(snc.peek(line), reference.peek(line))
                << "op " << op;
            ASSERT_EQ(snc.contains(line),
                      reference.peek(line).has_value())
                << "op " << op;
        } else { // about eight flushes per stream
            expectSameEntries(snc.flush(), reference.flush(), op);
        }
        ASSERT_EQ(snc.occupancy(), reference.occupancy()) << "op " << op;
        ASSERT_EQ(snc.sectorOccupancy(), reference.sectorOccupancy())
            << "op " << op;
        ASSERT_EQ(snc.queryHits(), reference.query_hits) << "op " << op;
        ASSERT_EQ(snc.queryMisses(), reference.query_misses)
            << "op " << op;
        ASSERT_EQ(snc.updateHits(), reference.update_hits) << "op " << op;
        ASSERT_EQ(snc.updateMisses(), reference.update_misses)
            << "op " << op;
        ASSERT_EQ(snc.spills(), reference.spills) << "op " << op;
        ASSERT_EQ(snc.rejectedInstalls(), reference.rejected)
            << "op " << op;
        ASSERT_EQ(snc.overflows(), reference.overflows) << "op " << op;
    }
    // The stream must have reached every behaviour it checks.
    EXPECT_GT(reference.query_hits, 0u);
    EXPECT_GT(reference.update_hits, 0u);
    EXPECT_GT(reference.overflows, 0u);
    EXPECT_GT(lru ? reference.spills : reference.rejected, 0u);
}

/** The directory: (entry, sector) by set, most recent first. */
std::vector<std::pair<uint32_t, uint64_t>>
sectors(const SequenceNumberCache &snc)
{
    std::vector<std::pair<uint32_t, uint64_t>> out;
    snc.forEachSector([&](uint32_t entry, uint64_t sector_va) {
        out.emplace_back(entry, sector_va);
    });
    return out;
}

bool
lessEntry(const SncEntry &a, const SncEntry &b)
{
    return a.line_va < b.line_va;
}

// warmRun against the engine's per-line update miss on never-written
// lines (increment, then install): the reference model for slots,
// occupancy and counters, a twin SNC driven line by line for the
// directory (entries, recency and its statistics). Runs start and
// end mid-sector, at strides of a line and of 1024 lines.
TEST_P(SncDifferential, BulkRunMatchesReference)
{
    const auto [assoc, lru, sector_lines] = GetParam();
    SncConfig config;
    config.capacity_bytes = 256;
    config.bytes_per_entry = 1;
    config.assoc = assoc;
    config.allow_replacement = lru;
    config.l2_line_size = 128;
    config.sector_lines = sector_lines;
    SequenceNumberCache snc(config);
    SequenceNumberCache twin(config);
    ReferenceSnc reference(config);

    util::Rng rng(0xB0C0 + assoc * 16 + lru * 4 + sector_lines);
    for (uint64_t round = 0; round < 12; ++round) {
        // Random pre-state: installs and updates over a small window,
        // from empty every other round so no-replacement runs find
        // free entries, or the full directory the last run left.
        if (round % 2 == 0) {
            expectSameEntries(snc.flush(), reference.flush(),
                              static_cast<int>(round));
            twin.flush();
        }
        const uint64_t ops = rng.nextRange(400);
        for (uint64_t op = 0; op < ops; ++op) {
            const uint64_t line = 0x1000'0000ull + rng.nextRange(768) * 128;
            const uint32_t seqnum = static_cast<uint32_t>(rng.nextRange(200));
            if (rng.nextRange(3) == 0) {
                ASSERT_EQ(snc.increment(line), reference.increment(line));
                twin.increment(line);
            } else {
                ASSERT_EQ(snc.install(line, seqnum).installed,
                          reference.install(line, seqnum).installed);
                twin.install(line, seqnum);
            }
        }

        const uint64_t stride = (rng.nextRange(2) == 0 ? 1 : 1024) * 128;
        const uint64_t count = rng.nextRange(3 * config.entries() + 1);
        // Its own area, starting past a sector boundary.
        const uint64_t first = 0x4000'0000ull + (round << 32) +
                               (1 + rng.nextRange(sector_lines)) * 128;
        SCOPED_TRACE("round " + std::to_string(round) + " stride " +
                     std::to_string(stride) + " count " +
                     std::to_string(count));

        std::vector<SncEntry> spills;
        std::vector<std::pair<bool, bool>> lines;
        snc.warmRun(
            first, count, stride, /*seqnum=*/1,
            [&](const SncEntry &entry) { spills.push_back(entry); },
            [&](uint64_t i, bool installed, bool spilled) {
                ASSERT_EQ(i, lines.size());
                lines.emplace_back(installed, spilled);
            });
        ASSERT_EQ(lines.size(), count);

        std::vector<SncEntry> want_spills;
        for (uint64_t i = 0; i < count; ++i) {
            const uint64_t line = first + i * stride;
            ASSERT_EQ(reference.increment(line), std::nullopt) << i;
            twin.increment(line);
            const ReferenceSnc::Install want = reference.install(line, 1);
            twin.install(line, 1);
            ASSERT_EQ(lines[i].first, want.installed) << i;
            ASSERT_EQ(lines[i].second, !want.victims.empty()) << i;
            want_spills.insert(want_spills.end(), want.victims.begin(),
                               want.victims.end());
        }
        std::sort(spills.begin(), spills.end(), lessEntry);
        std::sort(want_spills.begin(), want_spills.end(), lessEntry);
        expectSameEntries(spills, want_spills, static_cast<int>(round));

        ASSERT_EQ(sectors(snc), sectors(twin));
        const mem::Cache &dir = snc.directory();
        const mem::Cache &twin_dir = twin.directory();
        ASSERT_EQ(dir.hits(), twin_dir.hits());
        ASSERT_EQ(dir.misses(), twin_dir.misses());
        ASSERT_EQ(dir.evictions(), twin_dir.evictions());
        ASSERT_EQ(dir.dirtyEvictions(), twin_dir.dirtyEvictions());
        ASSERT_EQ(dir.rejectedFills(), twin_dir.rejectedFills());
        ASSERT_EQ(snc.occupancy(), reference.occupancy());
        ASSERT_EQ(snc.sectorOccupancy(), reference.sectorOccupancy());
        ASSERT_EQ(snc.updateMisses(), reference.update_misses);
        ASSERT_EQ(snc.updateHits(), reference.update_hits);
        ASSERT_EQ(snc.spills(), reference.spills);
        ASSERT_EQ(snc.rejectedInstalls(), reference.rejected);
        for (uint64_t i = 0; i < count + sector_lines; ++i) {
            const uint64_t line = first - 128 + i * stride;
            ASSERT_EQ(snc.peek(line), reference.peek(line)) << i;
        }
    }
    // Slot order within entries, entry by entry.
    expectSameEntries(snc.flush(), reference.flush(), -1);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SncDifferential,
    ::testing::Combine(::testing::Values(0u, 32u),
                       ::testing::Bool(),
                       ::testing::Values(1u, 2u, 4u)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) == 0 ? "full"
                                                        : "way32") +
               (std::get<1>(info.param) ? "_lru" : "_norepl") +
               "_lines" + std::to_string(std::get<2>(info.param));
    });

// ------------------------------------------------------- allocations

TEST(SncAllocation, PaperGeometryInstallsAllocateNothing)
{
    SncConfig config; // 32K entries, fully associative, LRU
    SequenceNumberCache snc(config);
    const uint64_t lines = 2 * config.entries();
    const auto line_va = [](uint64_t i) {
        return 0x1000'0000ull + i * 128;
    };
    // First pass: fills the SNC, then thrashes it, so the directory
    // has seen every line the timed pass touches.
    for (uint64_t i = 0; i < lines; ++i)
        snc.install(line_va(i), static_cast<uint32_t>(i));

    const uint64_t before = g_allocations.load();
    uint64_t spilled = 0;
    for (uint64_t i = 0; i < lines; ++i) {
        const uint64_t line = line_va(i);
        spilled += snc.install(line, 1).victims.size();
        snc.increment(line);
        snc.query(line);
    }
    const uint64_t allocations = g_allocations.load() - before;
    EXPECT_EQ(allocations, 0u);
    EXPECT_EQ(spilled, lines);
}

} // namespace
