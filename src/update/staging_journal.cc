/**
 * @file
 * Staging journal implementation.
 */

#include "update/staging_journal.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"
#include "util/serialize.hh"

namespace secproc::update
{

namespace
{

constexpr uint32_t kJournalMagic = 0x53504A4C; // "SPJL"
constexpr uint32_t kJournalVersion = 1;
/** Parse-time allocation cap: 8 MiB slots at 64-byte chunks is
 *  16 KiB of bitmap; anything near this is already absurd. */
constexpr uint64_t kMaxBitmapBytes = 1ull << 20;

} // namespace

const StagingJournal::SlotRecord *
StagingJournal::record(uint32_t slot) const
{
    panic_if(slot >= slots_.size(), "staging journal slot ", slot);
    return &slots_[slot];
}

StagingJournal::SlotRecord *
StagingJournal::record(uint32_t slot)
{
    panic_if(slot >= slots_.size(), "staging journal slot ", slot);
    return &slots_[slot];
}

bool
StagingJournal::begin(uint32_t slot, const Digest &digest,
                      uint64_t total_bytes, uint32_t chunk_bytes)
{
    panic_if(chunk_bytes == 0, "staging journal chunk size 0");
    SlotRecord *rec = record(slot);
    const uint64_t bitmap_bytes =
        util::ceilDiv(util::ceilDiv(total_bytes, chunk_bytes), 8);
    if (rec->valid && rec->digest == digest &&
        rec->total_bytes == total_bytes &&
        rec->chunk_bytes == chunk_bytes)
        return true;
    rec->valid = true;
    rec->digest = digest;
    rec->total_bytes = total_bytes;
    rec->chunk_bytes = chunk_bytes;
    rec->bitmap.assign(bitmap_bytes, 0);
    return false;
}

void
StagingJournal::markChunk(uint32_t slot, uint64_t index)
{
    SlotRecord *rec = record(slot);
    panic_if(!rec->valid, "markChunk with no open record");
    panic_if(index >= chunkCount(slot), "chunk ", index,
             " out of range");
    rec->bitmap[index / 8] |= static_cast<uint8_t>(1u << (index % 8));
}

bool
StagingJournal::chunkDone(uint32_t slot, uint64_t index) const
{
    const SlotRecord *rec = record(slot);
    if (!rec->valid || index >= chunkCount(slot))
        return false;
    return (rec->bitmap[index / 8] >> (index % 8)) & 1u;
}

uint64_t
StagingJournal::chunkCount(uint32_t slot) const
{
    const SlotRecord *rec = record(slot);
    if (!rec->valid)
        return 0;
    return util::ceilDiv(rec->total_bytes, rec->chunk_bytes);
}

uint64_t
StagingJournal::completedBytes(uint32_t slot) const
{
    const SlotRecord *rec = record(slot);
    if (!rec->valid)
        return 0;
    const uint64_t chunks = chunkCount(slot);
    uint64_t total = 0;
    for (uint64_t i = 0; i < chunks; ++i) {
        if (!chunkDone(slot, i))
            continue;
        const uint64_t begin = i * rec->chunk_bytes;
        const uint64_t end =
            std::min<uint64_t>(begin + rec->chunk_bytes,
                               rec->total_bytes);
        total += end - begin;
    }
    return total;
}

void
StagingJournal::clear(uint32_t slot)
{
    *record(slot) = SlotRecord{};
}

bool
StagingJournal::active(uint32_t slot) const
{
    return record(slot)->valid;
}

std::vector<uint8_t>
StagingJournal::serialize() const
{
    using namespace util;
    std::vector<uint8_t> out;
    putU32(out, kJournalMagic);
    putU32(out, kJournalVersion);
    putU32(out, static_cast<uint32_t>(slots_.size()));
    for (const SlotRecord &rec : slots_) {
        putU32(out, rec.valid ? 1u : 0u);
        putArray(out, rec.digest);
        putU64(out, rec.total_bytes);
        putU32(out, rec.chunk_bytes);
        putBlob(out, rec.bitmap);
    }
    return out;
}

std::optional<StagingJournal>
StagingJournal::deserialize(const std::vector<uint8_t> &data)
{
    util::ByteReader reader(data);
    if (reader.u32() != kJournalMagic)
        return std::nullopt;
    if (reader.u32() != kJournalVersion)
        return std::nullopt;
    StagingJournal journal;
    const uint32_t nslots = reader.u32();
    if (!reader.ok() || nslots != journal.slots_.size())
        return std::nullopt;
    for (SlotRecord &rec : journal.slots_) {
        rec.valid = reader.u32() != 0;
        rec.digest = reader.array<32>();
        rec.total_bytes = reader.u64();
        rec.chunk_bytes = reader.u32();
        rec.bitmap = reader.blob();
        if (!reader.ok())
            return std::nullopt;
        if (!rec.valid) {
            rec = SlotRecord{};
            continue;
        }
        // A journal from untrusted NVRAM must parse defensively:
        // reject geometry that doesn't agree with itself.
        if (rec.chunk_bytes == 0)
            return std::nullopt;
        const uint64_t bitmap_bytes = util::ceilDiv(
            util::ceilDiv(rec.total_bytes, rec.chunk_bytes), 8);
        if (bitmap_bytes > kMaxBitmapBytes ||
            rec.bitmap.size() != bitmap_bytes)
            return std::nullopt;
    }
    if (!reader.atEnd())
        return std::nullopt;
    return journal;
}

} // namespace secproc::update
