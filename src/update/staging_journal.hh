/**
 * @file
 * Chunk-granular staging journal (resumable OTA staging).
 *
 * The race matrix proves a power cut mid-stage is *safe* (the torn
 * slot re-verifies dirty and the previous image stays active), but
 * recovery used to re-download and re-stage from byte zero. The
 * journal makes staging resumable, the dual-bank block-wise DFU
 * pattern: per slot it records which framed-bundle payload is being
 * staged (by digest), the total size, the chunk granularity, and a
 * bitmap of chunks whose slot write completed. After a power cut the
 * next attempt at the *same* payload skips completed chunks — both
 * their transport download and their slot write — and a different
 * payload resets the record.
 *
 * Trust model: the journal is an *efficiency* hint, never an
 * authority. Resumed bytes still flow through the same admission
 * parse and verify, and the same activation re-verify of the slot,
 * as fresh bytes; a journal that lies about completed chunks (bit
 * rot, torn journal write) produces a bundle that fails verification
 * exactly like any other corrupt slot. A refused install retires its
 * slot's record, so the next attempt downloads and writes every
 * chunk afresh instead of resuming over bytes a verdict refused; a
 * power cut is not a refusal and keeps the record. Persisted across
 * simulated reboots like the RollbackStore (serialize/deserialize),
 * though unlike the counter bank it can live in untrusted NVRAM for
 * exactly the reason above.
 */

#ifndef SECPROC_UPDATE_STAGING_JOURNAL_HH
#define SECPROC_UPDATE_STAGING_JOURNAL_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "update/manifest.hh"

namespace secproc::update
{

/** Per-slot resumable staging state. */
class StagingJournal
{
  public:
    StagingJournal() = default;

    /**
     * Open (or resume) a staging session for @p slot writing
     * @p total_bytes of payload identified by @p digest, tracked at
     * @p chunk_bytes granularity. When the slot already has a record
     * with the same identity, its completed chunks are kept and this
     * returns true (resume); any mismatch — different payload,
     * different size or granularity — resets the record and returns
     * false (fresh start).
     */
    bool begin(uint32_t slot, const Digest &digest,
               uint64_t total_bytes, uint32_t chunk_bytes);

    /** Record chunk @p index of @p slot as fully written. */
    void markChunk(uint32_t slot, uint64_t index);

    /** Was chunk @p index recorded complete? False without a record. */
    bool chunkDone(uint32_t slot, uint64_t index) const;

    /** Chunks the active record tracks (0 without a record). */
    uint64_t chunkCount(uint32_t slot) const;

    /** Payload bytes covered by completed chunks. */
    uint64_t completedBytes(uint32_t slot) const;

    /** Drop @p slot's record (activation success, or a refusal). */
    void clear(uint32_t slot);

    /** Does @p slot have an open record? */
    bool active(uint32_t slot) const;

    /** Persistence across simulated reboots. @{ */
    std::vector<uint8_t> serialize() const;
    static std::optional<StagingJournal>
    deserialize(const std::vector<uint8_t> &data);
    /** @} */

  private:
    struct SlotRecord
    {
        bool valid = false;
        Digest digest = {};
        uint64_t total_bytes = 0;
        uint32_t chunk_bytes = 0;
        /** One bit per chunk, LSB-first within each byte. */
        std::vector<uint8_t> bitmap;
    };

    const SlotRecord *record(uint32_t slot) const;
    SlotRecord *record(uint32_t slot);

    std::array<SlotRecord, 2> slots_;
};

} // namespace secproc::update

#endif // SECPROC_UPDATE_STAGING_JOURNAL_HH
