/**
 * @file
 * Memory integrity verification engine (extension).
 *
 * The paper deliberately leaves integrity verification to the
 * hash-tree work of Gassend et al. (HPCA 2003) and concentrates on
 * privacy. This module supplies that substrate so the full secure
 * processor can be composed and costed:
 *
 *  - per-line MACs, fetched alongside the line and checked either
 *    *blocking* (data held until verified) or *speculatively* (data
 *    used immediately, verification completes in the background,
 *    which is the Gassend-style latency hiding);
 *  - a cached Merkle tree: interior nodes live in untrusted memory,
 *    a small on-chip node cache truncates verification walks, the
 *    root never leaves the chip (defeats replay of line+MAC pairs).
 *
 * Functionally, MACs bind (line address, sequence number,
 * ciphertext) under a dedicated MAC key, so replaying stale
 * ciphertext or splicing MACs across lines is detected — the attack
 * suite exercises exactly this.
 */

#ifndef SECPROC_SECURE_INTEGRITY_HH
#define SECPROC_SECURE_INTEGRITY_HH

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "mem/cache.hh"
#include "mem/memory_channel.hh"
#include "util/radix_array.hh"
#include "util/stats.hh"

namespace secproc::secure
{

/** Verification policy. */
enum class IntegrityMode
{
    None,
    /** Per-line MAC, data held until the check completes. */
    MacBlocking,
    /** Per-line MAC, data released immediately (background check). */
    MacSpeculative,
    /** Merkle tree with an on-chip node cache, blocking. */
    MerkleCached,
};

/** Static configuration. */
struct IntegrityConfig
{
    IntegrityMode mode = IntegrityMode::None;

    /** Cycles to hash one line / one tree node. */
    uint32_t hash_latency = 80;

    /** On-chip Merkle node cache capacity. */
    uint64_t node_cache_bytes = 16 * 1024;

    /** Tree fan-out (children per interior node). */
    uint32_t tree_arity = 8;

    /** Bytes of protected memory the tree covers. */
    uint64_t protected_bytes = 64ull << 20;

    /** Line size (leaf granularity). */
    uint32_t line_size = 128;

    /** MAC bytes stored per line (truncated HMAC). */
    uint32_t mac_bytes = 8;
};

/** Per-line MAC value (truncated HMAC-SHA256). */
using LineMac = std::array<uint8_t, 8>;

/**
 * Timing and functional integrity engine.
 */
class IntegrityEngine
{
  public:
    explicit IntegrityEngine(const IntegrityConfig &config);

    /**
     * Timing: verification work for a line fill whose data arrives
     * at @p data_arrival.
     *
     * @param line_va Line virtual address.
     * @param request_cycle Cycle the fill request was issued.
     * @param data_arrival Cycle the (decrypted) data is ready.
     * @param channel Channel for MAC/node fetch traffic.
     * @return Cycle the data may architecturally commit (equals
     *         @p data_arrival for None and MacSpeculative).
     */
    uint64_t verifyFill(uint64_t line_va, uint64_t request_cycle,
                        uint64_t data_arrival,
                        mem::MemoryChannel &channel);

    /**
     * Timing: MAC/tree update work for a dirty eviction at
     * @p cycle (off the critical path; traffic + hash occupancy).
     */
    void updateEvict(uint64_t line_va, uint64_t cycle,
                     mem::MemoryChannel &channel);

    // ------------------------------------------------- functional MAC

    /** Install the MAC key (from the compartment's key material). */
    void setMacKey(const std::vector<uint8_t> &key) { mac_key_ = key; }

    /** Compute the MAC binding (line, seqnum, ciphertext). */
    LineMac computeMac(uint64_t line_va, uint32_t seqnum,
                       std::span<const uint8_t> ciphertext) const;

    /** Record the MAC for a line (evict path). */
    void storeMac(uint64_t line_va, const LineMac &mac);

    /**
     * Verify a fetched line. @return true when the stored MAC
     * matches; false = tampering detected (spoof/splice/replay).
     */
    bool verifyMac(uint64_t line_va, uint32_t seqnum,
                   std::span<const uint8_t> ciphertext) const;

    /** Adversary access to the MAC table (replay simulations). */
    void corruptStoredMac(uint64_t line_va, const LineMac &mac);
    std::optional<LineMac> storedMac(uint64_t line_va) const;

    /** Merkle walks that stopped at a cached (trusted) node. */
    uint64_t nodeCacheHits() const { return node_hits_.value(); }

    const IntegrityConfig &config() const { return config_; }

  private:
    IntegrityConfig config_;
    uint32_t tree_levels_;
    mem::Cache node_cache_;
    uint64_t hash_engine_free_ = 0;

    std::vector<uint8_t> mac_key_;
    /** Keyed by line index (line_va / line_size); flat radix pages. */
    util::RadixArray<LineMac> mac_table_;

    util::Counter node_hits_;

    uint64_t hashAt(uint64_t start);

    /** Synthetic address of a tree node (level, index). */
    uint64_t nodeAddress(uint32_t level, uint64_t index) const;

    /** Proxy address of a line's MAC-table entry (DRAM mapping). */
    uint64_t macTableAddr(uint64_t line_va) const;

    /** Flat-table key: line index within the protected space. */
    uint64_t
    lineIndex(uint64_t line_va) const
    {
        return line_va / config_.line_size;
    }
};

} // namespace secproc::secure

#endif // SECPROC_SECURE_INTEGRITY_HH
