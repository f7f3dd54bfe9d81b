/**
 * @file
 * Integrity engine implementation.
 */

#include "secure/integrity.hh"

#include <cstring>

#include "crypto/sha.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::secure
{

namespace
{

mem::CacheConfig
nodeCacheConfig(const IntegrityConfig &config)
{
    mem::CacheConfig cache;
    cache.name = "merkle_nodes";
    cache.line_size = 64; // one hash node per entry
    cache.size_bytes =
        std::max<uint64_t>(config.node_cache_bytes, 64);
    cache.assoc = 8;
    cache.policy = mem::ReplacementPolicy::Lru;
    return cache;
}

} // namespace

IntegrityEngine::IntegrityEngine(const IntegrityConfig &config)
    : config_(config), node_cache_(nodeCacheConfig(config))
{
    fatal_if(config_.tree_arity < 2, "tree arity must be >= 2");
    // Levels needed so that arity^levels covers all leaves.
    const uint64_t leaves =
        std::max<uint64_t>(1, config_.protected_bytes /
                                  config_.line_size);
    uint32_t levels = 0;
    uint64_t covered = 1;
    while (covered < leaves) {
        covered *= config_.tree_arity;
        ++levels;
    }
    tree_levels_ = levels;
}

uint64_t
IntegrityEngine::hashAt(uint64_t start)
{
    // One fully pipelined hash unit: flat latency, unit initiation.
    const uint64_t begin = std::max(start, hash_engine_free_);
    hash_engine_free_ = begin + 1;
    return begin + config_.hash_latency;
}

uint64_t
IntegrityEngine::nodeAddress(uint32_t level, uint64_t index) const
{
    // Synthetic node namespace far above any program address.
    return (0xFACEull << 44) | (static_cast<uint64_t>(level) << 36) |
           (index << 6);
}

uint64_t
IntegrityEngine::macTableAddr(uint64_t line_va) const
{
    constexpr uint64_t kMacTableBase = 0x7800'0000'0000ull;
    return kMacTableBase +
           (line_va / config_.line_size) * config_.mac_bytes;
}

uint64_t
IntegrityEngine::verifyFill(uint64_t line_va, uint64_t request_cycle,
                            uint64_t data_arrival,
                            mem::MemoryChannel &channel)
{
    switch (config_.mode) {
      case IntegrityMode::None:
        return data_arrival;

      case IntegrityMode::MacBlocking:
      case IntegrityMode::MacSpeculative: {
        const uint64_t mac_arrival = channel.scheduleRead(
            request_cycle, mem::Traffic::MacFetch, /*small=*/true,
            macTableAddr(line_va));
        const uint64_t verified =
            hashAt(std::max(mac_arrival, data_arrival));
        return config_.mode == IntegrityMode::MacBlocking
                   ? verified
                   : data_arrival;
      }

      case IntegrityMode::MerkleCached: {
        // Walk leaf-to-root; stop at the first cached (trusted)
        // node. Each uncached level costs a node fetch + hash.
        uint64_t index = (line_va / config_.line_size);
        uint64_t ready = data_arrival;
        for (uint32_t level = 0; level < tree_levels_; ++level) {
            index /= config_.tree_arity;
            const uint64_t addr = nodeAddress(level + 1, index);
            if (node_cache_.access(addr, /*write=*/false)) {
                ++node_hits_;
                ready = hashAt(ready);
                break; // verified against a trusted cached node
            }
            const uint64_t node_arrival = channel.scheduleRead(
                request_cycle, mem::Traffic::MacFetch, /*small=*/true,
                addr);
            ready = hashAt(std::max(ready, node_arrival));
            const auto victim =
                node_cache_.fill(addr, /*dirty=*/false, 0);
            if (victim.has_value() && victim->valid &&
                victim->dirty) {
                channel.enqueueWrite(ready,
                                     mem::Traffic::MacWriteback,
                                     /*small=*/true, victim->line_addr);
            }
        }
        return ready;
      }
    }
    panic("unhandled integrity mode");
}

void
IntegrityEngine::updateEvict(uint64_t line_va, uint64_t cycle,
                             mem::MemoryChannel &channel)
{
    switch (config_.mode) {
      case IntegrityMode::None:
        return;
      case IntegrityMode::MacBlocking:
      case IntegrityMode::MacSpeculative: {
        const uint64_t mac_ready = hashAt(cycle);
        channel.enqueueWrite(mac_ready, mem::Traffic::MacWriteback,
                             /*small=*/true, macTableAddr(line_va));
        return;
      }
      case IntegrityMode::MerkleCached: {
        // Update the leaf-to-root path in the node cache; dirty
        // nodes spill lazily on replacement.
        uint64_t index = line_va / config_.line_size;
        uint64_t ready = hashAt(cycle);
        for (uint32_t level = 0; level < tree_levels_; ++level) {
            index /= config_.tree_arity;
            const uint64_t addr = nodeAddress(level + 1, index);
            if (!node_cache_.access(addr, /*write=*/true)) {
                const auto victim =
                    node_cache_.fill(addr, /*dirty=*/true, 0);
                if (victim.has_value() && victim->valid &&
                    victim->dirty) {
                    channel.enqueueWrite(ready,
                                         mem::Traffic::MacWriteback,
                                         /*small=*/true,
                                         victim->line_addr);
                }
                // Missing node must be fetched to be updated.
                channel.scheduleRead(cycle, mem::Traffic::MacFetch,
                                     /*small=*/true, addr);
            }
            ready = hashAt(ready);
        }
        return;
      }
    }
}

LineMac
IntegrityEngine::computeMac(uint64_t line_va, uint32_t seqnum,
                            std::span<const uint8_t> ciphertext) const
{
    panic_if(mac_key_.empty(), "MAC key not installed");
    std::vector<uint8_t> message(12 + ciphertext.size());
    util::storeLe64(message.data(), line_va);
    message[8] = static_cast<uint8_t>(seqnum);
    message[9] = static_cast<uint8_t>(seqnum >> 8);
    message[10] = static_cast<uint8_t>(seqnum >> 16);
    message[11] = static_cast<uint8_t>(seqnum >> 24);
    std::memcpy(message.data() + 12, ciphertext.data(),
                ciphertext.size());
    const auto full = crypto::hmacSha256(mac_key_.data(),
                                         mac_key_.size(),
                                         message.data(), message.size());
    LineMac mac;
    std::memcpy(mac.data(), full.data(), mac.size());
    return mac;
}

void
IntegrityEngine::storeMac(uint64_t line_va, const LineMac &mac)
{
    mac_table_.insert(lineIndex(line_va), mac);
}

bool
IntegrityEngine::verifyMac(uint64_t line_va, uint32_t seqnum,
                           std::span<const uint8_t> ciphertext) const
{
    const LineMac *stored = mac_table_.find(lineIndex(line_va));
    if (stored == nullptr)
        return false;
    return computeMac(line_va, seqnum, ciphertext) == *stored;
}

void
IntegrityEngine::corruptStoredMac(uint64_t line_va, const LineMac &mac)
{
    mac_table_.insert(lineIndex(line_va), mac);
}

std::optional<LineMac>
IntegrityEngine::storedMac(uint64_t line_va) const
{
    const LineMac *stored = mac_table_.find(lineIndex(line_va));
    if (stored == nullptr)
        return std::nullopt;
    return *stored;
}

} // namespace secproc::secure
