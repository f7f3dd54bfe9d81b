/**
 * @file
 * Fixed-block bump arena for the memory plane's page and line
 * storage.
 *
 * mem::MainMemory used to heap-allocate one std::vector<uint8_t> per
 * resident page and mem::OnChipStore one per resident line; under the
 * full-length install grids those allocations (and the cache misses
 * of chasing vector headers) dominate the functional plane now that
 * crypto is table-driven. The arena carves fixed-size blocks out of
 * large slabs with a bump pointer, hands freed blocks back through a
 * free list, and only ever returns zeroed memory — exactly the
 * contract untouched DRAM pages need.
 *
 * Blocks are stable for the lifetime of the arena (slabs never move),
 * so callers can hold raw pointers in their directories. clear()
 * drops every slab at once; there is deliberately no per-block owner
 * tracking beyond the free list.
 */

#ifndef SECPROC_UTIL_PAGE_ARENA_HH
#define SECPROC_UTIL_PAGE_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace secproc::util
{

/** Bump allocator of uniform zero-filled blocks. */
class PageArena
{
  public:
    /**
     * @param block_bytes Size every allocate() returns.
     * @param blocks_per_slab Blocks carved per backing slab.
     */
    explicit PageArena(size_t block_bytes, size_t blocks_per_slab = 64)
        : block_bytes_(block_bytes), blocks_per_slab_(blocks_per_slab)
    {}

    /** A zero-filled block, recycled from the free list if possible. */
    uint8_t *
    allocate()
    {
        if (!free_list_.empty()) {
            uint8_t *block = free_list_.back();
            free_list_.pop_back();
            std::memset(block, 0, block_bytes_);
            return block;
        }
        if (slabs_.empty() || bump_ == blocks_per_slab_) {
            // make_unique value-initializes: slabs start zeroed.
            slabs_.push_back(std::make_unique<uint8_t[]>(
                block_bytes_ * blocks_per_slab_));
            bump_ = 0;
        }
        return slabs_.back().get() + (bump_++) * block_bytes_;
    }

    /** Return @p block (from allocate()) for reuse. */
    void
    release(uint8_t *block)
    {
        free_list_.push_back(block);
    }

    /** Drop every slab; all outstanding blocks become invalid. */
    void
    clear()
    {
        slabs_.clear();
        free_list_.clear();
        bump_ = 0;
    }

    /** Bytes of slab memory held (live + recyclable). */
    size_t
    bytesReserved() const
    {
        return slabs_.size() * block_bytes_ * blocks_per_slab_;
    }

  private:
    size_t block_bytes_;
    size_t blocks_per_slab_;
    std::vector<std::unique_ptr<uint8_t[]>> slabs_;
    std::vector<uint8_t *> free_list_;
    size_t bump_ = 0;
};

} // namespace secproc::util

#endif // SECPROC_UTIL_PAGE_ARENA_HH
