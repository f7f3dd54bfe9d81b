/**
 * @file
 * On-chip plaintext line store.
 *
 * Inside the security boundary caches hold plaintext (paper Section
 * 2.2: "all the on-chip caches are secure and store data and
 * instructions in plaintext"). The timing caches in secproc track
 * only tags; this companion structure holds the actual plaintext
 * bytes of every line currently resident on chip, so functional runs
 * can verify end-to-end that encrypt(evict) / decrypt(fill) round
 * trips the program's data through untrusted ciphertext memory.
 *
 * Line bytes live in util::PageArena blocks behind a radix directory
 * keyed by line index: the fill/evict churn of an install grid would
 * otherwise allocate and free one std::vector per miss.
 */

#ifndef SECPROC_MEM_ON_CHIP_STORE_HH
#define SECPROC_MEM_ON_CHIP_STORE_HH

#include <cstdint>
#include <span>

#include "util/page_arena.hh"
#include "util/radix_array.hh"

namespace secproc::mem
{

/** Map of resident line address to plaintext bytes. */
class OnChipStore
{
  public:
    explicit OnChipStore(uint32_t line_size)
        : line_size_(line_size), arena_(line_size)
    {}

    /** Install plaintext for a line (fill path). */
    void install(uint64_t line_addr, std::span<const uint8_t> bytes);

    /**
     * Remove a line, copying its plaintext into @p out (evict path).
     * @return false (out untouched) when the line is not resident.
     */
    bool removeInto(uint64_t line_addr, std::span<uint8_t> out);

    /** Peek at resident plaintext (loads); nullptr when absent. */
    const uint8_t *peek(uint64_t line_addr) const;

    /** Mutate resident plaintext (stores); nullptr when absent. */
    uint8_t *peekMutable(uint64_t line_addr);

    size_t residentLines() const { return lines_.size(); }

    void
    clear()
    {
        lines_.clear();
        arena_.clear();
    }

  private:
    uint32_t line_size_;
    /** Line index (line_addr / line_size) -> arena block. */
    util::RadixArray<uint8_t *> lines_;
    util::PageArena arena_;
};

} // namespace secproc::mem

#endif // SECPROC_MEM_ON_CHIP_STORE_HH
