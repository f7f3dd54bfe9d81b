/**
 * @file
 * Small bit-manipulation helpers shared across the simulator.
 *
 * All helpers are constexpr and header-only; they are used on hot
 * simulation paths (cache indexing, seed construction).
 */

#ifndef SECPROC_UTIL_BITOPS_HH
#define SECPROC_UTIL_BITOPS_HH

#include <bit>
#include <cstdint>
#include <type_traits>

namespace secproc::util
{

/** @return true when @p v is a power of two (0 is not). */
constexpr bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Integer floor(log2(v)); @p v must be non-zero. */
constexpr unsigned
floorLog2(uint64_t v)
{
    return 63u - static_cast<unsigned>(std::countl_zero(v));
}

/** Integer ceil(log2(v)); @p v must be non-zero. */
constexpr unsigned
ceilLog2(uint64_t v)
{
    return v <= 1 ? 0u : floorLog2(v - 1) + 1;
}

/**
 * ceil(@p value / @p unit) for @p unit > 0, without the wrap of the
 * (value + unit - 1) / unit idiom near 2^64 (sizes parsed from
 * untrusted bytes reach there).
 */
constexpr uint64_t
ceilDiv(uint64_t value, uint64_t unit)
{
    return value / unit + (value % unit != 0);
}

/** Round @p v down to a multiple of power-of-two @p align. */
constexpr uint64_t
alignDown(uint64_t v, uint64_t align)
{
    return v & ~(align - 1);
}

/** Round @p v up to a multiple of power-of-two @p align. */
constexpr uint64_t
alignUp(uint64_t v, uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Extract bits [lo, lo+width) of @p v. */
constexpr uint64_t
bits(uint64_t v, unsigned lo, unsigned width)
{
    return width >= 64 ? (v >> lo)
                       : (v >> lo) & ((uint64_t{1} << width) - 1);
}

/** A mask with the low @p width bits set. */
constexpr uint64_t
mask(unsigned width)
{
    return width >= 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
}

/** Rotate a 32-bit word left by @p n (n in [0,31]). */
constexpr uint32_t
rotl32(uint32_t v, unsigned n)
{
    return std::rotl(v, static_cast<int>(n));
}

/** Rotate a 32-bit word right by @p n (n in [0,31]). */
constexpr uint32_t
rotr32(uint32_t v, unsigned n)
{
    return std::rotr(v, static_cast<int>(n));
}

/** Rotate a 28-bit value left by @p n, used by the DES key schedule. */
constexpr uint32_t
rotl28(uint32_t v, unsigned n)
{
    return ((v << n) | (v >> (28 - n))) & 0x0FFFFFFFu;
}

/**
 * splitmix64 finalizer: a strong 64-bit bijective mix. Used wherever
 * structured keys (line addresses with zero low bits, (asid, vpn)
 * pairs) must spread over a power-of-two table. Being bijective, it
 * never *introduces* collisions — combine multi-part keys by mixing
 * between parts, e.g. mix64(mix64(vpn) + asid), not by packing bits.
 */
constexpr uint64_t
mix64(uint64_t z)
{
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Load a big-endian 32-bit word from @p p. */
inline uint32_t
loadBe32(const uint8_t *p)
{
    return (uint32_t{p[0]} << 24) | (uint32_t{p[1]} << 16) |
           (uint32_t{p[2]} << 8) | uint32_t{p[3]};
}

/** Store @p v to @p p as a big-endian 32-bit word. */
inline void
storeBe32(uint8_t *p, uint32_t v)
{
    p[0] = static_cast<uint8_t>(v >> 24);
    p[1] = static_cast<uint8_t>(v >> 16);
    p[2] = static_cast<uint8_t>(v >> 8);
    p[3] = static_cast<uint8_t>(v);
}

/** Load a big-endian 64-bit word from @p p. */
inline uint64_t
loadBe64(const uint8_t *p)
{
    return (uint64_t{loadBe32(p)} << 32) | loadBe32(p + 4);
}

/** Store @p v to @p p as a big-endian 64-bit word. */
inline void
storeBe64(uint8_t *p, uint64_t v)
{
    storeBe32(p, static_cast<uint32_t>(v >> 32));
    storeBe32(p + 4, static_cast<uint32_t>(v));
}

/** Load a little-endian 64-bit word from @p p. */
inline uint64_t
loadLe64(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

/** Store @p v to @p p as a little-endian 64-bit word. */
inline void
storeLe64(uint8_t *p, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        p[i] = static_cast<uint8_t>(v);
        v >>= 8;
    }
}

} // namespace secproc::util

#endif // SECPROC_UTIL_BITOPS_HH
