/**
 * @file
 * DES implementation. Permutation tables follow FIPS 46-3 numbering:
 * entries are 1-based bit positions counted from the most significant
 * bit of the input.
 *
 * The block path is table-driven: the per-bit FIPS permutations are
 * folded, at compile time, into byte-indexed contribution tables (IP,
 * FP) and combined S-box/P tables (the classic SP tables), and the E
 * expansion becomes eight rotate-and-mask windows. Every table is
 * derived from the FIPS tables below by the same permute() the
 * original per-bit path used, so the transform is the identical
 * function — the crypto tests pin known-answer vectors to keep it
 * that way. This is what turns ~1.6us/block into tens of ns: OTP pad
 * generation over every protected line dominated whole-grid
 * wall-clock before it.
 *
 * Bulk calls on an AVX2 host take a bitsliced path instead (Biham,
 * "A Fast New DES Implementation in Software", FSE 1997): 256 blocks
 * are transposed into 64 bit planes, IP/E/P/FP become compile-time
 * plane index maps, and each S-box is a boolean circuit derived at
 * compile time from the same FIPS tables and checked against them by
 * a static_assert.
 */

#include "crypto/des.hh"

#include <bit>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::crypto
{

namespace
{

/** Initial permutation. */
constexpr uint8_t kIp[64] = {
    58, 50, 42, 34, 26, 18, 10, 2, 60, 52, 44, 36, 28, 20, 12, 4,
    62, 54, 46, 38, 30, 22, 14, 6, 64, 56, 48, 40, 32, 24, 16, 8,
    57, 49, 41, 33, 25, 17,  9, 1, 59, 51, 43, 35, 27, 19, 11, 3,
    61, 53, 45, 37, 29, 21, 13, 5, 63, 55, 47, 39, 31, 23, 15, 7,
};

/** Final permutation (inverse of kIp). */
constexpr uint8_t kFp[64] = {
    40, 8, 48, 16, 56, 24, 64, 32, 39, 7, 47, 15, 55, 23, 63, 31,
    38, 6, 46, 14, 54, 22, 62, 30, 37, 5, 45, 13, 53, 21, 61, 29,
    36, 4, 44, 12, 52, 20, 60, 28, 35, 3, 43, 11, 51, 19, 59, 27,
    34, 2, 42, 10, 50, 18, 58, 26, 33, 1, 41,  9, 49, 17, 57, 25,
};

/** Expansion of the 32-bit half block to 48 bits. */
constexpr uint8_t kE[48] = {
    32,  1,  2,  3,  4,  5,  4,  5,  6,  7,  8,  9,
     8,  9, 10, 11, 12, 13, 12, 13, 14, 15, 16, 17,
    16, 17, 18, 19, 20, 21, 20, 21, 22, 23, 24, 25,
    24, 25, 26, 27, 28, 29, 28, 29, 30, 31, 32,  1,
};

/** Permutation applied to the S-box output. */
constexpr uint8_t kP[32] = {
    16,  7, 20, 21, 29, 12, 28, 17,  1, 15, 23, 26,  5, 18, 31, 10,
     2,  8, 24, 14, 32, 27,  3,  9, 19, 13, 30,  6, 22, 11,  4, 25,
};

/** The eight S-boxes; [box][row*16+col]. */
constexpr uint8_t kSbox[8][64] = {
    {14,  4, 13,  1,  2, 15, 11,  8,  3, 10,  6, 12,  5,  9,  0,  7,
      0, 15,  7,  4, 14,  2, 13,  1, 10,  6, 12, 11,  9,  5,  3,  8,
      4,  1, 14,  8, 13,  6,  2, 11, 15, 12,  9,  7,  3, 10,  5,  0,
     15, 12,  8,  2,  4,  9,  1,  7,  5, 11,  3, 14, 10,  0,  6, 13},
    {15,  1,  8, 14,  6, 11,  3,  4,  9,  7,  2, 13, 12,  0,  5, 10,
      3, 13,  4,  7, 15,  2,  8, 14, 12,  0,  1, 10,  6,  9, 11,  5,
      0, 14,  7, 11, 10,  4, 13,  1,  5,  8, 12,  6,  9,  3,  2, 15,
     13,  8, 10,  1,  3, 15,  4,  2, 11,  6,  7, 12,  0,  5, 14,  9},
    {10,  0,  9, 14,  6,  3, 15,  5,  1, 13, 12,  7, 11,  4,  2,  8,
     13,  7,  0,  9,  3,  4,  6, 10,  2,  8,  5, 14, 12, 11, 15,  1,
     13,  6,  4,  9,  8, 15,  3,  0, 11,  1,  2, 12,  5, 10, 14,  7,
      1, 10, 13,  0,  6,  9,  8,  7,  4, 15, 14,  3, 11,  5,  2, 12},
    { 7, 13, 14,  3,  0,  6,  9, 10,  1,  2,  8,  5, 11, 12,  4, 15,
     13,  8, 11,  5,  6, 15,  0,  3,  4,  7,  2, 12,  1, 10, 14,  9,
     10,  6,  9,  0, 12, 11,  7, 13, 15,  1,  3, 14,  5,  2,  8,  4,
      3, 15,  0,  6, 10,  1, 13,  8,  9,  4,  5, 11, 12,  7,  2, 14},
    { 2, 12,  4,  1,  7, 10, 11,  6,  8,  5,  3, 15, 13,  0, 14,  9,
     14, 11,  2, 12,  4,  7, 13,  1,  5,  0, 15, 10,  3,  9,  8,  6,
      4,  2,  1, 11, 10, 13,  7,  8, 15,  9, 12,  5,  6,  3,  0, 14,
     11,  8, 12,  7,  1, 14,  2, 13,  6, 15,  0,  9, 10,  4,  5,  3},
    {12,  1, 10, 15,  9,  2,  6,  8,  0, 13,  3,  4, 14,  7,  5, 11,
     10, 15,  4,  2,  7, 12,  9,  5,  6,  1, 13, 14,  0, 11,  3,  8,
      9, 14, 15,  5,  2,  8, 12,  3,  7,  0,  4, 10,  1, 13, 11,  6,
      4,  3,  2, 12,  9,  5, 15, 10, 11, 14,  1,  7,  6,  0,  8, 13},
    { 4, 11,  2, 14, 15,  0,  8, 13,  3, 12,  9,  7,  5, 10,  6,  1,
     13,  0, 11,  7,  4,  9,  1, 10, 14,  3,  5, 12,  2, 15,  8,  6,
      1,  4, 11, 13, 12,  3,  7, 14, 10, 15,  6,  8,  0,  5,  9,  2,
      6, 11, 13,  8,  1,  4, 10,  7,  9,  5,  0, 15, 14,  2,  3, 12},
    {13,  2,  8,  4,  6, 15, 11,  1, 10,  9,  3, 14,  5,  0, 12,  7,
      1, 15, 13,  8, 10,  3,  7,  4, 12,  5,  6, 11,  0, 14,  9,  2,
      7, 11,  4,  1,  9, 12, 14,  2,  0,  6, 10, 13, 15,  3,  5,  8,
      2,  1, 14,  7,  4, 10,  8, 13, 15, 12,  9,  0,  3,  5,  6, 11},
};

/** Permuted choice 1: 64-bit key to 56 bits (drops parity). */
constexpr uint8_t kPc1[56] = {
    57, 49, 41, 33, 25, 17,  9,  1, 58, 50, 42, 34, 26, 18,
    10,  2, 59, 51, 43, 35, 27, 19, 11,  3, 60, 52, 44, 36,
    63, 55, 47, 39, 31, 23, 15,  7, 62, 54, 46, 38, 30, 22,
    14,  6, 61, 53, 45, 37, 29, 21, 13,  5, 28, 20, 12,  4,
};

/** Permuted choice 2: 56-bit CD to a 48-bit round key. */
constexpr uint8_t kPc2[48] = {
    14, 17, 11, 24,  1,  5,  3, 28, 15,  6, 21, 10,
    23, 19, 12,  4, 26,  8, 16,  7, 27, 20, 13,  2,
    41, 52, 31, 37, 47, 55, 30, 40, 51, 45, 33, 48,
    44, 49, 39, 56, 34, 53, 46, 42, 50, 36, 29, 32,
};

/** Per-round left-rotation amounts for the key schedule. */
constexpr uint8_t kShifts[16] = {
    1, 1, 2, 2, 2, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 1,
};

/**
 * Apply a FIPS-style permutation: table entries select bits of the
 * @p in_width-bit input (1 = MSB); output bit 0 of the result is the
 * last table entry (i.e. the output is built MSB-first).
 */
constexpr uint64_t
permute(uint64_t value, const uint8_t *table, unsigned out_width,
        unsigned in_width)
{
    uint64_t out = 0;
    for (unsigned i = 0; i < out_width; ++i) {
        out <<= 1;
        out |= (value >> (in_width - table[i])) & 1;
    }
    return out;
}

constexpr uint32_t
rotl32(uint32_t value, unsigned amount)
{
    return (value << amount) | (value >> ((32 - amount) & 31));
}

/**
 * S-box @p box on the six-bit group @p six: the outer bits (5 and 0)
 * pick the row, the middle four the column.
 */
constexpr uint32_t
sboxOutput(int box, uint32_t six)
{
    const uint32_t row = ((six & 0x20) >> 4) | (six & 1);
    const uint32_t col = (six >> 1) & 0xF;
    return kSbox[box][row * 16 + col];
}

/**
 * Compile-time folded lookup tables:
 *  - sp[b][v]: the P-permuted output of S-box b for the six-bit
 *    group value v (row/column decode included) — the classic
 *    combined SP tables. The eight boxes feed disjoint P-output
 *    bits, so the round function is the OR of eight lookups.
 *  - ip/fp[i][v]: the contribution of input byte i (byte 0 = the
 *    most significant) holding value v to the permuted 64-bit
 *    output; a permutation distributes over disjoint inputs, so
 *    IP/FP are the OR of eight lookups each.
 * Cache-line aligned: placed at a half-line offset, the tables made
 * 16-block line pads ~8% slower.
 */
struct alignas(64) DesTables
{
    uint32_t sp[8][64] = {};
    uint64_t ip[8][256] = {};
    uint64_t fp[8][256] = {};
};

constexpr DesTables
buildTables()
{
    DesTables t;
    for (int box = 0; box < 8; ++box) {
        for (uint32_t six = 0; six < 64; ++six) {
            // Box b produced nibble 7-b of the pre-P word.
            const uint32_t placed = sboxOutput(box, six)
                                    << (28 - 4 * box);
            t.sp[box][six] =
                static_cast<uint32_t>(permute(placed, kP, 32, 32));
        }
    }
    for (int byte = 0; byte < 8; ++byte) {
        for (uint32_t v = 0; v < 256; ++v) {
            const uint64_t placed = uint64_t{v} << (56 - 8 * byte);
            t.ip[byte][v] = permute(placed, kIp, 64, 64);
            t.fp[byte][v] = permute(placed, kFp, 64, 64);
        }
    }
    return t;
}

constexpr DesTables kTables = buildTables();

constexpr uint64_t
byteLookup(const uint64_t (&table)[8][256], uint64_t value)
{
    uint64_t out = 0;
    for (int byte = 0; byte < 8; ++byte)
        out |= table[byte][(value >> (56 - 8 * byte)) & 0xFF];
    return out;
}

/**
 * The DES round function f(R, K). The E expansion's six-bit group b
 * is the cyclic window of R starting at 1-based MSB position
 * kE[6b] — i.e. (rotl32(R, kE[6b]-1) >> 26) — XORed with the
 * matching round-key chunk; each XORed group indexes its SP table.
 */
inline uint32_t
feistel(uint32_t right, uint64_t round_key)
{
    const auto rk = [round_key](int box) {
        return static_cast<uint32_t>(round_key >> (42 - 6 * box));
    };
    uint32_t out = 0;
    out |= kTables.sp[0][((rotl32(right, 31) >> 26) ^ rk(0)) & 0x3F];
    out |= kTables.sp[1][((rotl32(right, 3) >> 26) ^ rk(1)) & 0x3F];
    out |= kTables.sp[2][((rotl32(right, 7) >> 26) ^ rk(2)) & 0x3F];
    out |= kTables.sp[3][((rotl32(right, 11) >> 26) ^ rk(3)) & 0x3F];
    out |= kTables.sp[4][((rotl32(right, 15) >> 26) ^ rk(4)) & 0x3F];
    out |= kTables.sp[5][((rotl32(right, 19) >> 26) ^ rk(5)) & 0x3F];
    out |= kTables.sp[6][((rotl32(right, 23) >> 26) ^ rk(6)) & 0x3F];
    out |= kTables.sp[7][((rotl32(right, 27) >> 26) ^ rk(7)) & 0x3F];
    return out;
}

// --------------------------------------------------------------------
// Bitsliced path
// --------------------------------------------------------------------

/** Gate kinds: a & b, ~a & b (a constant folds into it), a ^ b. */
enum class GateOp : uint8_t
{
    And,
    AndNot,
    Xor,
};

struct Gate
{
    GateOp op = GateOp::Xor;
    uint8_t a = 0;
    uint8_t b = 0;
};

/** Wires 0-5 carry bits 0-5 of the six-bit group; wire 6 is all ones. */
constexpr unsigned kOnesWire = 6;
/** Gate g drives wire kFirstGateWire + g. */
constexpr unsigned kFirstGateWire = 7;

/** One S-box as straight-line logic, gates in evaluation order. */
struct SboxCircuit
{
    static constexpr unsigned kMaxGates = 128;
    static constexpr unsigned kMaxWires = kFirstGateWire + kMaxGates;

    Gate gates[kMaxGates] = {};
    unsigned count = 0;
    /** Wire of each output bit, most significant first. */
    uint8_t out[4] = {};

    constexpr uint8_t
    emit(GateOp op, unsigned a, unsigned b)
    {
        gates[count] = {op, static_cast<uint8_t>(a),
                        static_cast<uint8_t>(b)};
        return static_cast<uint8_t>(kFirstGateWire + count++);
    }
};

/**
 * Derive S-box @p box's circuit from kSbox. Each output bit's
 * algebraic normal form (an XOR of monomials) is split by the row
 * bits r0 = bit 0 and r1 = bit 5:
 *
 *   out = h0 ^ r0·h1 ^ r1·h2 ^ r0·r1·h3,
 *
 * each h an XOR of monomials in the four column bits (at most 11 ANDs
 * make every one). The 16 XOR sums share subterms, so they are built
 * by Paar's greedy rule: while some pair of terms occurs together in
 * two or more sums, XOR the most frequent pair once and substitute it
 * everywhere. A constant 1 in h1..h3 folds into an AND-NOT
 * (r·(1 ^ h) = ~h & r); one in h0 costs an XOR with the ones wire.
 * The eight boxes come to 74-88 gates, 644 in all.
 */
constexpr SboxCircuit
buildCircuit(int box)
{
    SboxCircuit c;
    constexpr uint8_t kNone = 0xFF;

    // sums[t][o]: output bit t's terms under row monomial o (0: 1,
    // 1: r0, 2: r1, 3: r0·r1), as a set of column monomials (bit m:
    // the product of column bits m; m = 0 is the constant 1).
    uint16_t sums[4][4] = {};
    for (int t = 0; t < 4; ++t) {
        uint8_t anf[64] = {};
        for (uint32_t six = 0; six < 64; ++six)
            anf[six] = (sboxOutput(box, six) >> (3 - t)) & 1;
        // Moebius transform: truth table to monomial coefficients.
        for (uint32_t bit = 1; bit < 64; bit <<= 1) {
            for (uint32_t six = 0; six < 64; ++six) {
                if (six & bit)
                    anf[six] ^= anf[six ^ bit];
            }
        }
        for (uint32_t mono = 0; mono < 64; ++mono) {
            if (anf[mono]) {
                sums[t][(mono & 1) | ((mono >> 4) & 2)] |=
                    static_cast<uint16_t>(1u << ((mono >> 1) & 0xF));
            }
        }
    }

    // Column monomials: column bit k is wire 1 + k; each product a sum
    // uses (or a used product builds on) costs one AND.
    unsigned used = 0;
    for (const auto &row : sums) {
        for (const uint16_t sum : row)
            used |= sum;
    }
    for (unsigned m = 15; m > 0; --m) {
        if ((used >> m & 1) && std::popcount(m) > 1)
            used |= 1u << (m & (m - 1));
    }
    uint8_t mono_wire[16] = {};
    for (unsigned m = 1; m < 16; ++m) {
        const unsigned low = static_cast<unsigned>(std::countr_zero(m));
        if (m == 1u << low) {
            mono_wire[m] = static_cast<uint8_t>(1 + low);
        } else if (used >> m & 1) {
            mono_wire[m] =
                c.emit(GateOp::And, mono_wire[m & (m - 1)], 1 + low);
        }
    }

    // in_sums[w]: the sums (bit 4t + o) that XOR wire w in.
    unsigned in_sums[SboxCircuit::kMaxWires] = {};
    for (unsigned t = 0; t < 4; ++t) {
        for (unsigned o = 0; o < 4; ++o) {
            for (unsigned m = 1; m < 16; ++m) {
                if (sums[t][o] >> m & 1)
                    in_sums[mono_wire[m]] |= 1u << (4 * t + o);
            }
        }
    }
    for (;;) {
        uint8_t live[SboxCircuit::kMaxWires] = {};
        unsigned live_count = 0;
        for (unsigned w = 0; w < kFirstGateWire + c.count; ++w) {
            if (in_sums[w] != 0)
                live[live_count++] = static_cast<uint8_t>(w);
        }
        int best = 1;
        unsigned a = 0, b = 0;
        for (unsigned i = 0; i < live_count; ++i) {
            for (unsigned j = i + 1; j < live_count; ++j) {
                const int shared =
                    std::popcount(in_sums[live[i]] & in_sums[live[j]]);
                if (shared > best) {
                    best = shared;
                    a = live[i];
                    b = live[j];
                }
            }
        }
        if (best == 1)
            break;
        const uint8_t pair = c.emit(GateOp::Xor, a, b);
        in_sums[pair] = in_sums[a] & in_sums[b];
        in_sums[a] &= ~in_sums[pair];
        in_sums[b] &= ~in_sums[pair];
    }

    // Each sum is a chain of XORs over the terms left in it.
    const unsigned term_end = kFirstGateWire + c.count;
    uint8_t h[4][4] = {};
    for (unsigned t = 0; t < 4; ++t) {
        for (unsigned o = 0; o < 4; ++o) {
            uint8_t acc = kNone;
            for (unsigned w = 0; w < term_end; ++w) {
                if (in_sums[w] >> (4 * t + o) & 1)
                    acc = acc == kNone ? static_cast<uint8_t>(w)
                                       : c.emit(GateOp::Xor, acc, w);
            }
            h[t][o] = acc;
        }
    }

    bool need_both = false;
    for (unsigned t = 0; t < 4; ++t)
        need_both |= h[t][3] != kNone || (sums[t][3] & 1) != 0;
    const uint8_t row_wire[4] = {
        kNone, 0, 5, need_both ? c.emit(GateOp::And, 0, 5) : kNone};
    for (unsigned t = 0; t < 4; ++t) {
        uint8_t acc = h[t][0];
        for (unsigned o = 1; o < 4; ++o) {
            const bool one = (sums[t][o] & 1) != 0;
            uint8_t term = kNone;
            if (h[t][o] != kNone) {
                term = c.emit(one ? GateOp::AndNot : GateOp::And,
                              h[t][o], row_wire[o]);
            } else if (one) {
                term = row_wire[o];
            }
            if (term != kNone) {
                acc = acc == kNone ? term
                                   : c.emit(GateOp::Xor, acc, term);
            }
        }
        if (sums[t][0] & 1)
            acc = c.emit(GateOp::Xor, acc, kOnesWire);
        c.out[t] = acc;
    }
    return c;
}

template <int Box>
constexpr SboxCircuit kCircuit = buildCircuit(Box);

/**
 * Drive gate G of box Box's circuit. V is one lane word: uint64_t
 * for the compile-time check, a 256-bit plane in the kernel.
 */
template <int Box, unsigned G, typename V>
[[gnu::always_inline]] constexpr inline void
gateStep(V *w)
{
    constexpr Gate g = kCircuit<Box>.gates[G];
    if constexpr (g.op == GateOp::And)
        w[kFirstGateWire + G] = w[g.a] & w[g.b];
    else if constexpr (g.op == GateOp::AndNot)
        w[kFirstGateWire + G] = ~w[g.a] & w[g.b];
    else
        w[kFirstGateWire + G] = w[g.a] ^ w[g.b];
}

template <int Box, typename V, unsigned... G>
[[gnu::always_inline]] constexpr inline void
runGates(V *w, std::integer_sequence<unsigned, G...>)
{
    (gateStep<Box, G>(w), ...);
}

/**
 * Evaluate box Box's circuit, unrolled to straight-line code, over
 * wires @p w whose inputs and ones wire are set.
 */
template <int Box, typename V>
[[gnu::always_inline]] constexpr inline void
runCircuit(V *w)
{
    runGates<Box>(
        w, std::make_integer_sequence<unsigned, kCircuit<Box>.count>{});
}

/**
 * Box Box's circuit reproduces kSbox on every input: bit u of each
 * 64-bit word is the lane for input u, so one pass covers all 64.
 */
template <int Box>
constexpr bool
circuitMatchesSbox()
{
    uint64_t w[SboxCircuit::kMaxWires] = {};
    for (unsigned bit = 0; bit < 6; ++bit) {
        for (unsigned six = 0; six < 64; ++six)
            w[bit] |= uint64_t{(six >> bit) & 1} << six;
    }
    w[kOnesWire] = ~uint64_t{0};
    runCircuit<Box>(w);
    for (uint32_t six = 0; six < 64; ++six) {
        uint32_t value = 0;
        for (const uint8_t wire : kCircuit<Box>.out)
            value = (value << 1) | ((w[wire] >> six) & 1);
        if (value != sboxOutput(Box, six))
            return false;
    }
    return true;
}

static_assert(circuitMatchesSbox<0>() && circuitMatchesSbox<1>() &&
                  circuitMatchesSbox<2>() && circuitMatchesSbox<3>() &&
                  circuitMatchesSbox<4>() && circuitMatchesSbox<5>() &&
                  circuitMatchesSbox<6>() && circuitMatchesSbox<7>(),
              "an S-box circuit disagrees with kSbox");

/**
 * Where IP, P and FP put each bit, as plane indices. The input
 * transpose leaves bit c (0 = least significant) of every big-endian
 * block in plane c, i.e. FIPS bit 64 - c. IP is then a relabeling:
 * half[0][i] and half[1][i] are the planes of bit i (0 = most
 * significant) of L0 and R0. A round XORs f into the L planes in
 * place, so the halves trade roles every round; after the sixteenth,
 * R16 is on half[1]'s planes and L16 on half[0]'s.
 */
struct PlaneMaps
{
    uint8_t half[2][32] = {};
    /** The f bit (0 = most significant) P sends pre-P bit q to. */
    uint8_t p_dest[32] = {};
    /** The plane FP reads for output plane c. */
    uint8_t fp_src[64] = {};
};

constexpr PlaneMaps
buildPlaneMaps()
{
    PlaneMaps m;
    for (int i = 0; i < 32; ++i) {
        m.half[0][i] = static_cast<uint8_t>(64 - kIp[i]);
        m.half[1][i] = static_cast<uint8_t>(64 - kIp[32 + i]);
        m.p_dest[kP[i] - 1] = static_cast<uint8_t>(i);
    }
    for (int c = 0; c < 64; ++c) {
        // Output plane c is FIPS bit 64 - c, which FP takes from bit
        // q (0 = most significant) of the pre-output (R16, L16).
        const int q = kFp[63 - c] - 1;
        m.fp_src[c] = q < 32 ? m.half[1][q] : m.half[0][q - 32];
    }
    return m;
}

constexpr PlaneMaps kPlanes = buildPlaneMaps();

/** Blocks per bitsliced batch: one bit of each 256-bit plane. */
constexpr size_t kBatchBlocks = 256;

#if defined(__x86_64__) || defined(__i386__)

/**
 * S-box Box of one round: its six E bits, read from the R planes and
 * XORed with the round key's masks, through its circuit; its four
 * outputs XORed into the L planes P sends them to. Odd rounds swap
 * the halves.
 */
template <int Box, int Odd>
__attribute__((target("avx2"), always_inline)) inline void
sboxStep(__m256i *planes, const uint32_t *key)
{
    constexpr const uint8_t *r_half = kPlanes.half[1 - Odd];
    constexpr const uint8_t *l_half = kPlanes.half[Odd];
    __m256i w[kFirstGateWire + kCircuit<Box>.count];
    for (unsigned bit = 0; bit < 6; ++bit) {
        // Group bit 5 is E bit 6·Box (the most significant).
        const unsigned e = 6 * Box + 5 - bit;
        w[bit] = planes[r_half[kE[e] - 1]] ^
                 _mm256_set1_epi32(static_cast<int>(key[e]));
    }
    w[kOnesWire] = _mm256_set1_epi32(-1);
    runCircuit<Box>(w);
    for (unsigned t = 0; t < 4; ++t)
        planes[l_half[kPlanes.p_dest[4 * Box + t]]] ^=
            w[kCircuit<Box>.out[t]];
}

template <int Odd, int... Box>
__attribute__((target("avx2"))) void
roundStep(__m256i *planes, const uint32_t *key,
          std::integer_sequence<int, Box...>)
{
    (sboxStep<Box, Odd>(planes, key), ...);
}

/**
 * One stage of a 64x64 bit-matrix transpose in each 64-bit lane:
 * swap the off-diagonal J x J blocks of every 2J x 2J block.
 */
template <unsigned J>
__attribute__((target("avx2"), always_inline)) inline void
transposeStage(__m256i *rows, uint64_t low_cols)
{
    const __m256i mask =
        _mm256_set1_epi64x(static_cast<long long>(low_cols));
    for (unsigned k = 0; k < 64; k = ((k | J) + 1) & ~J) {
        const __m256i t =
            (_mm256_srli_epi64(rows[k], J) ^ rows[k | J]) & mask;
        rows[k | J] ^= t;
        rows[k] ^= _mm256_slli_epi64(t, J);
    }
}

/** In each 64-bit lane, bit c of row k trades places with bit k of row c. */
__attribute__((target("avx2"))) void
transpose64(__m256i *rows)
{
    transposeStage<32>(rows, 0x00000000FFFFFFFFull);
    transposeStage<16>(rows, 0x0000FFFF0000FFFFull);
    transposeStage<8>(rows, 0x00FF00FF00FF00FFull);
    transposeStage<4>(rows, 0x0F0F0F0F0F0F0F0Full);
    transposeStage<2>(rows, 0x3333333333333333ull);
    transposeStage<1>(rows, 0x5555555555555555ull);
}

/**
 * @p batches batches of kBatchBlocks blocks. Row k of a batch holds
 * blocks 4k..4k+3 as big-endian words, so after the transpose lane g
 * bit k of every plane belongs to block 4k + g; the output transpose
 * undoes exactly that. Each batch is read whole before any of it is
 * written, so in/out may alias.
 */
__attribute__((target("avx2"))) void
bitslicedBatches(const uint32_t *key_masks, bool decrypt,
                 const uint8_t *in, uint8_t *out, size_t batches)
{
    const __m256i bswap = _mm256_setr_epi8(
        7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8,
        7, 6, 5, 4, 3, 2, 1, 0, 15, 14, 13, 12, 11, 10, 9, 8);
    constexpr auto boxes = std::make_integer_sequence<int, 8>{};
    for (; batches > 0; --batches, in += 8 * kBatchBlocks,
                        out += 8 * kBatchBlocks) {
        __m256i planes[64];
        for (unsigned k = 0; k < 64; ++k) {
            planes[k] = _mm256_shuffle_epi8(
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(in + 32 * k)),
                bswap);
        }
        transpose64(planes);
        for (unsigned r = 0; r < 16; r += 2) {
            roundStep<0>(planes,
                         key_masks + 48 * (decrypt ? 15 - r : r), boxes);
            roundStep<1>(planes,
                         key_masks + 48 * (decrypt ? 14 - r : r + 1),
                         boxes);
        }
        __m256i rows[64];
        for (unsigned c = 0; c < 64; ++c)
            rows[c] = planes[kPlanes.fp_src[c]];
        transpose64(rows);
        for (unsigned k = 0; k < 64; ++k) {
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(out + 32 * k),
                _mm256_shuffle_epi8(rows[k], bswap));
        }
    }
}

#endif

} // namespace

namespace detail
{

#if defined(__x86_64__) || defined(__i386__)

bool
desCpuHasAvx2()
{
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0)
        return false;
    const bool osxsave = (ecx & (1u << 27)) != 0;
    const bool avx = (ecx & (1u << 28)) != 0;
    if (!osxsave || !avx)
        return false;
    // XCR0 bits 1 and 2: the OS saves XMM and YMM state.
    uint32_t xcr0 = 0, xcr0_high = 0;
    __asm__("xgetbv" : "=a"(xcr0), "=d"(xcr0_high) : "c"(0));
    if ((xcr0 & 0x6) != 0x6)
        return false;
    if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0)
        return false;
    return (ebx & (1u << 5)) != 0;
}

#else // !x86

bool
desCpuHasAvx2()
{
    return false;
}

#endif

void
desBlocksTable(const Des &des, const uint8_t *in, uint8_t *out,
               size_t count, bool decrypt)
{
    panic_if(!des.key_set_, "DES used before setKey");
    constexpr int kLanes = 8;
    size_t i = 0;
    for (; i + kLanes <= count; i += kLanes) {
        uint32_t left[kLanes];
        uint32_t right[kLanes];
        for (int j = 0; j < kLanes; ++j) {
            const uint64_t permuted = byteLookup(
                kTables.ip, util::loadBe64(in + 8 * (i + j)));
            left[j] = static_cast<uint32_t>(permuted >> 32);
            right[j] = static_cast<uint32_t>(permuted);
        }
        for (int round = 0; round < 16; ++round) {
            const uint64_t rk = decrypt ? des.round_keys_[15 - round]
                                        : des.round_keys_[round];
            for (int j = 0; j < kLanes; ++j) {
                const uint32_t next_right =
                    left[j] ^ feistel(right[j], rk);
                left[j] = right[j];
                right[j] = next_right;
            }
        }
        for (int j = 0; j < kLanes; ++j) {
            const uint64_t preoutput =
                (uint64_t{right[j]} << 32) | left[j];
            util::storeBe64(out + 8 * (i + j),
                            byteLookup(kTables.fp, preoutput));
        }
    }
    for (; i < count; ++i) {
        util::storeBe64(
            out + 8 * i,
            des.processBlock(util::loadBe64(in + 8 * i), decrypt));
    }
}

void
desBlocksBitsliced(const Des &des, const uint8_t *in, uint8_t *out,
                   size_t count, bool decrypt)
{
    panic_if(!des.key_set_, "DES used before setKey");
    size_t done = 0;
#if defined(__x86_64__) || defined(__i386__)
    done = count - count % kBatchBlocks;
    bitslicedBatches(des.key_masks_.data(), decrypt, in, out,
                     done / kBatchBlocks);
#endif
    desBlocksTable(des, in + 8 * done, out + 8 * done, count - done,
                   decrypt);
}

} // namespace detail

Des::Des(uint64_t key)
{
    uint8_t key_bytes[8];
    util::storeBe64(key_bytes, key);
    setKey(key_bytes, 8);
}

void
Des::setKey(const uint8_t *key, size_t len)
{
    fatal_if(len != 8, "DES key must be 8 bytes, got ", len);
    const uint64_t key64 = util::loadBe64(key);
    const uint64_t cd = permute(key64, kPc1, 56, 64);
    uint32_t c = static_cast<uint32_t>((cd >> 28) & 0x0FFFFFFF);
    uint32_t d = static_cast<uint32_t>(cd & 0x0FFFFFFF);
    for (int round = 0; round < 16; ++round) {
        c = util::rotl28(c, kShifts[round]);
        d = util::rotl28(d, kShifts[round]);
        const uint64_t merged = (uint64_t{c} << 28) | d;
        round_keys_[round] = permute(merged, kPc2, 48, 56);
        for (int bit = 0; bit < 48; ++bit) {
            key_masks_[48 * round + bit] = 0u - static_cast<uint32_t>(
                (round_keys_[round] >> (47 - bit)) & 1);
        }
    }
    key_set_ = true;
}

uint64_t
Des::processBlock(uint64_t block, bool decrypt) const
{
    panic_if(!key_set_, "DES used before setKey");
    const uint64_t permuted = byteLookup(kTables.ip, block);
    uint32_t left = static_cast<uint32_t>(permuted >> 32);
    uint32_t right = static_cast<uint32_t>(permuted);
    for (int round = 0; round < 16; ++round) {
        const uint64_t rk =
            decrypt ? round_keys_[15 - round] : round_keys_[round];
        const uint32_t next_right = left ^ feistel(right, rk);
        left = right;
        right = next_right;
    }
    // Note the halves are swapped (R16 L16) before the final permutation.
    const uint64_t preoutput = (uint64_t{right} << 32) | left;
    return byteLookup(kTables.fp, preoutput);
}

void
Des::processBlocks(const uint8_t *in, uint8_t *out, size_t count,
                   bool decrypt) const
{
    // One probe per process; a call shorter than a batch (the
    // engines' 16-block line pads) never reaches the kernel.
    static const bool bitsliced = detail::desCpuHasAvx2();
    if (bitsliced && count >= kBatchBlocks)
        detail::desBlocksBitsliced(*this, in, out, count, decrypt);
    else
        detail::desBlocksTable(*this, in, out, count, decrypt);
}

void
Des::encryptBlocks(const uint8_t *in, uint8_t *out, size_t count) const
{
    processBlocks(in, out, count, false);
}

void
Des::decryptBlocks(const uint8_t *in, uint8_t *out, size_t count) const
{
    processBlocks(in, out, count, true);
}

void
Des::encryptBlock(const uint8_t *in, uint8_t *out) const
{
    util::storeBe64(out, processBlock(util::loadBe64(in), false));
}

void
Des::decryptBlock(const uint8_t *in, uint8_t *out) const
{
    util::storeBe64(out, processBlock(util::loadBe64(in), true));
}

uint64_t
Des::encrypt64(uint64_t block) const
{
    return processBlock(block, false);
}

uint64_t
Des::decrypt64(uint64_t block) const
{
    return processBlock(block, true);
}

} // namespace secproc::crypto
