/**
 * @file
 * DES (FIPS 46-3) implemented from scratch.
 *
 * The paper's vendor flow encrypts software with DES (Section 3.4.1,
 * 64-bit blocks) and assumes a 50-cycle fully pipelined hardware
 * engine; this is the functional counterpart used by tests, the
 * software-protection toolchain and the attack analysis.
 *
 * DES is cryptographically broken in 2026 and is implemented here
 * strictly as a simulation artifact of the 2003 paper.
 */

#ifndef SECPROC_CRYPTO_DES_HH
#define SECPROC_CRYPTO_DES_HH

#include <array>
#include <cstdint>

#include "crypto/block_cipher.hh"

namespace secproc::crypto
{

class Des;

namespace detail
{

/**
 * CPUID probe for AVX2, plus XGETBV for the OS saving YMM state
 * (false off-x86). Des latches it once per process.
 */
bool desCpuHasAvx2();

/** The 8-lane table path over any @p count; in/out may alias. */
void desBlocksTable(const Des &des, const uint8_t *in, uint8_t *out,
                    size_t count, bool decrypt);

/**
 * Whole 256-block batches through the bitsliced AVX2 kernel, the
 * tail through desBlocksTable(); in/out may alias. Only callable when
 * desCpuHasAvx2() is true; exposed so tests can check it against the
 * table path on any host that has it.
 */
void desBlocksBitsliced(const Des &des, const uint8_t *in,
                        uint8_t *out, size_t count, bool decrypt);

} // namespace detail

/** Single-DES block cipher: 64-bit block, 56(+8 parity)-bit key. */
class Des : public BlockCipher
{
  public:
    Des() = default;

    /** Construct with an 8-byte key. */
    explicit Des(const uint8_t *key8) { setKey(key8, 8); }

    /** Construct from a 64-bit key value (big-endian byte order). */
    explicit Des(uint64_t key);

    size_t blockSize() const override { return 8; }
    size_t keySize() const override { return 8; }
    std::string name() const override { return "DES"; }

    void setKey(const uint8_t *key, size_t len) override;
    void encryptBlock(const uint8_t *in, uint8_t *out) const override;
    void decryptBlock(const uint8_t *in, uint8_t *out) const override;

    /**
     * Batched block transforms, bit-identical to the
     * one-block-at-a-time loop. On a host with AVX2, whole batches of
     * 256 blocks run through a bitsliced kernel: each of the 64 block
     * bits is one 256-bit plane, so an S-box is a boolean circuit
     * over 256 blocks at once. The rest, and every call on a host
     * without AVX2, takes the table path: eight independent Feistel
     * chains interleaved per iteration, so the per-round
     * table-lookup latency of one block hides behind the other
     * seven. @{
     */
    void encryptBlocks(const uint8_t *in, uint8_t *out,
                       size_t count) const override;
    void decryptBlocks(const uint8_t *in, uint8_t *out,
                       size_t count) const override;
    /** @} */

    /** Encrypt a 64-bit block value directly (big-endian semantics). */
    uint64_t encrypt64(uint64_t block) const;

    /** Decrypt a 64-bit block value directly (big-endian semantics). */
    uint64_t decrypt64(uint64_t block) const;

  private:
    friend void detail::desBlocksTable(const Des &, const uint8_t *,
                                       uint8_t *, size_t, bool);
    friend void detail::desBlocksBitsliced(const Des &, const uint8_t *,
                                           uint8_t *, size_t, bool);

    /** 16 round keys of 48 bits each, stored right-aligned. */
    std::array<uint64_t, 16> round_keys_{};
    bool key_set_ = false;
    /**
     * The same bits for the bitsliced kernel: entry 48r + j is all
     * ones when bit j (0 = most significant) of round key r is set.
     */
    std::array<uint32_t, 16 * 48> key_masks_{};

    uint64_t processBlock(uint64_t block, bool decrypt) const;
    void processBlocks(const uint8_t *in, uint8_t *out, size_t count,
                       bool decrypt) const;
};

} // namespace secproc::crypto

#endif // SECPROC_CRYPTO_DES_HH
