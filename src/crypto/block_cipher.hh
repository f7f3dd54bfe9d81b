/**
 * @file
 * Abstract block-cipher interface plus ECB/CTR helpers over whole
 * cache lines.
 *
 * Two usage modes exist in secproc:
 *  - functional: real ciphers transform real line bytes (tests,
 *    examples, attack analysis);
 *  - timing: the ciphers are replaced by a latency model and only the
 *    control path runs (figure benchmarks).
 */

#ifndef SECPROC_CRYPTO_BLOCK_CIPHER_HH
#define SECPROC_CRYPTO_BLOCK_CIPHER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace secproc::crypto
{

/**
 * Interface for a symmetric block cipher.
 *
 * Implementations must be deterministic and side-effect-free after
 * setKey(); encryptBlock()/decryptBlock() may be called concurrently
 * from multiple readers once the key is set.
 */
class BlockCipher
{
  public:
    virtual ~BlockCipher() = default;

    /** Cipher block size in bytes (8 for DES, 16 for AES-128). */
    virtual size_t blockSize() const = 0;

    /** Expected key length in bytes. */
    virtual size_t keySize() const = 0;

    /** Human-readable cipher name for reports. */
    virtual std::string name() const = 0;

    /**
     * Install a key. @p len must equal keySize().
     * Calls fatal() on length mismatch (user configuration error).
     */
    virtual void setKey(const uint8_t *key, size_t len) = 0;

    /** Encrypt exactly one block; in/out may alias. */
    virtual void encryptBlock(const uint8_t *in, uint8_t *out) const = 0;

    /** Decrypt exactly one block; in/out may alias. */
    virtual void decryptBlock(const uint8_t *in, uint8_t *out) const = 0;

    /**
     * Encrypt @p count consecutive blocks; in/out may alias.
     * Identical results to @p count encryptBlock() calls — a batch
     * hook so latency-bound ciphers (DES's 16 dependent rounds) can
     * interleave independent blocks. Pad generation feeds whole
     * lines through here.
     */
    virtual void
    encryptBlocks(const uint8_t *in, uint8_t *out, size_t count) const
    {
        const size_t bs = blockSize();
        for (size_t i = 0; i < count; ++i)
            encryptBlock(in + i * bs, out + i * bs);
    }

    /** Batched decryptBlock(); same contract as encryptBlocks(). */
    virtual void
    decryptBlocks(const uint8_t *in, uint8_t *out, size_t count) const
    {
        const size_t bs = blockSize();
        for (size_t i = 0; i < count; ++i)
            decryptBlock(in + i * bs, out + i * bs);
    }
};

/**
 * Encrypt @p len bytes in place in ECB mode.
 *
 * This is the XOM-style "direct" line encryption: identical plaintext
 * blocks produce identical ciphertext blocks, which is exactly the
 * information leak the paper's Section 3.4 discusses; the attack
 * analysis example measures it. @p len must be a multiple of the
 * cipher block size.
 */
void ecbEncrypt(const BlockCipher &cipher, uint8_t *data, size_t len);

/** Inverse of ecbEncrypt(). */
void ecbDecrypt(const BlockCipher &cipher, uint8_t *data, size_t len);

/**
 * The odd constant C of generatePad()'s per-block tweak. It is part
 * of the pad format: the vendor and the processor must agree on it.
 */
inline constexpr uint64_t kPadBlockTweak = 0x9E3779B97F4A7C15ull;

/**
 * Generate a one-time pad of @p len bytes from a 64-bit seed.
 *
 * Pad block i is E_K(seed ^ (i * C)) for C = kPadBlockTweak (the
 * tweaked seed is encoded big-endian into the first 8 bytes of the
 * cipher input block; remaining input bytes, if the block is wider
 * than 8 bytes, are zero). The multiplicative tweak guarantees the
 * pads of two different seeds are never shifted copies of each
 * other, which a plain "seed + i" counter would not (paper
 * Section 3.4). @p len must be a multiple of the cipher block size.
 * The one-line case of padLines().
 */
void generatePad(const BlockCipher &cipher, uint64_t seed,
                 uint8_t *pad, size_t len);

/** XOR @p len bytes of @p pad into @p data (OTP encrypt == decrypt). */
void xorPad(uint8_t *data, const uint8_t *pad, size_t len);

/**
 * OTP-transform data in place with a generated pad; the one-line
 * case of padLines().
 */
void otpTransform(const BlockCipher &cipher, uint64_t seed,
                  uint8_t *data, size_t len);

/** What padLines() does with each pad byte. */
enum class PadOutput
{
    /** Write the pad (generatePad()). */
    Store,
    /** XOR the pad into the bytes already there (otpTransform()). */
    Xor,
};

/**
 * The pads of @p lines consecutive lines of @p line_len bytes at
 * @p out, line i under seed @p seed_of(i): byte for byte the pad
 * generatePad() gives that line alone.
 *
 * The tweaked counter blocks of the whole run are staged through a
 * fixed kPadStageBytes stack buffer, and each filled buffer is
 * encrypted with one encryptBlocks() call, so a run of short lines
 * reaches the cipher's bulk path (DES's bitsliced batches) while
 * memory stays bounded whatever the run's length. @p line_len must
 * be a multiple of the cipher block size.
 */
void padLines(const BlockCipher &cipher, size_t line_len, size_t lines,
              const std::function<uint64_t(size_t)> &seed_of,
              uint8_t *out, PadOutput mode);

/** padLines()' staging buffer: two 256-block DES batches. */
inline constexpr size_t kPadStageBytes = 4096;

/** Count pairwise-identical ciphertext blocks (leak metric). */
uint64_t countRepeatedBlocks(const uint8_t *data, size_t len,
                             size_t block_size);

} // namespace secproc::crypto

#endif // SECPROC_CRYPTO_BLOCK_CIPHER_HH
