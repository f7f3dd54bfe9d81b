/**
 * @file
 * SHA-1 and SHA-256 (FIPS 180-4) from scratch.
 *
 * The paper delegates memory integrity verification to hash/MAC
 * machinery (Gassend et al., HPCA 2003); secproc implements that
 * substrate so the IntegrityEngine extension and the attack detectors
 * are functional end to end.
 */

#ifndef SECPROC_CRYPTO_SHA_HH
#define SECPROC_CRYPTO_SHA_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/serialize.hh"

namespace secproc::crypto
{

/** Incremental SHA-1; 20-byte digest. */
class Sha1
{
  public:
    static constexpr size_t kDigestSize = 20;

    Sha1();

    /** Absorb @p len bytes. */
    void update(const uint8_t *data, size_t len);

    /** Finalize and write the digest; the object is then reusable. */
    void final(uint8_t digest[kDigestSize]);

    /** One-shot convenience. */
    static std::array<uint8_t, kDigestSize> digest(const uint8_t *data,
                                                   size_t len);

  private:
    uint32_t h_[5];
    uint64_t total_bits_;
    uint8_t buffer_[64];
    size_t buffered_;

    void reset();
    void processBlock(const uint8_t block[64]);
};

/** Incremental SHA-256; 32-byte digest. */
class Sha256
{
  public:
    static constexpr size_t kDigestSize = 32;

    Sha256();

    /** Absorb @p len bytes. */
    void update(const uint8_t *data, size_t len);

    /** Finalize and write the digest; the object is then reusable. */
    void final(uint8_t digest[kDigestSize]);

    /** One-shot convenience. */
    static std::array<uint8_t, kDigestSize> digest(const uint8_t *data,
                                                   size_t len);

  private:
    uint32_t h_[8];
    uint64_t total_bits_;
    uint8_t buffer_[64];
    size_t buffered_;

    void reset();
};

/**
 * ByteSink that digests what is written to it: serializers stream
 * straight into SHA-256, so hashing a serialized artifact does not
 * materialize the bytes.
 */
class Sha256Sink final : public util::ByteSink
{
  public:
    void
    write(const uint8_t *data, size_t len) override
    {
        hasher_.update(data, len);
    }

    /** Finalize; the sink is then reusable from a fresh state. */
    std::array<uint8_t, Sha256::kDigestSize>
    digest()
    {
        std::array<uint8_t, Sha256::kDigestSize> out;
        hasher_.final(out.data());
        return out;
    }

  private:
    Sha256 hasher_;
};

/**
 * True when SHA-256 compression runs on the CPU's SHA extensions
 * (x86 SHA-NI) rather than the portable implementation, which is
 * exactly when the CPU probe finds them. Both produce identical
 * digests (pinned by a differential test).
 */
bool sha256HardwareAvailable();

namespace detail
{

/** Compress @p blocks 64-byte blocks into @p state — portable. */
void sha256CompressScalar(uint32_t state[8], const uint8_t *data,
                          size_t blocks);

/**
 * Compress via x86 SHA-NI. Only callable when sha256CpuHasShaNi()
 * returns true; exposed so tests can differential-check it against
 * the scalar path.
 */
void sha256CompressHw(uint32_t state[8], const uint8_t *data,
                      size_t blocks);

/** CPUID probe for the x86 SHA extensions (false off-x86). */
bool sha256CpuHasShaNi();

} // namespace detail

/**
 * HMAC-SHA256 (RFC 2104).
 *
 * @param key Key bytes (any length; hashed down if > 64).
 * @param key_len Key length.
 * @param data Message bytes.
 * @param data_len Message length.
 * @return 32-byte MAC.
 */
std::array<uint8_t, Sha256::kDigestSize>
hmacSha256(const uint8_t *key, size_t key_len, const uint8_t *data,
           size_t data_len);

} // namespace secproc::crypto

#endif // SECPROC_CRYPTO_SHA_HH
