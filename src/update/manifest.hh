/**
 * @file
 * Signed update manifest and update bundle format.
 *
 * The paper's Section 2 distribution flow covers first install only:
 * the vendor encrypts a program under K_s and ships K_s wrapped in
 * the processor's RSA public key. Fielded devices also need
 * authenticated *updates*. The manifest is the trusted description
 * of one update: image version, a monotonic rollback counter, the
 * target processor's identity, and SHA-256 digests of every stored
 * section and of the key capsule. The vendor RSA-signs the manifest;
 * because the manifest binds the image bytes by digest, one
 * signature authenticates the whole bundle (the fwupd / signed
 * firmware-image model).
 */

#ifndef SECPROC_UPDATE_MANIFEST_HH
#define SECPROC_UPDATE_MANIFEST_HH

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "crypto/rsa.hh"
#include "crypto/sha.hh"
#include "secure/key_table.hh"
#include "xom/program_image.hh"

namespace secproc::update
{

/** SHA-256 digest value. */
using Digest = std::array<uint8_t, crypto::Sha256::kDigestSize>;

/** Digest of one stored (possibly encrypted) image section. */
struct SectionDigest
{
    std::string name;
    uint64_t vaddr = 0;
    uint64_t size = 0;
    Digest digest = {};
};

/**
 * The signed description of one update. Everything the processor
 * must trust about the image is in here; the image bytes themselves
 * are authenticated transitively through the digests.
 */
struct UpdateManifest
{
    /**
     * Format rev 2: adds the signed base-image digest (delta
     * updates) and widens the bundle's image-blob framing to u64.
     */
    static constexpr uint32_t kFormatVersion = 2;

    std::string title;
    /** Human-facing image version (display only). */
    uint32_t image_version = 0;
    /**
     * Monotonic anti-rollback counter. The engine refuses any
     * bundle whose counter is not strictly greater than the value
     * in its RollbackStore (qm-bootloader's SVN model).
     */
    uint64_t rollback_counter = 0;
    /** Fingerprint of the target processor's public key. */
    Digest processor_id = {};
    secure::CipherKind cipher = secure::CipherKind::Des;
    uint64_t entry_point = 0;
    uint32_t line_size = 128;
    /** Digest of the whole serialized ProgramImage. */
    Digest image_digest = {};
    /** Digest of the RSA key capsule inside the image. */
    Digest capsule_digest = {};
    /**
     * Digest of the serialized base ProgramImage this release was
     * diffed against, or all-zero when no base is named. Because it
     * is signed, a delta bundle's base requirement is authenticated:
     * the engine compares it against the image in the active slot
     * and falls back to requesting a full bundle on mismatch rather
     * than trusting attacker-chosen patch input. Full-bundle
     * installs ignore the field.
     */
    Digest base_digest = {};
    std::vector<SectionDigest> sections;

    /** True when base_digest names a base image (any nonzero byte). */
    bool hasBase() const;

    /** Canonical byte form — the exact bytes the vendor signs. */
    std::vector<uint8_t> serialize() const;

    /** Parse; std::nullopt on malformed/truncated input. */
    static std::optional<UpdateManifest>
    deserialize(std::span<const uint8_t> data);

    /** SHA-256 over serialize(); the value rsaSignDigest signs. */
    Digest digest() const;
};

/** SHA-256 over a byte buffer as a Digest value. */
Digest sha256Digest(const uint8_t *data, size_t len);
Digest sha256Digest(const std::vector<uint8_t> &data);

/**
 * SHA-256 of image.serialize() without materializing the bytes —
 * same value as sha256Digest(image.serialize()), minus the
 * multi-megabyte allocation and copy. Every verify re-runs this at
 * a trust boundary, so the copy was the memory plane's single
 * largest hidden cost.
 */
Digest sha256DigestOfImage(const xom::ProgramImage &image);

/**
 * A processor's identity for update targeting: SHA-256 fingerprint
 * of its RSA public key (modulus and exponent bytes).
 */
Digest processorId(const crypto::RsaPublicKey &pub);

/**
 * Describe @p image for @p processor: per-section digests, capsule
 * digest, whole-image digest. Versioning fields are left for the
 * caller (ImageBuilder) to fill in.
 */
UpdateManifest describeImage(const xom::ProgramImage &image,
                             const crypto::RsaPublicKey &processor);

/**
 * The shippable update: manifest + vendor signature + protected
 * image. This is what travels from the vendor's build machine to
 * the fielded device and what UpdateEngine consumes.
 */
struct UpdateBundle
{
    UpdateManifest manifest;
    /** rsaSignDigest(vendor_key, manifest.digest()). */
    std::vector<uint8_t> signature;
    xom::ProgramImage image;

    /** Flat byte form for files and staging slots. */
    std::vector<uint8_t> serialize() const;

    /** Stream the exact serialize() byte sequence into @p sink. */
    void serializeTo(util::ByteSink &sink) const;

    /** Bytes serialize() would produce. */
    uint64_t serializedSize() const;

    /**
     * Parse; std::nullopt on malformed/truncated input (an
     * interrupted staging write, a corrupted download). Arbitrary
     * corruption is reported, never fatal; integrity of the parsed
     * contents is established by UpdateEngine::verify, which every
     * consumer must (and does) run before trusting the bundle. Parses
     * a view in place (no per-layer copies of the multi-megabyte
     * image blob).
     */
    static std::optional<UpdateBundle>
    deserialize(std::span<const uint8_t> data);
};

} // namespace secproc::update

#endif // SECPROC_UPDATE_MANIFEST_HH
