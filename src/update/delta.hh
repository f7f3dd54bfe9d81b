/**
 * @file
 * Delta update bundles (DFU-grade OTA).
 *
 * A delta bundle ships only what changed between two releases. It
 * carries the *full* signed manifest of the NEW image (whose
 * base_digest field names the required base image), the vendor
 * signature over that manifest, the new image's key capsule, and
 * per-section patch scripts: Copy ops that pull byte ranges out of
 * the same-named section of the base image, and Literal ops that
 * carry replacement bytes. Reconstruction is pure data-plane work —
 * the trust story is unchanged from full bundles, because the
 * reconstructed image is re-verified against the signed manifest
 * (per-section digests, capsule digest, whole-image digest) before
 * any state changes. Patch ops are attacker bytes: every offset and
 * length is bounds-checked against sizes the signed manifest vouches
 * for, so a tampered delta dies as MalformedBundle/DigestMismatch,
 * never in a panic.
 *
 * Wire format (little-endian, length-prefixed via util/serialize):
 *   magic "SPUD" | u32 version | manifest blob | signature blob |
 *   capsule blob | u32 nsections |
 *   { name | u64 vaddr | u32 encryption | u64 out_size | u32 nops |
 *     { u32 kind=0 (copy)    | u64 src_offset | u64 length
 *     | u32 kind=1 (literal) | blob }... }...
 *
 * Deltas only collapse bytes when the vendor builds base and next
 * with the same symmetric key and section layout: OTP/VA-seed
 * encryption keys ciphertext by (K_s, vaddr), so unchanged plaintext
 * at an unchanged address re-encrypts to identical bytes. A fresh
 * K_s per build would make every section differ everywhere and the
 * delta degenerate to one big Literal (still correct, just not
 * smaller).
 */

#ifndef SECPROC_UPDATE_DELTA_HH
#define SECPROC_UPDATE_DELTA_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "update/manifest.hh"
#include "xom/program_image.hh"

namespace secproc::update
{

/** One patch instruction inside a DeltaSection. */
struct DeltaOp
{
    enum class Kind : uint32_t
    {
        /** Copy @c length bytes from the base section @ src_offset. */
        Copy = 0,
        /** Append @c literal verbatim. */
        Literal = 1,
    };

    Kind kind = Kind::Literal;
    uint64_t src_offset = 0; ///< Copy only.
    uint64_t length = 0;     ///< Copy only; literal.size() otherwise.
    std::vector<uint8_t> literal;
};

/** Patch script producing one section of the new image. */
struct DeltaSection
{
    std::string name;
    uint64_t vaddr = 0;
    xom::SectionEncryption encryption =
        xom::SectionEncryption::OtpVaSeed;
    /** Size the ops must reproduce (cross-checked vs the manifest). */
    uint64_t out_size = 0;
    std::vector<DeltaOp> ops;

    /** Bytes of Literal payload carried (the shipped cost). */
    uint64_t literalBytes() const;
};

/**
 * The shippable delta: signed new-image manifest + patch payload.
 * Same parse discipline as UpdateBundle — deserialize establishes
 * structure only; authentication happens when the reconstructed
 * bundle runs through UpdateEngine::verify.
 */
struct DeltaBundle
{
    static constexpr uint32_t kFormatVersion = 1;

    /** Manifest of the NEW image; base_digest names the base. */
    UpdateManifest manifest;
    /** rsaSignDigest(vendor_key, manifest.digest()) — byte-identical
     *  to the full bundle's signature, so a reconstructed bundle is
     *  byte-identical to the full bundle it replaces. */
    std::vector<uint8_t> signature;
    /** New image's RSA key capsule, shipped literal. */
    std::vector<uint8_t> key_capsule;
    std::vector<DeltaSection> sections;

    std::vector<uint8_t> serialize() const;
    void serializeTo(util::ByteSink &sink) const;
    uint64_t serializedSize() const;

    /** Total Literal bytes across sections + capsule. */
    uint64_t literalBytes() const;

    /** Parse; std::nullopt on malformed/truncated input. */
    static std::optional<DeltaBundle>
    deserialize(std::span<const uint8_t> data);
};

/**
 * Compute the patch script turning @p base_image into @p next_image.
 * Aligned 64-byte block diff per same-named section (the layout
 * vendors that build delta-friendly releases produce); sections with
 * no base counterpart or with attacker-visible structural change
 * ship as literals. The result always reconstructs exactly; only
 * its size depends on how similar the images are.
 */
std::vector<DeltaSection>
diffImages(const xom::ProgramImage &base_image,
           const xom::ProgramImage &next_image);

/**
 * Apply @p delta against @p base_image, reproducing the new
 * ProgramImage. Every op is validated against the (already
 * signature-checked) manifest: section list must correspond 1:1
 * with the manifest's, out_size must equal the signed section size
 * (bounding every allocation by signed data), and copy ranges must
 * lie inside the base section. @return std::nullopt on any
 * violation — malformed or tampered patch input is a rejection,
 * never a crash. The caller still MUST run the reconstructed bundle
 * through UpdateEngine::verify before trusting it.
 */
std::optional<xom::ProgramImage>
applyDelta(const DeltaBundle &delta,
           const xom::ProgramImage &base_image);

} // namespace secproc::update

#endif // SECPROC_UPDATE_DELTA_HH
