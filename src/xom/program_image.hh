/**
 * @file
 * Protected program image format.
 *
 * Models the artifact a software vendor ships for a XOM/OTP secure
 * processor (paper Section 2.1): sections of encrypted text and
 * initialized data, optional plaintext sections (shared library
 * code, default inputs), and a key capsule — the program's symmetric
 * key encrypted with the target processor's RSA public key, so the
 * program runs *only* on that processor.
 */

#ifndef SECPROC_XOM_PROGRAM_IMAGE_HH
#define SECPROC_XOM_PROGRAM_IMAGE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "secure/key_table.hh"
#include "util/serialize.hh"

namespace secproc::xom
{

/** How a section's bytes are stored in the image. */
enum class SectionEncryption
{
    /** One-time pad with virtual-address seeds, seqnum 0. */
    OtpVaSeed,
    /** XOM-style direct (ECB) encryption. */
    Direct,
    /** No encryption (shared library code, program inputs). */
    Plaintext,
};

/** One loadable section. */
struct Section
{
    std::string name;
    uint64_t vaddr = 0; ///< load address (line aligned)
    SectionEncryption encryption = SectionEncryption::Plaintext;
    std::vector<uint8_t> bytes; ///< stored (possibly encrypted) image
};

/** The shippable program. */
struct ProgramImage
{
    std::string title;
    secure::CipherKind cipher = secure::CipherKind::Des;
    uint64_t entry_point = 0;
    uint32_t line_size = 128;
    std::vector<Section> sections;
    /** RSA capsule holding the symmetric key. */
    std::vector<uint8_t> key_capsule;

    /** Total stored bytes across sections. */
    uint64_t totalBytes() const;

    /** Serialize to a flat byte vector (checked round trip). */
    std::vector<uint8_t> serialize() const;

    /**
     * Stream the exact serialize() byte sequence into @p sink —
     * digesting or sizing a multi-megabyte image without
     * materializing it.
     */
    void serializeTo(util::ByteSink &sink) const;

    /** Bytes serialize() would produce. */
    uint64_t serializedSize() const;

    /**
     * Parse bytes that crossed a trust boundary (an update bundle,
     * a staged slot): std::nullopt on malformed input, never fatal.
     * Parses in place (e.g. a blob view into a larger framed
     * buffer); section bytes are still copied out, since the parsed
     * image owns its contents.
     */
    static std::optional<ProgramImage>
    tryDeserialize(std::span<const uint8_t> data);
};

} // namespace secproc::xom

#endif // SECPROC_XOM_PROGRAM_IMAGE_HH
