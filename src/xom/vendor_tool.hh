/**
 * @file
 * Vendor-side protection tool.
 *
 * Implements the paper's Section 2.1 software encryption flow: the
 * vendor picks a symmetric key K_s, encrypts the program with it
 * (text with virtual-address-seeded one-time pads under the OTP
 * scheme, or directly under XOM), and ships K_s wrapped under the
 * target processor's RSA public key. Software encrypted for
 * processor A cannot run on processor B.
 */

#ifndef SECPROC_XOM_VENDOR_TOOL_HH
#define SECPROC_XOM_VENDOR_TOOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/rsa.hh"
#include "secure/key_table.hh"
#include "xom/program_image.hh"

namespace secproc::xom
{

/** A plaintext program as the build system hands it to the vendor. */
struct PlainProgram
{
    std::string title;
    uint64_t entry_point = 0;
    struct PlainSection
    {
        std::string name;
        uint64_t vaddr = 0;
        std::vector<uint8_t> bytes;
        /** Shared-library / input data stays plaintext. */
        bool shared = false;
    };
    std::vector<PlainSection> sections;
};

/** Encryption scheme the vendor targets. */
enum class VendorScheme
{
    /** One-time pad, virtual-address seeds (this paper). */
    Otp,
    /** Direct encryption (original XOM). */
    Xom,
};

/**
 * Produce a protected image for one target processor.
 *
 * @param program The plaintext program.
 * @param scheme Target encryption scheme.
 * @param cipher Symmetric cipher family.
 * @param processor_key Target processor's public key.
 * @param rng Entropy for the symmetric key and capsule padding.
 * @param line_size Protection granularity (L2 line size): a power of
 *        two and a multiple of the cipher's block size, else fatal.
 */
ProgramImage vendorProtect(const PlainProgram &program,
                           VendorScheme scheme,
                           secure::CipherKind cipher,
                           const crypto::RsaPublicKey &processor_key,
                           util::Rng &rng, uint32_t line_size = 128);

/**
 * Seed for the OTP encryption of the line at @p line_va with
 * sequence number @p seqnum. Must match
 * ProtectionEngine::makeSeed — the vendor encrypts with exactly the
 * pads the processor will regenerate. Exposed for tests.
 */
uint64_t vendorSeed(uint64_t line_va, uint32_t seqnum,
                    uint32_t line_size);

} // namespace secproc::xom

#endif // SECPROC_XOM_VENDOR_TOOL_HH
