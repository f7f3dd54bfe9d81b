/**
 * @file
 * Vendor-side protection tool implementation.
 */

#include "xom/vendor_tool.hh"

#include "crypto/block_cipher.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::xom
{

uint64_t
vendorSeed(uint64_t line_va, uint32_t seqnum, uint32_t line_size)
{
    // Must mirror ProtectionEngine::makeSeed exactly: the processor
    // regenerates these pads at fetch time.
    const uint64_t line_number = line_va / line_size;
    return ((line_number & util::mask(40)) << 24) |
           ((static_cast<uint64_t>(seqnum) & util::mask(16)) << 8);
}

ProgramImage
vendorProtect(const PlainProgram &program, VendorScheme scheme,
              secure::CipherKind cipher,
              const crypto::RsaPublicKey &processor_key,
              util::Rng &rng, uint32_t line_size)
{
    ProgramImage image;
    image.title = program.title;
    image.cipher = cipher;
    image.entry_point = program.entry_point;
    image.line_size = line_size;

    // Fresh symmetric key per shipped program (paper Section 2.1).
    std::vector<uint8_t> symmetric_key(secure::cipherKeySize(cipher));
    rng.fillBytes(symmetric_key.data(), symmetric_key.size());
    const auto cipher_impl = secure::makeCipher(cipher, symmetric_key);
    // Sections split into whole lines and lines into whole cipher
    // blocks; alignUp() below rounds only to powers of two.
    fatal_if(!util::isPowerOfTwo(line_size) ||
                 line_size % cipher_impl->blockSize() != 0,
             "line size ", line_size,
             " must be a power of two and a multiple of the ",
             cipher_impl->blockSize(), "-byte cipher block");

    for (const PlainProgram::PlainSection &plain : program.sections) {
        fatal_if(plain.vaddr % line_size != 0,
                 "section '", plain.name,
                 "' is not line aligned: ", plain.vaddr);
        Section section;
        section.name = plain.name;
        section.vaddr = plain.vaddr;
        section.bytes = plain.bytes;
        // Pad to whole lines so line-granular crypto applies.
        section.bytes.resize(
            util::alignUp(section.bytes.size(), line_size), 0);

        if (plain.shared) {
            section.encryption = SectionEncryption::Plaintext;
        } else if (scheme == VendorScheme::Otp) {
            section.encryption = SectionEncryption::OtpVaSeed;
            crypto::padLines(
                *cipher_impl, line_size,
                section.bytes.size() / line_size,
                [&](size_t line) {
                    return vendorSeed(plain.vaddr + line * line_size, 0,
                                      line_size);
                },
                section.bytes.data(), crypto::PadOutput::Xor);
        } else {
            section.encryption = SectionEncryption::Direct;
            crypto::ecbEncrypt(*cipher_impl, section.bytes.data(),
                               section.bytes.size());
        }
        image.sections.push_back(std::move(section));
    }

    image.key_capsule = crypto::rsaWrap(processor_key, symmetric_key,
                                        rng);
    return image;
}

} // namespace secproc::xom
