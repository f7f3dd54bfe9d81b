/**
 * @file
 * Secure loader implementation.
 */

#include "xom/secure_loader.hh"

#include "util/logging.hh"

namespace secproc::xom
{

LoadResult
SecureLoader::load(const ProgramImage &image,
                   secure::CompartmentId compartment,
                   mem::MainMemory &memory, mem::VirtualMemory &vm,
                   mem::Asid asid, secure::ProtectionEngine &engine)
{
    LoadResult result;

    // Unwrap the symmetric key: only this processor's private key
    // opens the capsule (paper Section 2.1).
    const auto key = crypto::rsaUnwrap(processor_key_,
                                       image.key_capsule);
    if (!key.has_value()) {
        result.error = "key capsule does not open under this "
                       "processor's private key";
        return result;
    }
    if (key->size() != secure::cipherKeySize(image.cipher)) {
        result.error = "capsule payload has wrong key length";
        return result;
    }
    keys_.install(compartment, image.cipher, *key);

    // Retire the replaced image's plaintext regions: left in place,
    // one would exempt whatever the new image puts at its range from
    // decryption, and one at an unchanged address would overlap.
    std::vector<uint64_t> &plaintext =
        plaintext_starts_[{asid, compartment}];
    for (const uint64_t start : plaintext)
        vm.removeRegion(asid, start);
    plaintext.clear();

    // Place ciphertext sections into untrusted memory and register
    // line states with the engine.
    const uint32_t line = image.line_size;
    for (const Section &section : image.sections) {
        fatal_if(section.vaddr % line != 0,
                 "section '", section.name, "' not line aligned");
        fatal_if(section.bytes.size() % line != 0,
                 "section '", section.name, "' not line padded");
        if (section.encryption == SectionEncryption::Plaintext) {
            vm.addRegion(asid,
                         mem::Region{section.name, section.vaddr,
                                     section.vaddr +
                                         section.bytes.size(),
                                     mem::RegionKind::Plaintext});
            plaintext.push_back(section.vaddr);
        }
        for (uint64_t off = 0; off < section.bytes.size();
             off += line) {
            const uint64_t line_va = section.vaddr + off;
            const uint64_t pa = vm.translate(asid, line_va);
            memory.write(pa, section.bytes.data() + off, line);
            switch (section.encryption) {
              case SectionEncryption::OtpVaSeed:
                engine.setLineState(line_va,
                                    secure::LineCipherState::Otp, 0);
                break;
              case SectionEncryption::Direct:
                engine.setLineState(line_va,
                                    secure::LineCipherState::Direct);
                break;
              case SectionEncryption::Plaintext:
                engine.setLineState(line_va,
                                    secure::LineCipherState::Plain);
                break;
            }
        }
    }

    result.success = true;
    result.compartment = compartment;
    result.entry_point = image.entry_point;
    return result;
}

std::vector<uint8_t>
SecureLoader::fetchLine(uint64_t line_va, mem::MainMemory &memory,
                        mem::VirtualMemory &vm, mem::Asid asid,
                        secure::ProtectionEngine &engine, bool ifetch)
{
    const uint32_t line = engine.config().line_size;
    const uint64_t pa = vm.translate(asid, line_va);
    std::vector<uint8_t> bytes(line);
    memory.read(pa, bytes.data(), line);
    engine.decryptLine(line_va, ifetch, vm.regionKind(asid, line_va),
                       bytes);
    return bytes;
}

} // namespace secproc::xom
