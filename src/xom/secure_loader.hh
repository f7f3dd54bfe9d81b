/**
 * @file
 * Processor-side secure loader.
 *
 * Unwraps the image's key capsule with the processor's RSA private
 * key (only the target processor can), installs the symmetric key in
 * the compartment key table, places the ciphertext image into
 * untrusted memory and registers the line states with the protection
 * engine so demand fetches decrypt correctly. This is the XOM
 * "enter secure execution" flow of paper Section 2.
 */

#ifndef SECPROC_XOM_SECURE_LOADER_HH
#define SECPROC_XOM_SECURE_LOADER_HH

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "crypto/rsa.hh"
#include "mem/main_memory.hh"
#include "mem/virtual_memory.hh"
#include "secure/key_table.hh"
#include "secure/protection_engine.hh"
#include "xom/program_image.hh"

namespace secproc::xom
{

/** Outcome of a load attempt. */
struct LoadResult
{
    bool success = false;
    std::string error;
    secure::CompartmentId compartment = 0;
    uint64_t entry_point = 0;
};

/**
 * The loader bound to one processor's identity.
 */
class SecureLoader
{
  public:
    /**
     * @param processor_key This processor's RSA private key (lives
     *        inside the security boundary).
     * @param keys Compartment key table to install into.
     */
    SecureLoader(crypto::RsaPrivateKey processor_key,
                 secure::KeyTable &keys)
        : processor_key_(std::move(processor_key)), keys_(keys)
    {}

    /**
     * Load a protected image.
     *
     * @param image The shipped program.
     * @param compartment Compartment to run it in.
     * @param memory Untrusted memory to place ciphertext into.
     * @param vm Address space to map sections into.
     * @param asid Address space id.
     * @param engine Protection engine to register line states with.
     * @return success/failure; failure leaves no key installed
     *         (wrong processor, tampered capsule).
     *
     * A successful load replaces the image this loader last loaded
     * into (@p asid, @p compartment): that image's plaintext regions
     * are removed from @p vm before the new sections are placed.
     */
    LoadResult load(const ProgramImage &image,
                    secure::CompartmentId compartment,
                    mem::MainMemory &memory, mem::VirtualMemory &vm,
                    mem::Asid asid, secure::ProtectionEngine &engine);

    /**
     * Fetch and decrypt one line the way the processor would on an
     * instruction/data fetch (functional check; returns plaintext).
     */
    std::vector<uint8_t> fetchLine(uint64_t line_va,
                                   mem::MainMemory &memory,
                                   mem::VirtualMemory &vm,
                                   mem::Asid asid,
                                   secure::ProtectionEngine &engine,
                                   bool ifetch);

  private:
    crypto::RsaPrivateKey processor_key_;
    secure::KeyTable &keys_;

    /** Starts of the plaintext regions each loaded image registered. */
    std::map<std::pair<mem::Asid, secure::CompartmentId>,
             std::vector<uint64_t>>
        plaintext_starts_;
};

} // namespace secproc::xom

#endif // SECPROC_XOM_SECURE_LOADER_HH
