/**
 * @file
 * Register-file protection across OS interrupts.
 *
 * The paper's threat model (Section 1) includes a hijacked operating
 * system that reads architectural register values when it fields an
 * interrupt, so XOM encrypts the register file into a save area
 * before the OS runs and decrypts it on resume. Section 3.4 recalls
 * the key detail: the seed must *mutate* per event — XOM varies the
 * XOM ID — or the save-area ciphertext of successive interrupts
 * becomes E(r) XOR E(r') analyzable, the same constant-seed weakness
 * as for data lines.
 *
 * This module models that machinery both ways:
 *  - Direct: each save encrypts the register block through the
 *    crypto engine on the critical path (XOM-style);
 *  - OtpPremade: the pad for the *next* interrupt's save is
 *    generated in the background right after the previous resume, so
 *    a save costs only the XOR — the paper's one-time-pad idea
 *    applied to the interrupt path.
 *
 * Functionally, saves bind the register block to an interrupt
 * sequence number and a MAC, so a malicious OS that tampers with the
 * saved image (or replays an old one) is detected on resume.
 */

#ifndef SECPROC_SECURE_INTERRUPT_GUARD_HH
#define SECPROC_SECURE_INTERRUPT_GUARD_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/block_cipher.hh"
#include "crypto/latency.hh"
#include "obs/trace.hh"
#include "util/stats.hh"

namespace secproc::secure
{

/** How register saves are encrypted. */
enum class RegisterSaveMode
{
    /** Serial encryption on the interrupt critical path. */
    Direct,
    /** One-time pad pre-generated in the background after resume. */
    OtpPremade,
};

/** Static configuration. */
struct InterruptGuardConfig
{
    RegisterSaveMode mode = RegisterSaveMode::OtpPremade;

    /** Architectural registers preserved across an interrupt. */
    uint32_t num_registers = 64;

    /** Crypto engine timing shared with the line engines. */
    crypto::CryptoEngineConfig crypto;

    /** Fixed interrupt entry/exit pipeline cost (flush + refill). */
    uint32_t base_cost = 30;
};

/** An encrypted register save area image. */
struct RegisterSave
{
    /** Interrupt sequence number the seed was formed with. */
    uint64_t event_id = 0;
    /** Encrypted register block. */
    std::vector<uint8_t> image;
    /** Truncated MAC over (event_id, image). */
    std::array<uint8_t, 8> mac{};
};

/**
 * Functional + timing model of register save/restore protection.
 */
class InterruptGuard
{
  public:
    /**
     * @param config Options.
     * @param cipher Compartment cipher used for pads/encryption
     *        (not owned; must outlive the guard).
     */
    InterruptGuard(const InterruptGuardConfig &config,
                   const crypto::BlockCipher &cipher);

    // ---------------------------------------------------------- timing

    /**
     * Timing of one interrupt entry (save) at @p cycle.
     * @return cycle the OS may start running.
     */
    uint64_t scheduleSave(uint64_t cycle);

    /**
     * Timing of the matching resume (restore) at @p cycle.
     * @return cycle the user program resumes execution.
     */
    uint64_t scheduleRestore(uint64_t cycle);

    // ------------------------------------------------------ functional

    /**
     * Encrypt @p registers into a save area image. Mutates the event
     * sequence number so no two saves share a pad (Section 3.4).
     */
    RegisterSave save(const std::vector<uint64_t> &registers);

    /**
     * Decrypt and verify a save area image.
     * @return the register values, or std::nullopt when the image
     *         was tampered with or replayed (MAC/event mismatch).
     */
    std::optional<std::vector<uint64_t>>
    restore(const RegisterSave &saved);

    /** Interrupt events so far. */
    uint64_t events() const { return events_.value(); }

    /** Saves rejected on restore (tamper/replay detections). */
    uint64_t detections() const { return detections_.value(); }

    const InterruptGuardConfig &config() const { return config_; }

    /**
     * Trace restore verdicts onto @p sink (nullptr detaches): the
     * "interrupt_guard" track carries one pass/fail instant per
     * restore, stamped with the cycle of the most recent
     * scheduleSave/scheduleRestore (0 when the functional path runs
     * without the timing one).
     */
    void setTrace(obs::TraceSink *sink);

  private:
    InterruptGuardConfig config_;
    const crypto::BlockCipher &cipher_;
    crypto::CryptoEngineModel engine_;

    /** Next interrupt's sequence number (mutating seed input). */
    uint64_t next_event_ = 1;

    /** Most recent save's event id (replays of older ids fail). */
    uint64_t last_saved_event_ = 0;

    /** OtpPremade: cycle the pre-generated pad becomes available. */
    uint64_t pad_ready_ = 0;

    util::Counter events_;
    util::Counter detections_;

    obs::TraceSink *trace_ = nullptr;
    obs::TrackId trace_track_ = 0;
    /** Cycle of the most recent timing-path call (trace stamp). */
    uint64_t trace_cycle_ = 0;

    /** Pad/encryption seed for @p event_id (never address-derived). */
    uint64_t seed(uint64_t event_id) const;

    /** Register block size in bytes, padded to cipher blocks. */
    size_t imageBytes() const;

    std::array<uint8_t, 8> computeMac(uint64_t event_id,
                                      const std::vector<uint8_t> &image)
        const;
};

} // namespace secproc::secure

#endif // SECPROC_SECURE_INTERRUPT_GUARD_HH
