/**
 * @file
 * Register-file protection implementation.
 */

#include "secure/interrupt_guard.hh"

#include <cstring>

#include "crypto/sha.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::secure
{

InterruptGuard::InterruptGuard(const InterruptGuardConfig &config,
                               const crypto::BlockCipher &cipher)
    : config_(config), cipher_(cipher), engine_(config.crypto)
{
    fatal_if(config_.num_registers == 0,
             "the register file cannot be empty");
}

uint64_t
InterruptGuard::seed(uint64_t event_id) const
{
    // A dedicated namespace far away from line seeds: register saves
    // and memory lines must never share a pad even under the same
    // compartment key. The mutating event id is the paper's "varying
    // the XOM ID" (Section 3.4).
    return (0xE7ull << 56) | event_id;
}

size_t
InterruptGuard::imageBytes() const
{
    const size_t raw = size_t{config_.num_registers} * 8;
    const size_t bs = cipher_.blockSize();
    return (raw + bs - 1) / bs * bs;
}

void
InterruptGuard::setTrace(obs::TraceSink *sink)
{
    trace_ = sink;
    if (sink != nullptr)
        trace_track_ = sink->track("interrupt_guard");
}

uint64_t
InterruptGuard::scheduleSave(uint64_t cycle)
{
    ++events_;
    trace_cycle_ = cycle;
    switch (config_.mode) {
      case RegisterSaveMode::Direct:
        // Serial: the OS cannot run until the register block has
        // passed through the crypto engine.
        return engine_.schedule(cycle + config_.base_cost);
      case RegisterSaveMode::OtpPremade: {
        // The pad was pre-generated after the previous resume; if
        // interrupts arrive faster than the engine can pre-generate,
        // the residual wait is exposed.
        const uint64_t pad_wait =
            pad_ready_ > cycle ? pad_ready_ - cycle : 0;
        return cycle + config_.base_cost + pad_wait + 1; // 1 = XOR
      }
    }
    panic("unhandled register save mode");
}

uint64_t
InterruptGuard::scheduleRestore(uint64_t cycle)
{
    trace_cycle_ = cycle;
    switch (config_.mode) {
      case RegisterSaveMode::Direct:
        return engine_.schedule(cycle + config_.base_cost);
      case RegisterSaveMode::OtpPremade: {
        // The restore pad is the save pad (XOR is an involution), so
        // the restore itself is one XOR; afterwards the engine starts
        // pre-generating the *next* save's pad in the background.
        const uint64_t resumed = cycle + config_.base_cost + 1;
        pad_ready_ = engine_.schedule(resumed);
        return resumed;
      }
    }
    panic("unhandled register save mode");
}

RegisterSave
InterruptGuard::save(const std::vector<uint64_t> &registers)
{
    fatal_if(registers.size() != config_.num_registers,
             "expected ", config_.num_registers, " registers, got ",
             registers.size());
    RegisterSave out;
    out.event_id = next_event_++;
    out.image.assign(imageBytes(), 0);
    for (size_t i = 0; i < registers.size(); ++i)
        util::storeLe64(out.image.data() + i * 8, registers[i]);
    crypto::otpTransform(cipher_, seed(out.event_id), out.image.data(),
                         out.image.size());
    out.mac = computeMac(out.event_id, out.image);
    last_saved_event_ = out.event_id;
    return out;
}

std::optional<std::vector<uint64_t>>
InterruptGuard::restore(const RegisterSave &saved)
{
    // Replay detection: only the most recent save may resume. A
    // malicious OS handing back an older (authentic) save is exactly
    // the replay attack of Section 2.2.
    const bool pass =
        saved.event_id == last_saved_event_ &&
        computeMac(saved.event_id, saved.image) == saved.mac;
    if (trace_ != nullptr) {
        trace_->instant(trace_track_, "decision.interrupt_guard",
                        trace_cycle_,
                        {{"event", saved.event_id}, {"pass", pass}});
    }
    if (!pass) {
        ++detections_;
        return std::nullopt;
    }
    std::vector<uint8_t> image = saved.image;
    crypto::otpTransform(cipher_, seed(saved.event_id), image.data(),
                         image.size());
    std::vector<uint64_t> registers(config_.num_registers);
    for (size_t i = 0; i < registers.size(); ++i)
        registers[i] = util::loadLe64(image.data() + i * 8);
    return registers;
}

std::array<uint8_t, 8>
InterruptGuard::computeMac(uint64_t event_id,
                           const std::vector<uint8_t> &image) const
{
    // MAC key derived from the cipher rather than stored: hash the
    // cipher's encryption of a fixed block (a PRF evaluation only
    // the key holder can compute).
    std::vector<uint8_t> key(cipher_.blockSize(), 0x5A);
    cipher_.encryptBlock(key.data(), key.data());

    std::vector<uint8_t> msg(8 + image.size());
    util::storeLe64(msg.data(), event_id);
    std::memcpy(msg.data() + 8, image.data(), image.size());
    const auto full = crypto::hmacSha256(key.data(), key.size(),
                                         msg.data(), msg.size());
    std::array<uint8_t, 8> mac{};
    std::memcpy(mac.data(), full.data(), mac.size());
    return mac;
}

} // namespace secproc::secure
