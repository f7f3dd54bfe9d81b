/**
 * @file
 * Protection engine shared machinery and factory.
 */

#include "secure/protection_engine.hh"

#include "obs/metrics.hh"
#include "secure/engines.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::secure
{

ProtectionEngine::ProtectionEngine(const ProtectionConfig &config,
                                   mem::MemoryChannel &channel,
                                   const KeyTable &keys,
                                   crypto::CryptoEngineModel *shared_crypto)
    : config_(config), channel_(channel), keys_(keys),
      owned_crypto_(shared_crypto
                        ? nullptr
                        : std::make_unique<crypto::CryptoEngineModel>(
                              config.crypto)),
      crypto_engine_(shared_crypto ? *shared_crypto : *owned_crypto_)
{
    fatal_if(!util::isPowerOfTwo(config_.line_size),
             "line size must be a power of two");
    line_shift_ = util::floorLog2(config_.line_size);
}

LineCipherState
ProtectionEngine::lineState(uint64_t line_va) const
{
    const LineCipherState *it = line_states_.find(lineIdx(line_va));
    return it == nullptr ? LineCipherState::Unwritten : *it;
}

void
ProtectionEngine::setLineState(uint64_t line_va, LineCipherState state,
                               uint32_t seqnum)
{
    line_states_.insert(lineIdx(line_va), state);
    if (state == LineCipherState::Otp)
        preset_seqnums_.insert(lineIdx(line_va), seqnum);
}

void
ProtectionEngine::checkRun(uint64_t first_va, uint64_t count,
                           uint64_t stride) const
{
    if (count <= 1)
        return;
    fatal_if(stride < config_.line_size, "warm run stride ", stride,
             " revisits ", config_.line_size, "-byte lines");
    fatal_if(count - 1 > (~uint64_t{0} - first_va) / stride,
             "warm run from ", first_va, " wraps the address space");
}

void
ProtectionEngine::markWarm(
    util::RadixArray<LineCipherState>::Cursor &states, uint64_t line_va,
    LineCipherState state)
{
    LineCipherState &slot = states.touch(line_va >> line_shift_);
    fatal_if(slot != LineCipherState::Unwritten, "warm run line ",
             line_va, " was already written");
    slot = state;
}

void
ProtectionEngine::warmStates(uint64_t first_va, uint64_t count,
                             uint64_t stride, LineCipherState state,
                             const WarmVisit &visit)
{
    checkRun(first_va, count, stride);
    util::RadixArray<LineCipherState>::Cursor states(line_states_);
    EvictPlan plan;
    plan.state = state;
    for (uint64_t i = 0; i < count; ++i) {
        plan.line_va = first_va + i * stride;
        markWarm(states, plan.line_va, state);
        if (visit)
            visit(plan);
    }
}

void
ProtectionEngine::reset()
{
    // Only an owned model is this engine's to wipe: a shared model
    // carries machine-wide occupancy (other agents' reservations)
    // that the machine owner resets, not one of its clients —
    // System::reset() is that owner path, and it also clears the
    // channel's arbiter queues and the agents' in-flight work.
    if (owned_crypto_)
        owned_crypto_->reset();
    line_states_.clear();
    preset_seqnums_.clear();
    fast_fills_.reset();
    slow_fills_.reset();
    plain_fills_.reset();
}

void
ProtectionEngine::registerMetrics(obs::MetricsRegistry &reg,
                                  const std::string &prefix) const
{
    reg.counter(prefix + ".fast_fills", &fast_fills_);
    reg.counter(prefix + ".slow_fills", &slow_fills_);
    reg.counter(prefix + ".plain_fills", &plain_fills_);
}

const crypto::BlockCipher &
ProtectionEngine::activeCipher() const
{
    const crypto::BlockCipher *cipher = keys_.cipher(compartment_);
    panic_if(cipher == nullptr,
             "no key installed for compartment ", compartment_);
    return *cipher;
}

uint64_t
ProtectionEngine::makeSeed(uint64_t line_va, uint32_t seqnum) const
{
    const uint64_t line_number = line_va / config_.line_size;
    // Layout (bits): [63:24] line number, [23:8] seqnum, [7:0] zero.
    // Unlike the paper's literal "seed = VA + seqnum" this is
    // collision-free across fields (see DESIGN.md section 7), and
    // generatePad()'s multiplicative per-block tweak keeps intra-line
    // pad blocks distinct without consuming seed bits. Compartment
    // separation comes from per-compartment keys, exactly as in the
    // paper; the vendor can therefore pre-compute instruction seeds
    // without knowing the compartment ID assigned at load time.
    return ((line_number & util::mask(40)) << 24) |
           ((static_cast<uint64_t>(seqnum) & util::mask(16)) << 8);
}

uint64_t
ProtectionEngine::seqnumTableAddr(uint64_t line_va) const
{
    // The OS reserves a region for the spill table; entries are
    // packed at the SNC's per-entry width. Only the DRAM bank/row
    // mapping consumes this address.
    constexpr uint64_t kTableBase = 0x7000'0000'0000ull;
    const uint64_t index = line_va / config_.line_size;
    return kTableBase + index * config_.snc.bytes_per_entry;
}

FillResult
ProtectionEngine::lineFill(uint64_t line_va, uint64_t cycle, bool ifetch,
                           mem::RegionKind kind)
{
    return scheduleFill(planFill(line_va, ifetch, kind), cycle);
}

void
ProtectionEngine::lineEvict(uint64_t line_va, uint64_t cycle,
                            mem::RegionKind kind)
{
    scheduleEvict(planEvict(line_va, kind), cycle);
}

void
ProtectionEngine::decryptLine(uint64_t line_va, bool ifetch,
                              mem::RegionKind kind,
                              std::span<uint8_t> bytes)
{
    applyFill(planFill(line_va, ifetch, kind), bytes);
}

void
ProtectionEngine::encryptLine(uint64_t line_va, mem::RegionKind kind,
                              std::span<uint8_t> bytes)
{
    applyEvict(planEvict(line_va, kind), bytes);
}

std::unique_ptr<ProtectionEngine>
makeProtectionEngine(const ProtectionConfig &config,
                     mem::MemoryChannel &channel, const KeyTable &keys,
                     crypto::CryptoEngineModel *shared_crypto)
{
    switch (config.model) {
      case SecurityModel::Baseline:
        return std::make_unique<BaselineEngine>(config, channel, keys,
                                                shared_crypto);
      case SecurityModel::Xom:
        return std::make_unique<XomEngine>(config, channel, keys,
                                           shared_crypto);
      case SecurityModel::OtpSnc:
        return std::make_unique<OtpEngine>(config, channel, keys,
                                           shared_crypto);
    }
    panic("unknown security model");
}

std::string
securityModelName(SecurityModel model)
{
    switch (model) {
      case SecurityModel::Baseline: return "baseline";
      case SecurityModel::Xom: return "xom";
      case SecurityModel::OtpSnc: return "otp-snc";
    }
    return "unknown";
}

} // namespace secproc::secure
