/**
 * @file
 * Vendor update service implementation.
 */

#include "fleet/vendor.hh"

#include <algorithm>

#include "crypto/latency.hh"
#include "mem/memory_channel.hh"
#include "update/install_timing.hh"
#include "update/update_engine.hh"
#include "util/bitops.hh"
#include "util/logging.hh"
#include "xom/vendor_tool.hh"

namespace secproc::fleet
{

const InstallCostModel &
ReleaseInfo::cost(uint32_t engine_latency) const
{
    fatal_if(engine_latency != crypto::kPaperCryptoLatency &&
                 engine_latency != crypto::kStrongCipherLatency,
             "release calibrated for the 50/102-cycle engine "
             "classes, not ",
             engine_latency);
    return engine_latency == crypto::kStrongCipherLatency
               ? cost_strong
               : cost_paper;
}

const InstallCostModel &
ReleaseInfo::deltaCost(uint32_t engine_latency) const
{
    fatal_if(delta_base_version == 0,
             "release ships no delta to cost");
    fatal_if(engine_latency != crypto::kPaperCryptoLatency &&
                 engine_latency != crypto::kStrongCipherLatency,
             "release calibrated for the 50/102-cycle engine "
             "classes, not ",
             engine_latency);
    return engine_latency == crypto::kStrongCipherLatency
               ? delta_cost_strong
               : delta_cost_paper;
}

namespace
{

/** The image a given payload generation ships: deterministic bytes
 *  from the vendor seed, so a rollback release byte-matches the
 *  release it reverts to. Generation 1 is a fresh random image;
 *  every later generation rewrites change_fraction of its
 *  predecessor's 64-byte blocks — the similarity a delta bundle
 *  exploits. */
xom::PlainProgram
makeProgram(uint64_t vendor_seed, uint32_t payload_version,
            uint64_t image_bytes, double change_fraction)
{
    constexpr uint64_t kImageBase = 0x0800'0000;
    constexpr uint64_t kBlock = 64;
    xom::PlainProgram program;
    program.title = "fleet-fw";
    program.entry_point = kImageBase;

    xom::PlainProgram::PlainSection text;
    text.name = ".text";
    text.vaddr = kImageBase;
    text.bytes.resize(image_bytes);
    util::Rng fill(mixSeed(vendor_seed, 1));
    for (auto &byte : text.bytes)
        byte = static_cast<uint8_t>(fill.nextRange(256));

    const uint64_t blocks = util::ceilDiv(image_bytes, kBlock);
    const auto changed = static_cast<uint64_t>(
        static_cast<double>(blocks) * change_fraction);
    for (uint32_t gen = 2; gen <= payload_version; ++gen) {
        util::Rng mutate(mixSeed(vendor_seed, 0xD1FFull + gen));
        for (uint64_t c = 0; c < changed; ++c) {
            const uint64_t block = mutate.nextRange(blocks);
            const uint64_t begin = block * kBlock;
            const uint64_t end =
                std::min<uint64_t>(begin + kBlock, image_bytes);
            for (uint64_t i = begin; i < end; ++i) {
                text.bytes[i] =
                    static_cast<uint8_t>(mutate.nextRange(256));
            }
        }
    }
    program.sections = {text};
    return program;
}

/**
 * Replay @p plan through the install pipeline, fixed-paced on an
 * otherwise idle channel and @p engine_latency crypto engine (no
 * machine around them), and split the measured cycles into the
 * lightweight cost model's three stages. This is the one place the
 * fleet touches the real cycle plane per (release, engine class) —
 * every lightweight device reuses the result.
 */
InstallCostModel
calibrate(const update::InstallPlan &plan, uint32_t line_bytes,
          uint32_t engine_latency)
{
    mem::MemoryChannel channel;
    crypto::CryptoEngineModel engine(
        crypto::CryptoEngineConfig{engine_latency, 1});

    update::InstallTimingConfig config;
    config.line_bytes = line_bytes;
    config.pacing = update::InstallPacing::Fixed;
    update::InstallTiming timing(config, channel, engine);
    timing.start(plan, 0);
    timing.replay();
    fatal_if(timing.installsCompleted() != 1,
             "release calibration replay did not complete");

    // Only the admission read overlaps the download; everything
    // after the signature check follows it.
    InstallCostModel cost;
    cost.admission_read_cycles =
        timing.stepCycles(update::InstallStep::AdmissionRead);
    cost.admission_sig_cycles =
        timing.stepCycles(update::InstallStep::AdmissionSig);
    cost.post_admission_cycles = timing.lastInstallCycles() -
                                 cost.admission_read_cycles -
                                 cost.admission_sig_cycles;
    return cost;
}

} // namespace

VendorService::VendorService(const VendorConfig &config)
    : config_(config), rng_(mixSeed(config.seed, 0x5E11E12ull)),
      builder_(crypto::rsaGenerate(512, rng_)),
      device_class_key_(crypto::rsaGenerate(512, rng_))
{
}

const ReleaseInfo &
VendorService::publish(uint32_t version, uint64_t rollback_counter,
                       uint32_t payload_version,
                       int32_t defective_variant, double defect_rate,
                       uint32_t rollback_of,
                       uint32_t delta_base_version)
{
    fatal_if(releases_.count(version) != 0, "release ", version,
             " already published");

    ReleaseInfo info;
    info.version = version;
    info.rollback_counter = rollback_counter;
    info.payload_version = payload_version;
    info.image_bytes = config_.image_bytes;
    info.defective_variant = defective_variant;
    info.defect_rate = defect_rate;
    info.rollback_of = rollback_of;
    info.delta_base_version = delta_base_version;

    const xom::PlainProgram program =
        makeProgram(config_.seed, payload_version, config_.image_bytes,
                    config_.change_fraction);

    update::UpdateSpec spec;
    spec.image_version = version;
    spec.rollback_counter = rollback_counter;
    spec.scheme = xom::VendorScheme::Otp;
    spec.cipher = secure::CipherKind::Des;
    spec.line_size = config_.line_bytes;

    // Bundle entropy is keyed by version, not call order, so
    // re-running a scenario reproduces every release byte for byte.
    // A delta release draws the *base's* stream instead: the same
    // symmetric key means unchanged plaintext lines keep their
    // ciphertext (the OTP pad is keyed by key and address alone),
    // which is the whole delta opportunity.
    const ReleaseInfo *base = nullptr;
    uint64_t rng_key = 0xB0B0ull + version;
    if (delta_base_version != 0) {
        const auto it = releases_.find(delta_base_version);
        fatal_if(it == releases_.end(), "delta base release ",
                 delta_base_version, " not published");
        base = &it->second;
        spec.base_digest =
            update::sha256DigestOfImage(base->bundle.image);
        rng_key = 0xB0B0ull + delta_base_version;
    }
    util::Rng bundle_rng(mixSeed(config_.seed, rng_key));
    info.bundle = builder_.build(program, spec,
                                 device_class_key_.pub, bundle_rng);
    info.framed_bytes =
        update::kSlotHeaderBytes + info.bundle.serializedSize();

    const update::InstallPlan plan = update::InstallPlan::fromFramedBytes(
        info.framed_bytes, info.bundle.image.totalBytes(),
        config_.line_bytes);
    info.cost_paper = calibrate(plan, config_.line_bytes,
                                crypto::kPaperCryptoLatency);
    info.cost_strong = calibrate(plan, config_.line_bytes,
                                 crypto::kStrongCipherLatency);

    if (base != nullptr) {
        info.delta = builder_.buildDelta(base->bundle, info.bundle);
        info.delta_framed_bytes = update::kSlotHeaderBytes +
                                  info.delta.serializedSize();
        const update::InstallPlan delta_plan =
            plan.asDelta(info.delta_framed_bytes, base->framed_bytes,
                         config_.line_bytes);
        info.delta_cost_paper = calibrate(
            delta_plan, config_.line_bytes, crypto::kPaperCryptoLatency);
        info.delta_cost_strong =
            calibrate(delta_plan, config_.line_bytes,
                      crypto::kStrongCipherLatency);
    }

    return releases_.emplace(version, std::move(info))
        .first->second;
}

const ReleaseInfo &
VendorService::release(uint32_t version) const
{
    const auto it = releases_.find(version);
    fatal_if(it == releases_.end(), "no published release ",
             version);
    return it->second;
}

std::span<LedgerRecord>
VendorService::extendLedger(size_t n)
{
    ledger_.resize(ledger_.size() + n);
    return std::span<LedgerRecord>(ledger_).last(n);
}

} // namespace secproc::fleet
