/**
 * @file
 * live_ota_full / live_ota_delta: signed releases installed back to
 * back, over a lossy downlink, by an arbiter-paced LiveInstall on the
 * OTP+SNC machine while it runs gcc, mcf and art.
 *
 * The loop is closed: the next release starts at the first
 * 10k-instruction step boundary after the previous one lands. The
 * full workload ships 256 KB and 2 MB bundles in turn, so staging
 * writes dominate; the delta workload ships each release as a ~10%
 * DeltaBundle against the running image, so base readback and
 * reconstructDelta dominate. The two use the update layer in opposite
 * directions, which is why each is its own workload: a gain for one
 * shipping mode that costs the other shows in that mode's pass time.
 *
 * Every install is checked byte for byte (slot bytes, manifest,
 * rollback counter) against a pure functional UpdateEngine reference
 * device that installs the same release.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "crypto/des.hh"
#include "crypto/rsa.hh"
#include "crypto/sha.hh"
#include "harness.hh"
#include "ota/transport.hh"
#include "sim/system.hh"
#include "sim_helpers.hh"
#include "update/delta.hh"
#include "update/image_builder.hh"
#include "update/live_install.hh"
#include "update/update_engine.hh"

namespace perfbench
{
namespace
{

using namespace secproc;

constexpr uint64_t kWarmup = 200'000;
/** A profile that has not landed every release by then fails. */
constexpr uint64_t kMaxWindow = 200'000'000;

constexpr uint64_t kStagingBase = 0x4000'0000;
constexpr uint64_t kSlotSize = 8ull << 20;
constexpr uint64_t kImageBase = 0x0800'0000;

/** Full workload: release sizes in shipping order (cycled). */
constexpr uint64_t kFullSizes[] = {256ull << 10, 2ull << 20};
/** Delta workload: image size and per-release change. */
constexpr uint64_t kDeltaImageBytes = 256ull << 10;
constexpr double kDeltaChange = 0.10;
/** Releases each profile installs per pass. */
constexpr uint32_t kFullInstalls = 2;
constexpr uint32_t kDeltaInstalls = 4;

/** Fixed key seed: key generation cost must not vary by seed. */
constexpr uint64_t kKeySeed = 0x5EC'0A7A;

const char *const kProfiles[] = {"gcc", "mcf", "art"};

/** Pass digests at kDefaultSeed, scale 1. */
constexpr uint64_t kExpectedFull = 0xdab1d01ed2d1c961;
constexpr uint64_t kExpectedDelta = 0x8289d77601b96f63;

ota::TransportConfig
downlink(uint64_t seed)
{
    ota::TransportConfig transport;
    transport.chunk_bytes = 1024;
    transport.cycles_per_chunk = 128;
    transport.loss_rate = 0.05;
    transport.burst_length = 2.0;
    transport.retransmit_delay = 8192;
    transport.seed = seed;
    return transport;
}

xom::PlainProgram
program(std::vector<uint8_t> text_bytes)
{
    xom::PlainProgram prog;
    prog.title = "fw";
    prog.entry_point = kImageBase;
    xom::PlainProgram::PlainSection text;
    text.name = ".text";
    text.vaddr = kImageBase;
    text.bytes = std::move(text_bytes);
    prog.sections = {std::move(text)};
    return prog;
}

std::vector<uint8_t>
randomBytes(uint64_t n, uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<uint8_t> bytes(n);
    for (auto &b : bytes)
        b = static_cast<uint8_t>(rng.nextRange(256));
    return bytes;
}

/** Rewrite @p fraction of @p bytes' 64-byte blocks in place. */
void
mutate(std::vector<uint8_t> &bytes, double fraction, uint64_t seed)
{
    constexpr uint64_t kBlock = 64;
    util::Rng rng(seed);
    const uint64_t blocks = (bytes.size() + kBlock - 1) / kBlock;
    const auto changed =
        static_cast<uint64_t>(static_cast<double>(blocks) * fraction);
    for (uint64_t c = 0; c < changed; ++c) {
        const uint64_t block = rng.nextRange(blocks);
        const uint64_t end = std::min<uint64_t>((block + 1) * kBlock,
                                                bytes.size());
        for (uint64_t i = block * kBlock; i < end; ++i)
            bytes[i] = static_cast<uint8_t>(rng.nextRange(256));
    }
}

/** A pure functional device: the byte-for-byte install reference. */
struct ReferenceDevice
{
    secure::KeyTable keys;
    update::RollbackStore rollback{64};
    mem::MemoryChannel channel;
    std::unique_ptr<secure::ProtectionEngine> engine;
    update::UpdateEngine updater;
    mem::MainMemory memory;
    mem::VirtualMemory vm;

    ReferenceDevice(const sim::SystemConfig &config,
                    const update::ImageBuilder &vendor,
                    const crypto::RsaKeyPair &processor)
        : channel(config.channel),
          engine(secure::makeProtectionEngine(protection(config), channel,
                                              keys)),
          updater(vendor.publicKey(), processor, keys, rollback,
                  update::StagingConfig{kStagingBase, kSlotSize})
    {
    }

    bool
    install(const update::UpdateBundle &bundle)
    {
        return updater.install(bundle, 1, memory, vm, 1, *engine).ok();
    }

  private:
    static secure::ProtectionConfig
    protection(const sim::SystemConfig &config)
    {
        secure::ProtectionConfig p = config.protection;
        p.line_size = config.l2.line_size;
        return p;
    }
};

class LiveOta : public Workload
{
  public:
    LiveOta(const Options &options, bool delta)
        : Workload(options), delta_(delta)
    {
    }

    /**
     * Releases prepared: one per install (smoke scales ship fewer),
     * plus the factory image a delta chain starts from.
     */
    uint32_t
    releaseCount() const
    {
        const double installs =
            std::round((delta_ ? kDeltaInstalls : kFullInstalls) * opt_.scale);
        return std::max<uint32_t>(1, static_cast<uint32_t>(installs)) +
               (delta_ ? 1 : 0);
    }

    void
    prepare(Tracer &tracer) override
    {
        util::Rng key_rng(kKeySeed);
        auto keygen = [&] {
            Tracer::Scope s(tracer, "crypto.rsa_keygen");
            return crypto::rsaGenerate(512, key_rng);
        };
        vendor_ = std::make_unique<update::ImageBuilder>(keygen());
        processor_ = keygen();

        releases_.clear();
        deltas_.clear();
        update::UpdateSpec spec;
        spec.cipher = secure::CipherKind::Des;
        if (!delta_) {
            util::Rng build_rng(mixSeed(opt_.seed, 0xB01D));
            for (uint32_t v = 1; v <= releaseCount(); ++v) {
                const uint64_t bytes =
                    kFullSizes[(v - 1) % std::size(kFullSizes)];
                const xom::PlainProgram prog =
                    program(randomBytes(bytes, mixSeed(opt_.seed, v)));
                spec.image_version = v;
                spec.rollback_counter = v;
                Tracer::Scope s(tracer, "update.build");
                releases_.push_back(
                    vendor_->build(prog, spec, processor_.pub, build_rng));
            }
        } else {
            // Every build draws the same key seed, so unchanged
            // plaintext keeps its ciphertext and the deltas collapse.
            const uint64_t key_seed = mixSeed(opt_.seed, 0xDE17A);
            std::vector<uint8_t> text =
                randomBytes(kDeltaImageBytes, mixSeed(opt_.seed, 1));
            for (uint32_t v = 1; v <= releaseCount(); ++v) {
                if (v > 1)
                    mutate(text, kDeltaChange, mixSeed(opt_.seed, v));
                spec.image_version = v;
                spec.rollback_counter = v;
                spec.base_digest =
                    v > 1 ? update::sha256DigestOfImage(
                                releases_.back().image)
                          : update::Digest{};
                util::Rng build_rng(key_seed);
                {
                    Tracer::Scope s(tracer, "update.build");
                    releases_.push_back(vendor_->build(
                        program(text), spec, processor_.pub, build_rng));
                }
                if (v > 1) {
                    Tracer::Scope s(tracer, "update.build_delta");
                    deltas_.push_back(vendor_->buildDelta(
                        releases_[v - 2], releases_[v - 1]));
                }
            }
        }
        framed_bytes_.clear();
        for (const auto &bundle : releases_)
            framed_bytes_.push_back(update::kSlotHeaderBytes +
                                    bundle.serializedSize());
    }

    PassResult
    pass(Tracer &tracer) override
    {
        PassResult r;
        Stopwatch setup;
        Stopwatch run;
        Digest digest;
        const uint64_t warmup = scaled(kWarmup);
        const size_t releases = releaseCount();

        Tracer::Scope pass_span(tracer, "pass");
        for (size_t p = 0; p < std::size(kProfiles); ++p) {
            const sim::SystemConfig config =
                sim::paperConfig(secure::SecurityModel::OtpSnc);
            const sim::WorkloadProfile profile =
                seededProfile(kProfiles[p], opt_.seed);

            // The live machine, its update engine and the reference.
            secure::KeyTable update_keys;
            update::RollbackStore rollback(64);
            update::UpdateEngine updater(
                vendor_->publicKey(), processor_, update_keys, rollback,
                update::StagingConfig{kStagingBase, kSlotSize});
            auto workload = setup.time([&] {
                Tracer::Scope s(tracer, "sim.workload.ctor");
                return std::make_unique<sim::SyntheticWorkload>(
                    profile, config.l2.line_size);
            });
            auto system = setup.time([&] {
                Tracer::Scope s(tracer, "sim.system.ctor");
                return std::make_unique<sim::System>(config, *workload);
            });
            update::LiveInstallConfig live_config;
            live_config.line_bytes = config.l2.line_size;
            live_config.pacing = update::InstallPacing::Arbiter;
            live_config.transport = downlink(mixSeed(opt_.seed, 0x07A + p));
            update::LiveInstall live(live_config, *system, updater, 1);
            system->attachAgent(&live);
            ReferenceDevice reference(config, *vendor_, processor_);
            if (delta_) {
                // The factory image both devices start from.
                setup.time([&] {
                    checks_.expect(
                        updater
                            .install(releases_[0], 1, system->mainMemory(),
                                     system->virtualMemory(), 1,
                                     system->engine())
                            .ok(),
                        "live device installs the factory image");
                });
                checks_.expect(reference.install(releases_[0]),
                               "reference installs the factory image");
            }

            // Warm up with nothing installing, then ship every release
            // back to back, each starting when the previous landed.
            runSteps(tracer, run, *system, warmup, "sim.system.run.live");
            system->beginMeasurement();
            size_t next = delta_ ? 1 : 0;
            auto start = [&] {
                run.time([&] {
                    Tracer::Scope s(tracer, "update.live.start");
                    if (delta_)
                        live.startDelta(deltas_[next - 1],
                                        system->core().cycles());
                    else
                        live.start(releases_[next],
                                   system->core().cycles());
                });
            };
            start();
            uint64_t window = 0;
            while (window < kMaxWindow) {
                runSteps(tracer, run, *system, kStep, "sim.system.run.live");
                window += kStep;
                if (!live.done())
                    continue;
                checkInstall(tracer, live, updater, rollback, *system,
                             reference, next);
                for (auto phase : kPhases)
                    r.counts[phase.metric] +=
                        double(live.phaseCycles(phase.phase));
                r.counts["ota.chunks_lost"] +=
                    double(live.transport().chunksLost());
                r.counts["ota.retransmit_passes"] +=
                    double(live.transport().retransmitPasses());
                digest.add(live.installCycles());
                digest.add(live.activatedAt());
                if (++next == releases)
                    break;
                start();
            }
            checks_.expect(next == releases,
                           std::string(kProfiles[p]) +
                               " lands every release");
            system->channel().assertFullyAttributed();
            const sim::RunStats st = system->stats();
            digest.add(window);
            digest.add(st.cycles);
            digest.add(st.l2_misses);
            r.counts[delta_ ? "update.installs.delta"
                            : "update.installs.full"] +=
                double(next - (delta_ ? 1 : 0));
            r.counts["mem.channel.update_bytes"] +=
                double(system->channel().updateBytes());
            r.counts["mem.channel.agent_stall_cycles"] +=
                double(system->channel().agentStallCycles(live.agent()));
            r.instructions += warmup + window;
            r.retired += system->core().instructions();
            windows_[p] = window;
            live_cycles_[p] = st.cycles;
        }
        r.setup_laps = setup.laps();
        r.run_laps = run.laps();
        r.digest = digest.value();
        r.work = double(r.instructions);
        return r;
    }

    void
    isolate(Tracer &tracer) override
    {
        const sim::SystemConfig config =
            sim::paperConfig(secure::SecurityModel::OtpSnc);
        const ota::TransportConfig transport = downlink(opt_.seed);
        const crypto::Des des(mixSeed(opt_.seed, 0xDE5));

        // Each profile's machine over the latest pass's instructions with
        // nothing installing: the foreground slowdown's reference and the
        // installer's host-time overhead.
        const uint64_t warmup = scaled(kWarmup);
        double slowdown_sum = 0.0;
        double ipc_sum = 0.0;
        uint64_t ops[std::size(kProfiles)];
        for (size_t p = 0; p < std::size(kProfiles); ++p) {
            sim::SyntheticWorkload workload(
                seededProfile(kProfiles[p], opt_.seed), config.l2.line_size);
            sim::System alone(config, workload);
            Stopwatch unused;
            runSteps(tracer, unused, alone, warmup,
                     "iso.sim.system.run.alone");
            alone.beginMeasurement();
            runSteps(tracer, unused, alone, windows_[p],
                     "iso.sim.system.run.alone");
            checks_.expect(alone.core().instructions() ==
                               warmup + windows_[p],
                           "machine with no install retires its "
                           "instructions");
            const sim::RunStats st = alone.stats();
            slowdown_sum +=
                (double(live_cycles_[p]) / double(st.cycles) - 1.0) * 100.0;
            ipc_sum += st.ipc;
            ops[p] = warmup + windows_[p];
        }
        fg_slowdown_pct_ = slowdown_sum / double(std::size(kProfiles));
        alone_ipc_ = ipc_sum / double(std::size(kProfiles));

        for (size_t i = delta_ ? 1 : 0; i < releases_.size(); ++i) {
            const update::UpdateBundle &bundle = releases_[i];
            const std::vector<uint8_t> bytes = bundle.serialize();
            {
                Tracer::Scope s(tracer, "iso.update.deserialize");
                checks_.expect(
                    update::UpdateBundle::deserialize(bytes).has_value(),
                    "release deserializes");
            }
            ReferenceDevice device(config, *vendor_, processor_);
            {
                Tracer::Scope s(tracer, "iso.update.verify");
                checks_.expect(device.updater.verify(bundle).ok(),
                               "release verifies");
            }
            const update::Digest d = bundle.manifest.digest();
            const std::vector<uint8_t> digest(d.begin(), d.end());
            {
                Tracer::Scope s(tracer, "iso.crypto.rsa_verify");
                checks_.expect(crypto::rsaVerifyDigest(vendor_->publicKey(),
                                                       digest,
                                                       bundle.signature),
                               "manifest signature verifies");
            }

            // The bytes this install moved through the slot.
            std::vector<uint8_t> framed = update::frameBundle(bundle);
            std::vector<uint8_t> out(framed.size());
            const size_t blocks = framed.size() / 8;
            {
                Tracer::Scope s(tracer, "iso.crypto.des");
                des.encryptBlocks(framed.data(), out.data(), blocks);
            }
            des_blocks_ += blocks;
            {
                Tracer::Scope s(tracer, "iso.crypto.sha256");
                out[0] ^= crypto::Sha256::digest(framed.data(),
                                                 framed.size())[0];
            }
            sha_bytes_ += framed.size();

            ota::Transport link(transport);
            std::vector<uint8_t> stream =
                delta_ ? update::frameBundleBytes(deltas_[i - 1].serialize())
                       : std::move(framed);
            Tracer::Scope s(tracer, "iso.ota.send");
            link.send(std::move(stream), 0);
        }
        isolated_ops_ = isolateWorkloadGeneration(tracer, kProfiles,
                                                  opt_.seed, ops, checks_);
    }

    double passSeconds() const override { return delta_ ? 0.45 : 0.75; }

    uint64_t
    expectedDigest() const override
    {
        return delta_ ? kExpectedDelta : kExpectedFull;
    }


    void
    layerMetrics(const LayerTimes &t, const PassResult &last,
                 double untraced_run_s, LayerValues &out) const override
    {
        out[delta_ ? "update.live.delta.overhead_ns_per_instr"
                   : "update.live.full.overhead_ns_per_instr"] =
            (t.self("sim.system.run.live") -
             t.self("iso.sim.system.run.alone")) /
            double(last.instructions) * 1e9;
        out[delta_ ? "fg_slowdown_delta_pct" : "fg_slowdown_full_pct"] =
            fg_slowdown_pct_;
        out["sim.core.ipc.otp_snc"] = alone_ipc_;
        out[delta_ ? "delta_minstr_per_s" : "full_minstr_per_s"] =
            last.work / untraced_run_s / 1e6;
        if (isolated_ops_ > 0)
            out["sim.workload.ns_per_op"] =
                t.self("iso.sim.workload.next") /
                double(isolated_ops_) * 1e9;
        out["sim.system.ctor_ms"] =
            t.perCall("sim.system.ctor") * 1e3;
        if (des_blocks_ > 0)
            out["crypto.des.ns_per_block"] =
                t.self("iso.crypto.des") / double(des_blocks_) * 1e9;
        if (sha_bytes_ > 0)
            out["crypto.sha256.ns_per_byte"] =
                t.self("iso.crypto.sha256") / double(sha_bytes_) * 1e9;
        out["crypto.rsa_verify.us"] =
            t.perCall("iso.crypto.rsa_verify") * 1e6;
        out["crypto.rsa_keygen.ms"] =
            t.perCall("crypto.rsa_keygen") * 1e3;
        out["update.build.ms"] = t.perCall("update.build") * 1e3;
        out["update.build_delta.ms"] =
            t.perCall("update.build_delta") * 1e3;
        out["update.deserialize.us"] =
            t.perCall("iso.update.deserialize") * 1e6;
        out["update.verify.ms"] = t.perCall("iso.update.verify") * 1e3;
        out["update.reconstruct_delta.ms"] =
            t.perCall("update.reconstruct_delta") * 1e3;
        out["update.install.ms"] = t.perCall("update.install") * 1e3;
        out["ota.send.us"] = t.perCall("iso.ota.send") * 1e6;
    }

  private:
    struct PhaseMetric
    {
        update::LiveInstallPhase phase;
        const char *metric;
    };
    static constexpr PhaseMetric kPhases[] = {
        {update::LiveInstallPhase::Admission,
         "update.phase.admission_cycles"},
        {update::LiveInstallPhase::Stage, "update.phase.stage_cycles"},
        {update::LiveInstallPhase::Reverify, "update.phase.reverify_cycles"},
        {update::LiveInstallPhase::Load, "update.phase.load_cycles"},
        {update::LiveInstallPhase::Attest, "update.phase.attest_cycles"},
    };

    bool delta_;
    std::unique_ptr<update::ImageBuilder> vendor_;
    crypto::RsaKeyPair processor_;
    std::vector<update::UpdateBundle> releases_;
    /** deltas_[i] ships releases_[i + 1] against releases_[i]. */
    std::vector<update::DeltaBundle> deltas_;
    std::vector<uint64_t> framed_bytes_;
    /** Each profile's measured window and cycles in the latest pass. */
    uint64_t windows_[std::size(kProfiles)] = {};
    uint64_t live_cycles_[std::size(kProfiles)] = {};
    double fg_slowdown_pct_ = 0.0;
    double alone_ipc_ = 0.0;
    uint64_t isolated_ops_ = 0;
    uint64_t des_blocks_ = 0;
    uint64_t sha_bytes_ = 0;

    void
    checkInstall(Tracer &tracer, const update::LiveInstall &live,
                 const update::UpdateEngine &updater,
                 const update::RollbackStore &rollback, sim::System &system,
                 ReferenceDevice &reference, size_t index)
    {
        Tracer::Scope check(tracer, "check");
        if (!checks_.expect(live.phase() == update::LiveInstallPhase::Done,
                            "live install reaches Done"))
            return;
        if (delta_) {
            Tracer::Scope s(tracer, "update.reconstruct_delta");
            const auto rec = reference.updater.reconstructDelta(
                deltas_[index - 1], reference.memory);
            checks_.expect(rec.result.ok() && rec.bundle.has_value(),
                           "reference reconstructs the delta");
        }
        {
            Tracer::Scope s(tracer, "update.install");
            checks_.expect(reference.install(releases_[index]),
                           "reference installs the release");
        }
        const uint64_t n = framed_bytes_[index];
        std::vector<uint8_t> want(n);
        std::vector<uint8_t> got(n);
        reference.memory.read(
            reference.updater.slotBase(reference.updater.activeSlot()),
            want.data(), n);
        system.mainMemory().read(updater.slotBase(updater.activeSlot()),
                                 got.data(), n);
        checks_.expect(want == got, "slot bytes match the reference");
        checks_.expect(updater.activeManifest().has_value() &&
                           reference.updater.activeManifest().has_value() &&
                           updater.activeManifest()->serialize() ==
                               reference.updater.activeManifest()
                                   ->serialize(),
                       "manifest matches the reference");
        checks_.expect(rollback.current("fw") ==
                           reference.rollback.current("fw"),
                       "rollback counter matches the reference");
    }
};

} // namespace

std::unique_ptr<Workload>
makeLiveOta(const Options &options, bool delta)
{
    return std::make_unique<LiveOta>(options, delta);
}

} // namespace perfbench
