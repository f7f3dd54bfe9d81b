/**
 * @file
 * The vendor side of a fleet rollout: release feed, CDN capacity,
 * install-history ledger.
 *
 * A VendorService is the update authority a million fielded secure
 * processors talk to (fwupd's engine/history model, scaled out):
 *
 *  - releases are *real* signed update::ImageBuilder bundles — the
 *    same bytes a single-device LiveInstall consumes — built against
 *    one device-class identity and calibrated once per
 *    engine-latency class into an InstallCostModel by replaying the
 *    bundle's plan (from its framed size) through the one install
 *    pipeline, update::InstallTiming, on an idle channel and engine;
 *  - a quirk table gates offers by hardware variant: devices whose
 *    variant the vendor has no install parameters for are skipped,
 *    never offered (fwupd's quirk matching);
 *  - signing/CDN capacity is a queueing model: every device in a
 *    wave requests at wave open (the thundering herd), and the k-th
 *    request is dispatched k service-times later plus a per-device
 *    client jitter — a closed form, so dispatch order is independent
 *    of shard or thread scheduling;
 *  - every completed install fills its wave's slice of the
 *    per-device history ledger in place, in queue-position order.
 */

#ifndef SECPROC_FLEET_VENDOR_HH
#define SECPROC_FLEET_VENDOR_HH

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "crypto/rsa.hh"
#include "fleet/device.hh"
#include "update/image_builder.hh"
#include "update/manifest.hh"

namespace secproc::fleet
{

/** Knobs of the vendor service. */
struct VendorConfig
{
    /** Signing-key and payload derivation seed. */
    uint64_t seed = 0xF1EE7;

    /** Payload bytes of each release's .text section. */
    uint64_t image_bytes = 64ull << 10;

    /**
     * Fraction of the payload's 64-byte blocks each successive
     * payload generation rewrites relative to its predecessor. A
     * realistic point release touches a small slice of the image —
     * this is what makes delta bundles worth shipping. Generation 1
     * is always a fresh random image.
     */
    double change_fraction = 0.10;

    /** Line size the cost calibration replays at. */
    uint32_t line_bytes = 128;

    /** Quirk table coverage: variants in [0, supported_variants)
     *  are offered updates; anything newer/odder is skipped. */
    uint32_t supported_variants = 5;

    /** Serialized CDN spacing between dispatches: the k-th device
     *  of a wave starts its download k * this after wave open. */
    uint64_t cdn_service_cycles = 5'000'000;

    /** Per-device client-side check-in jitter window. */
    uint64_t cdn_jitter_cycles =
        static_cast<uint64_t>(kCyclesPerHour / 60.0);
};

/** Terminal outcome of one device's encounter with a release. */
enum class InstallOutcome : uint8_t
{
    Updated,      ///< installed and passed the post-reboot health check
    FailedHealth, ///< installed, then failed the health check (defect)
    RolledBack,   ///< reverted to the rollback release after a halt
};

/** One published release and everything the fleet needs to cost it. */
struct ReleaseInfo
{
    uint32_t version = 0;
    uint64_t rollback_counter = 0;

    /** Payload generation: equal payload_versions ship identical
     *  program bytes (how a rollback release re-ships the old
     *  image under a higher counter). */
    uint32_t payload_version = 0;

    uint64_t image_bytes = 0;

    /** Bytes of the framed serialized bundle — what the downlink
     *  actually streams and the staging slot stores. */
    uint64_t framed_bytes = 0;

    /** Hardware variant whose post-reboot health check this release
     *  breaks (-1 = healthy release). */
    int32_t defective_variant = -1;

    /** Health-check failure probability on the defective variant. */
    double defect_rate = 0.0;

    /** Version this release is the emergency rollback for (0 =
     *  a regular forward release). */
    uint32_t rollback_of = 0;

    /** The real signed bundle (what ground-truth devices install). */
    update::UpdateBundle bundle;

    /**
     * Version this release ships a delta against (0 = full-bundle
     * only). Devices running exactly that version download the delta
     * stream; everyone else falls back to the full bundle.
     */
    uint32_t delta_base_version = 0;

    /** Bytes of the framed delta stream (0 when full-only) — what
     *  the downlink carries for a delta-eligible device. */
    uint64_t delta_framed_bytes = 0;

    /** The signed delta bundle (when delta_base_version != 0). */
    update::DeltaBundle delta;

    /** Calibrated install cost per engine-latency class. @{ */
    InstallCostModel cost_paper;   ///< 50-cycle engine
    InstallCostModel cost_strong;  ///< 102-cycle engine
    /** @} */

    /** Delta-install cost (admission covers the delta stream plus
     *  the base-slot readback; later phases match the full
     *  install). Meaningful when delta_base_version != 0. @{ */
    InstallCostModel delta_cost_paper;
    InstallCostModel delta_cost_strong;
    /** @} */

    const InstallCostModel &cost(uint32_t engine_latency) const;
    const InstallCostModel &deltaCost(uint32_t engine_latency) const;
};

/** One install-history ledger entry (24 bytes; a million-device
 *  rollout keeps every record in memory). */
struct LedgerRecord
{
    uint32_t device = 0;
    uint32_t release_version = 0;
    uint16_t wave = 0;
    InstallOutcome outcome = InstallOutcome::Updated;
    uint8_t power_cut_retries = 0;
    uint64_t completed_cycle = 0;
};

/**
 * The vendor update service one fleet rollout runs against.
 */
class VendorService
{
  public:
    explicit VendorService(const VendorConfig &config);

    /**
     * Build, sign and calibrate one release. @p payload_version
     * selects the program bytes (reuse an old one for a rollback
     * release); @p defective_variant / @p defect_rate model a
     * release that breaks one hardware variant's health check;
     * @p rollback_of marks an emergency rollback release. A nonzero
     * @p delta_base_version (an already-published release) also cuts
     * and calibrates a delta bundle against that base: the build
     * reuses the base's key stream so unchanged payload lines keep
     * their ciphertext, and the manifest names the base image's
     * digest for the device-side base check.
     */
    const ReleaseInfo &publish(uint32_t version,
                               uint64_t rollback_counter,
                               uint32_t payload_version,
                               int32_t defective_variant = -1,
                               double defect_rate = 0.0,
                               uint32_t rollback_of = 0,
                               uint32_t delta_base_version = 0);

    /** Published release @p version; fatal() when unknown. */
    const ReleaseInfo &release(uint32_t version) const;

    /** All releases, in version order. */
    const std::map<uint32_t, ReleaseInfo> &releases() const
    {
        return releases_;
    }

    /** Quirk-table match: is @p variant offered updates at all? */
    bool offersVariant(uint32_t variant) const
    {
        return variant < config_.supported_variants;
    }

    /** Thundering-herd dispatch: when the device at queue
     *  @p position with client jitter @p jitter starts downloading
     *  after a wave opened at @p wave_open. */
    uint64_t dispatchCycle(uint64_t wave_open, uint64_t position,
                           uint64_t jitter) const
    {
        return wave_open + jitter +
               position * config_.cdn_service_cycles;
    }

    /** Grow the ledger by one wave's @p n records, returned to be
     *  filled in place; valid until the ledger grows again. */
    std::span<LedgerRecord> extendLedger(size_t n);

    /** Per-device install history, wave by wave in queue-position
     *  order (deterministic across thread counts). */
    const std::vector<LedgerRecord> &ledger() const
    {
        return ledger_;
    }

    const VendorConfig &config() const { return config_; }

    /** The trusted update-authority public key devices carry. */
    const crypto::RsaPublicKey &vendorPublicKey() const
    {
        return builder_.publicKey();
    }

    /** The device-class RSA identity releases are bound to (a
     *  fleet-wide class key; embedded ground-truth devices hold the
     *  private half). */
    const crypto::RsaKeyPair &deviceClassKey() const
    {
        return device_class_key_;
    }

  private:
    VendorConfig config_;
    util::Rng rng_;
    update::ImageBuilder builder_;
    crypto::RsaKeyPair device_class_key_;
    std::map<uint32_t, ReleaseInfo> releases_;
    std::vector<LedgerRecord> ledger_;
};

} // namespace secproc::fleet

#endif // SECPROC_FLEET_VENDOR_HH
