/**
 * @file
 * Processor-side secure update engine.
 *
 * Receives signed update bundles from untrusted transport and takes
 * them live without ever trusting unverified bytes. Every install
 * checks the signed manifest and image exactly twice, once at each
 * trust boundary the bytes cross:
 *
 *  1. verify() — admission, over the bytes that arrived: vendor
 *     signature over the manifest, target processor identity, the
 *     anti-rollback counter, per-section + capsule + whole-image
 *     digests and slot fit, all inside the security boundary;
 *  2. stage — write the framed bundle into the inactive half of an
 *     A/B staging area in untrusted MainMemory, then commitStaged().
 *     Staging proves nothing: the slot may be torn or corrupted at
 *     any point after (or during) the write;
 *  3. activate() — read the staged bytes back, re-verify everything
 *     (the slot is the source of truth, and it sits outside the
 *     boundary), then atomically hand the image to
 *     xom::SecureLoader — which unwraps the key capsule, installs
 *     the compartment key and registers line states — flip the
 *     active slot and commit the rollback counter. A failure at any
 *     step leaves the previous image active and the counter
 *     untouched.
 */

#ifndef SECPROC_UPDATE_UPDATE_ENGINE_HH
#define SECPROC_UPDATE_UPDATE_ENGINE_HH

#include <array>
#include <optional>
#include <string>
#include <unordered_map>

#include "crypto/rsa.hh"
#include "mem/main_memory.hh"
#include "mem/virtual_memory.hh"
#include "obs/trace.hh"
#include "secure/key_table.hh"
#include "secure/protection_engine.hh"
#include "update/delta.hh"
#include "update/manifest.hh"
#include "update/rollback_store.hh"
#include "update/staging_journal.hh"
#include "xom/secure_loader.hh"

namespace secproc::update
{

/** Why an update was accepted or refused. Each check is distinct. */
enum class UpdateStatus
{
    Ok,
    /** Bundle bytes do not parse (truncation, framing damage). */
    MalformedBundle,
    /** Manifest targets a different processor's public key. */
    WrongProcessor,
    /** Vendor signature over the manifest does not verify. */
    BadSignature,
    /** A section / capsule digest disagrees with the manifest. */
    DigestMismatch,
    /** Rollback counter not above the stored monotonic value. */
    Rollback,
    /** New title, but every rollback counter slot is in use. */
    CounterBankFull,
    /** Bundle exceeds the staging slot capacity. */
    TooLarge,
    /** Staged bytes failed re-verification at activation. */
    StagingCorrupt,
    /** activate() with no staged update pending. */
    NothingStaged,
    /** Key capsule failed to unwrap at activation (loader). */
    LoadFailed,
    /**
     * Delta bundle names a base image this device does not have in
     * its active slot. Not an attack: the defined fallback is to
     * request the full bundle instead (fleet waves do exactly that).
     */
    BaseMismatch,
};

/** Short name for reports, e.g. "rollback". */
const char *updateStatusName(UpdateStatus status);

/** Outcome of verify(): status plus human-readable specifics. */
struct VerifyResult
{
    UpdateStatus status = UpdateStatus::Ok;
    std::string detail;

    bool ok() const { return status == UpdateStatus::Ok; }
};

/** Outcome of activate()/install(). */
struct InstallResult
{
    UpdateStatus status = UpdateStatus::Ok;
    std::string detail;
    secure::CompartmentId compartment = 0;
    uint64_t entry_point = 0;
    /** Slot (0 = A, 1 = B) that became active. */
    uint32_t slot = 0;

    bool ok() const { return status == UpdateStatus::Ok; }
};

/**
 * Bytes of framing (magic + length) ahead of a staged bundle in its
 * slot. Every framed size includes it, so the install pipeline's
 * plans (InstallPlan::fromFramedBytes) bill the real staged
 * footprint.
 */
inline constexpr uint64_t kSlotHeaderBytes = 12;

/**
 * Frame serialized bundle bytes the way a staging slot stores them
 * (and the OTA downlink streams them): magic | u64 length | bytes.
 */
std::vector<uint8_t>
frameBundleBytes(const std::vector<uint8_t> &bundle_bytes);

/**
 * Frame @p bundle directly — identical bytes to
 * frameBundleBytes(bundle.serialize()) with one exact-sized
 * allocation instead of serializing the multi-megabyte bundle twice.
 */
std::vector<uint8_t> frameBundle(const UpdateBundle &bundle);

/**
 * Undo frameBundleBytes on bytes read back from untrusted memory,
 * without copying: the view borrows @p framed. @return the bundle
 * bytes, or std::nullopt when the framing is damaged (torn write,
 * corruption).
 */
std::optional<std::span<const uint8_t>>
unframeBundleView(std::span<const uint8_t> framed);

/** Geometry of the A/B staging area in untrusted memory. */
struct StagingConfig
{
    /** Physical base of slot A; slot B follows at base + size. */
    uint64_t base = 0x4000'0000;
    /** Per-slot capacity in bytes. */
    uint64_t slot_size = 8ull << 20;
};

/**
 * One processor's update engine. Lives inside the security boundary
 * next to the SecureLoader; owns the trusted vendor public key, the
 * rollback counter bank and the A/B slot bookkeeping.
 */
class UpdateEngine
{
  public:
    /**
     * @param vendor_key Trusted update-authority public key.
     * @param processor_key This processor's RSA key pair (private
     *        half drives the loader, public half is our identity).
     * @param keys Compartment key table the loader installs into.
     * @param rollback Monotonic counter bank (survives reboots).
     * @param staging A/B staging area geometry.
     */
    UpdateEngine(crypto::RsaPublicKey vendor_key,
                 crypto::RsaKeyPair processor_key,
                 secure::KeyTable &keys, RollbackStore &rollback,
                 const StagingConfig &staging = {});

    /**
     * Full admission check of a parsed bundle against this
     * processor's identity and rollback history. Read-only.
     */
    VerifyResult verify(const UpdateBundle &bundle) const;

    /**
     * The manifest-only half of verify(): structural sanity,
     * processor identity, vendor signature and anti-rollback — every
     * check that needs no image bytes. verify() layers the digest
     * and slot-fit checks on top; the delta path runs this *before*
     * touching the base slot or applying patch ops, so unsigned
     * garbage is rejected at the cheapest possible point.
     */
    VerifyResult
    verifyManifest(const UpdateManifest &manifest,
                   const std::vector<uint8_t> &signature) const;

    /**
     * verify() @p bundle, then write its framed form into the
     * inactive staging slot in @p memory and commitStaged(). Does
     * not touch the running image.
     */
    VerifyResult stage(const UpdateBundle &bundle,
                       mem::MainMemory &memory);

    /**
     * Mark the inactive slot as holding a staged update, for a
     * caller that wrote the framed bundle itself (LiveInstall's
     * per-line stage writes). Proves nothing about the slot's
     * bytes: activate() re-reads and re-verifies them, and stays the
     * one authority over what goes live.
     */
    void commitStaged() { staged_pending_ = true; }

    /** Outcome of reconstructDelta: the full bundle when Ok. */
    struct DeltaReconstruction
    {
        VerifyResult result;
        std::optional<UpdateBundle> bundle;
    };

    /**
     * Rebuild the full update bundle a delta describes, slot-to-slot:
     * verifyManifest() the delta's signed manifest, read the base
     * bundle out of the *active* slot in @p memory, check its image
     * against the manifest's base_digest (BaseMismatch on any
     * disagreement — the caller's fallback is to fetch the full
     * bundle), apply the patch ops, and check the reconstructed
     * image against the signed digests and the slot size (the image
     * half of verify(); the manifest half already ran). The result
     * is the delta's admission verdict. Read-only: no engine or
     * memory state changes.
     */
    DeltaReconstruction reconstructDelta(const DeltaBundle &delta,
                                         mem::MainMemory &memory) const;

    /**
     * reconstructDelta(), then the same slot write and commitStaged()
     * as stage() — the reconstruction already verified the bundle,
     * so it is not verified again before activate().
     */
    VerifyResult stageDelta(const DeltaBundle &delta,
                            mem::MainMemory &memory);

    /**
     * Take the staged update live: re-read and re-verify the staged
     * bytes, load through the SecureLoader, flip the active slot and
     * commit the rollback counter. On any failure the previous
     * image, slot and counter are untouched.
     */
    InstallResult activate(secure::CompartmentId compartment,
                           mem::MainMemory &memory,
                           mem::VirtualMemory &vm, mem::Asid asid,
                           secure::ProtectionEngine &engine);

    /** stage() + activate() in one call. */
    InstallResult install(const UpdateBundle &bundle,
                          secure::CompartmentId compartment,
                          mem::MainMemory &memory,
                          mem::VirtualMemory &vm, mem::Asid asid,
                          secure::ProtectionEngine &engine);

    /** Slot that would serve the next stage() (0 = A, 1 = B). */
    uint32_t stagingSlot() const { return active_slot_ ^ 1u; }

    /** Active slot index; meaningful once something installed. */
    uint32_t activeSlot() const { return active_slot_; }

    /** A/B staging geometry (cycle-plane agents address by it). */
    const StagingConfig &staging() const { return staging_; }

    /** Physical base of @p slot in the staging area. */
    uint64_t slotBase(uint32_t slot) const
    {
        return staging_.base + slot * staging_.slot_size;
    }

    /**
     * Framed byte extent (header + bundle bytes) of whatever sits in
     * @p slot, judged by the slot header alone, or std::nullopt when
     * the header is torn or empty. Cycle-plane planners use this to
     * cost the base-bundle readback of a delta admission; it proves
     * nothing about the slot's integrity.
     */
    std::optional<uint64_t> framedExtent(uint32_t slot,
                                         mem::MainMemory &memory) const;

    /** True while a staged update awaits activation. */
    bool stagedPending() const { return staged_pending_; }

    /** Manifest of the most recently activated image, if any. */
    const std::optional<UpdateManifest> &activeManifest() const
    {
        return active_manifest_;
    }

    /** Manifest running in @p compartment, nullptr if none. */
    const UpdateManifest *
    compartmentManifest(secure::CompartmentId compartment) const
    {
        const auto it = installed_.find(compartment);
        return it == installed_.end() ? nullptr : &it->second;
    }

    /** This processor's identity fingerprint. */
    const Digest &processorIdentity() const { return identity_; }

    /**
     * Provision the dedicated attestation signing key. Deliberately
     * distinct from the capsule-unwrap key pair: the loader's
     * PKCS#1 type-02 unwrap is an observable decryption oracle, and
     * signing with the same key would expose quote forgery to
     * Bleichenbacher-style cross-protocol attacks.
     */
    void setAttestationKey(crypto::RsaKeyPair key)
    {
        attestation_key_ = std::move(key);
    }

    /** Attestation key pair; panics when never provisioned. */
    const crypto::RsaKeyPair &attestationKey() const;

    const RollbackStore &rollback() const { return rollback_; }

    /**
     * Attach a resumable-staging journal (nullptr detaches). When
     * attached, stage()/stageDelta() record the staged payload as
     * fully written and a successful activate() clears the slot's
     * record; the chunk-granular bookkeeping during an incremental
     * stage, and retiring the record of a refused install, are
     * LiveInstall's. Purely an efficiency aid — see
     * staging_journal.hh for why it is untrusted by design.
     */
    void setJournal(StagingJournal *journal) { journal_ = journal; }

    StagingJournal *journal() const { return journal_; }

    /**
     * Trace security decisions onto @p sink (nullptr detaches): the
     * "update_engine" track carries one instant per anti-rollback
     * sequence-number comparison and per re-verification at
     * activation, each tagged pass/fail. The functional engine has
     * no clock of its own — a cycle-plane driver stamps the current
     * cycle via setTraceCycle() before calling into it (0 for pure
     * functional callers like update_tool).
     */
    void setTrace(obs::TraceSink *sink);

    /** Cycle stamped onto subsequently traced decisions. */
    void setTraceCycle(uint64_t cycle) { trace_cycle_ = cycle; }

  private:
    /**
     * The image half of verify(): per-section, capsule and
     * whole-image digests against @p bundle's manifest, and the fit
     * of the framed bundle in a slot.
     */
    VerifyResult verifyImage(const UpdateBundle &bundle) const;

    /** Frame verified @p bundle into the inactive slot, journal it
     *  as fully written, and commitStaged(). */
    void writeStaged(const UpdateBundle &bundle,
                     mem::MainMemory &memory);

    crypto::RsaPublicKey vendor_key_;
    crypto::RsaKeyPair processor_key_;
    std::optional<crypto::RsaKeyPair> attestation_key_;
    Digest identity_;
    secure::KeyTable &keys_;
    RollbackStore &rollback_;
    StagingConfig staging_;
    xom::SecureLoader loader_;

    obs::TraceSink *trace_ = nullptr;
    obs::TrackId trace_track_ = 0;
    uint64_t trace_cycle_ = 0;

    StagingJournal *journal_ = nullptr;

    uint32_t active_slot_ = 1; // first stage() lands in slot 0 (A)
    bool staged_pending_ = false;
    std::optional<UpdateManifest> active_manifest_;
    /** compartment -> manifest of the image it runs. */
    std::unordered_map<secure::CompartmentId, UpdateManifest>
        installed_;
};

} // namespace secproc::update

#endif // SECPROC_UPDATE_UPDATE_ENGINE_HH
