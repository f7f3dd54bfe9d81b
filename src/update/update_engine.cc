/**
 * @file
 * Update engine implementation.
 */

#include "update/update_engine.hh"

#include "util/logging.hh"
#include "util/serialize.hh"
#include "util/strutil.hh"

namespace secproc::update
{

namespace
{

/** Framing of a staged bundle in the slot: magic | u64 len | bytes
 *  (header size is update_engine.hh's kSlotHeaderBytes). */
constexpr uint32_t kSlotMagic = 0x53505354; // "SPST"

} // namespace

std::vector<uint8_t>
frameBundleBytes(const std::vector<uint8_t> &bundle_bytes)
{
    std::vector<uint8_t> out;
    out.reserve(kSlotHeaderBytes + bundle_bytes.size());
    util::putU32(out, kSlotMagic);
    util::putU64(out, bundle_bytes.size());
    out.insert(out.end(), bundle_bytes.begin(), bundle_bytes.end());
    return out;
}

std::vector<uint8_t>
frameBundle(const UpdateBundle &bundle)
{
    const uint64_t bundle_size = bundle.serializedSize();
    std::vector<uint8_t> out;
    out.reserve(kSlotHeaderBytes + bundle_size);
    util::putU32(out, kSlotMagic);
    util::putU64(out, bundle_size);
    util::VectorSink sink(out);
    bundle.serializeTo(sink);
    return out;
}

std::optional<std::span<const uint8_t>>
unframeBundleView(std::span<const uint8_t> framed)
{
    if (framed.size() < kSlotHeaderBytes)
        return std::nullopt;
    util::ByteReader reader(framed);
    const uint32_t magic = reader.u32();
    const uint64_t len = reader.u64();
    if (magic != kSlotMagic || len == 0 ||
        len > framed.size() - kSlotHeaderBytes)
        return std::nullopt;
    return framed.subspan(kSlotHeaderBytes, len);
}

const char *
updateStatusName(UpdateStatus status)
{
    switch (status) {
      case UpdateStatus::Ok: return "ok";
      case UpdateStatus::MalformedBundle: return "malformed-bundle";
      case UpdateStatus::WrongProcessor: return "wrong-processor";
      case UpdateStatus::BadSignature: return "bad-signature";
      case UpdateStatus::DigestMismatch: return "digest-mismatch";
      case UpdateStatus::Rollback: return "rollback";
      case UpdateStatus::CounterBankFull: return "counter-bank-full";
      case UpdateStatus::TooLarge: return "too-large";
      case UpdateStatus::StagingCorrupt: return "staging-corrupt";
      case UpdateStatus::NothingStaged: return "nothing-staged";
      case UpdateStatus::LoadFailed: return "load-failed";
      case UpdateStatus::BaseMismatch: return "base-mismatch";
    }
    panic("unknown update status");
}

UpdateEngine::UpdateEngine(crypto::RsaPublicKey vendor_key,
                           crypto::RsaKeyPair processor_key,
                           secure::KeyTable &keys,
                           RollbackStore &rollback,
                           const StagingConfig &staging)
    : vendor_key_(std::move(vendor_key)),
      processor_key_(std::move(processor_key)),
      identity_(processorId(processor_key_.pub)), keys_(keys),
      rollback_(rollback), staging_(staging),
      loader_(processor_key_.priv, keys_)
{}

const crypto::RsaKeyPair &
UpdateEngine::attestationKey() const
{
    panic_if(!attestation_key_.has_value(),
             "attestation key was never provisioned "
             "(setAttestationKey)");
    return *attestation_key_;
}

VerifyResult
UpdateEngine::verifyManifest(
    const UpdateManifest &manifest,
    const std::vector<uint8_t> &signature) const
{
    // 0. Structural sanity: downstream consumers (protection engine
    //    geometry, loader alignment checks) assume a power-of-two
    //    line size.
    if (manifest.line_size == 0 ||
        (manifest.line_size & (manifest.line_size - 1)) != 0) {
        return {UpdateStatus::MalformedBundle,
                "manifest line size " +
                    std::to_string(manifest.line_size) +
                    " is not a power of two"};
    }

    // 1. Is this update even meant for us? Checked first so a fleet
    //    operator gets "wrong processor", not a signature puzzle.
    if (manifest.processor_id != identity_) {
        return {UpdateStatus::WrongProcessor,
                "manifest targets processor " +
                    util::toHex(manifest.processor_id.data(), 8) +
                    "..., this processor is " +
                    util::toHex(identity_.data(), 8) + "..."};
    }

    // 2. Vendor signature over the manifest's canonical bytes.
    const Digest digest = manifest.digest();
    if (!crypto::rsaVerifyDigest(vendor_key_,
                                 {digest.begin(), digest.end()},
                                 signature)) {
        return {UpdateStatus::BadSignature,
                "manifest signature does not verify under the "
                "trusted vendor key"};
    }

    // 3. Anti-rollback: strictly monotonic per title, with bank
    //    exhaustion reported as its own condition (a provisioning
    //    limit, not an attack).
    const uint64_t stored_counter = rollback_.current(manifest.title);
    if (trace_ != nullptr) {
        trace_->instant(
            trace_track_, "decision.sequence_check", trace_cycle_,
            {{"counter", manifest.rollback_counter},
             {"stored", stored_counter},
             {"pass", manifest.rollback_counter > stored_counter}});
    }
    if (manifest.rollback_counter <= stored_counter) {
        return {UpdateStatus::Rollback,
                "rollback counter " +
                    std::to_string(manifest.rollback_counter) +
                    " not above stored " +
                    std::to_string(stored_counter) + " for '" +
                    manifest.title + "'"};
    }
    if (!rollback_.hasSlotFor(manifest.title)) {
        return {UpdateStatus::CounterBankFull,
                "no rollback counter slot free for new title '" +
                    manifest.title + "' (" +
                    std::to_string(rollback_.capacity()) +
                    " slots in use)"};
    }

    return {UpdateStatus::Ok, {}};
}

VerifyResult
UpdateEngine::verify(const UpdateBundle &bundle) const
{
    // Steps 0-2 and anti-rollback live in verifyManifest — one
    // implementation shared with the delta path.
    const VerifyResult head =
        verifyManifest(bundle.manifest, bundle.signature);
    if (!head.ok())
        return head;
    return verifyImage(bundle);
}

VerifyResult
UpdateEngine::verifyImage(const UpdateBundle &bundle) const
{
    const UpdateManifest &manifest = bundle.manifest;

    // The image must be exactly what the manifest signed:
    //    per-section digests, then the key capsule.
    if (manifest.sections.size() != bundle.image.sections.size()) {
        return {UpdateStatus::DigestMismatch,
                "manifest describes " +
                    std::to_string(manifest.sections.size()) +
                    " sections, image carries " +
                    std::to_string(bundle.image.sections.size())};
    }
    for (size_t i = 0; i < manifest.sections.size(); ++i) {
        const SectionDigest &sd = manifest.sections[i];
        const xom::Section &section = bundle.image.sections[i];
        if (sd.name != section.name || sd.vaddr != section.vaddr ||
            sd.size != section.bytes.size() ||
            sd.digest != sha256Digest(section.bytes)) {
            return {UpdateStatus::DigestMismatch,
                    "section '" + section.name +
                        "' does not match its signed digest"};
        }
    }
    if (manifest.capsule_digest !=
        sha256Digest(bundle.image.key_capsule)) {
        return {UpdateStatus::DigestMismatch,
                "key capsule does not match its signed digest"};
    }
    // Whole-image digest last: it authenticates everything the
    // per-section digests do not cover (entry point, cipher, line
    // size, per-section encryption modes). Streamed — re-verification
    // happens at every trust boundary and must not re-materialize
    // the multi-megabyte image each time.
    if (manifest.image_digest != sha256DigestOfImage(bundle.image)) {
        return {UpdateStatus::DigestMismatch,
                "image does not match its signed whole-image digest"};
    }

    // Finally, the bundle must fit the staging slot, or it can never
    // be installed on this device. Derived from the serializer itself
    // (CountingSink behind serializedSize) — a hand-mirrored layout
    // here silently broke the gate every time the format revved.
    const uint64_t framed_size =
        kSlotHeaderBytes + bundle.serializedSize();
    if (framed_size > staging_.slot_size) {
        return {UpdateStatus::TooLarge,
                "bundle does not fit the " +
                    std::to_string(staging_.slot_size) +
                    "-byte staging slot"};
    }

    return {UpdateStatus::Ok, {}};
}

VerifyResult
UpdateEngine::stage(const UpdateBundle &bundle, mem::MainMemory &memory)
{
    const VerifyResult admission = verify(bundle);
    if (admission.ok())
        writeStaged(bundle, memory);
    return admission;
}

void
UpdateEngine::writeStaged(const UpdateBundle &bundle,
                          mem::MainMemory &memory)
{
    // The caller verified the bundle, size gate included; this only
    // guards the framing arithmetic itself.
    const std::vector<uint8_t> framed = frameBundle(bundle);
    panic_if(framed.size() > staging_.slot_size,
             "verified bundle does not fit its slot");
    const uint32_t slot = stagingSlot();
    memory.write(slotBase(slot), framed.data(), framed.size());
    if (journal_ != nullptr) {
        // A monolithic write lands the whole payload at once: open
        // (or adopt) the record and mark every chunk, so a retry
        // after a power cut before activation resumes for free.
        journal_->begin(slot, sha256Digest(framed), framed.size(),
                        bundle.manifest.line_size);
        const uint64_t chunks = journal_->chunkCount(slot);
        for (uint64_t i = 0; i < chunks; ++i)
            journal_->markChunk(slot, i);
    }
    commitStaged();
}

std::optional<uint64_t>
UpdateEngine::framedExtent(uint32_t slot, mem::MainMemory &memory) const
{
    std::vector<uint8_t> header(kSlotHeaderBytes);
    memory.read(slotBase(slot), header.data(), header.size());
    util::ByteReader reader(header);
    const uint32_t magic = reader.u32();
    const uint64_t len = reader.u64();
    if (magic != kSlotMagic || len == 0 ||
        len > staging_.slot_size - kSlotHeaderBytes)
        return std::nullopt;
    return kSlotHeaderBytes + len;
}

UpdateEngine::DeltaReconstruction
UpdateEngine::reconstructDelta(const DeltaBundle &delta,
                               mem::MainMemory &memory) const
{
    // Authenticate the manifest before spending anything on the
    // base slot or the (attacker-controlled) patch ops.
    const VerifyResult head =
        verifyManifest(delta.manifest, delta.signature);
    if (!head.ok())
        return {head, std::nullopt};

    if (!delta.manifest.hasBase()) {
        return {{UpdateStatus::MalformedBundle,
                 "delta bundle names no base image"},
                std::nullopt};
    }

    // The base lives in the *active* slot: the framed bundle of the
    // image this device currently runs. Anything that keeps the base
    // from being read — never installed, or an unparseable slot — is
    // BaseMismatch: not an attack verdict, the device just needs the
    // full bundle instead.
    if (!active_manifest_.has_value()) {
        return {{UpdateStatus::BaseMismatch,
                 "no active image to apply a delta against"},
                std::nullopt};
    }
    const auto extent = framedExtent(active_slot_, memory);
    if (!extent.has_value()) {
        return {{UpdateStatus::BaseMismatch,
                 "active slot holds no readable base bundle"},
                std::nullopt};
    }
    std::vector<uint8_t> base_bytes(*extent - kSlotHeaderBytes);
    memory.read(slotBase(active_slot_) + kSlotHeaderBytes,
                base_bytes.data(), base_bytes.size());
    const auto base_bundle = UpdateBundle::deserialize(base_bytes);
    if (!base_bundle.has_value()) {
        return {{UpdateStatus::BaseMismatch,
                 "active slot bundle no longer parses"},
                std::nullopt};
    }
    if (sha256DigestOfImage(base_bundle->image) !=
        delta.manifest.base_digest) {
        return {{UpdateStatus::BaseMismatch,
                 "active image is not the base this delta requires"},
                std::nullopt};
    }

    auto image = applyDelta(delta, base_bundle->image);
    if (!image.has_value()) {
        return {{UpdateStatus::MalformedBundle,
                 "delta patch ops are inconsistent with the signed "
                 "manifest"},
                std::nullopt};
    }

    UpdateBundle bundle;
    bundle.manifest = delta.manifest;
    bundle.signature = delta.signature;
    bundle.image = std::move(*image);

    // The manifest and signature are the ones verifyManifest cleared
    // above; the rebuilt image gets the image half of verify() — a
    // tampered literal op that survived the bounds checks dies here
    // on the signed digests, exactly like any other corrupted full
    // bundle.
    const VerifyResult admission = verifyImage(bundle);
    if (!admission.ok())
        return {admission, std::nullopt};
    return {admission, std::move(bundle)};
}

VerifyResult
UpdateEngine::stageDelta(const DeltaBundle &delta,
                         mem::MainMemory &memory)
{
    const DeltaReconstruction rec = reconstructDelta(delta, memory);
    if (rec.result.ok())
        writeStaged(*rec.bundle, memory);
    return rec.result;
}

InstallResult
UpdateEngine::activate(secure::CompartmentId compartment,
                       mem::MainMemory &memory, mem::VirtualMemory &vm,
                       mem::Asid asid, secure::ProtectionEngine &engine)
{
    if (!staged_pending_) {
        return {UpdateStatus::NothingStaged,
                "no staged update to activate", compartment, 0,
                active_slot_};
    }

    const uint32_t slot = stagingSlot();

    // Re-read the slot header from untrusted memory.
    const auto extent = framedExtent(slot, memory);
    if (!extent.has_value()) {
        return {UpdateStatus::StagingCorrupt,
                "staged slot header is damaged (interrupted "
                "staging write?)",
                compartment, 0, active_slot_};
    }

    std::vector<uint8_t> bundle_bytes(*extent - kSlotHeaderBytes);
    memory.read(slotBase(slot) + kSlotHeaderBytes, bundle_bytes.data(),
                bundle_bytes.size());
    const auto staged = UpdateBundle::deserialize(bundle_bytes);
    if (!staged.has_value()) {
        return {UpdateStatus::StagingCorrupt,
                "staged bundle bytes no longer parse",
                compartment, 0, active_slot_};
    }

    // The staging area is outside the boundary: everything gets
    // re-verified before any state changes.
    const VerifyResult admission = verify(*staged);
    if (trace_ != nullptr) {
        trace_->instant(trace_track_, "decision.reverify_at_activation",
                        trace_cycle_, {{"pass", admission.ok()}});
    }
    if (!admission.ok()) {
        // Anything that re-fails here was verified clean at admission
        // and has since been damaged in untrusted memory — except
        // rollback-store races (the counter advanced, or the last
        // free slot was consumed, since admission), which keep their
        // own statuses.
        const UpdateStatus status =
            admission.status == UpdateStatus::Rollback ||
                    admission.status == UpdateStatus::CounterBankFull
                ? admission.status
                : UpdateStatus::StagingCorrupt;
        return {status, "staged bundle failed re-verification: " +
                            admission.detail,
                compartment, 0, active_slot_};
    }

    // Hand to the loader; this is the single point that mutates the
    // key table and line states.
    const xom::LoadResult loaded = loader_.load(
        staged->image, compartment, memory, vm, asid, engine);
    if (!loaded.success) {
        return {UpdateStatus::LoadFailed, loaded.error, compartment, 0,
                active_slot_};
    }

    // Commit: flip slots, burn the counter, remember the manifest.
    active_slot_ = slot;
    staged_pending_ = false;
    if (journal_ != nullptr)
        journal_->clear(slot); // staging finished; nothing to resume

    rollback_.commit(staged->manifest.title,
                     staged->manifest.rollback_counter);
    active_manifest_ = staged->manifest;
    installed_[compartment] = staged->manifest;
    inform("activated '", staged->manifest.title, "' v",
           staged->manifest.image_version, " (rollback ",
           staged->manifest.rollback_counter, ") in slot ",
           slot == 0 ? "A" : "B");

    return {UpdateStatus::Ok, {}, compartment, loaded.entry_point,
            slot};
}

void
UpdateEngine::setTrace(obs::TraceSink *sink)
{
    trace_ = sink;
    if (sink != nullptr)
        trace_track_ = sink->track("update_engine");
}

InstallResult
UpdateEngine::install(const UpdateBundle &bundle,
                      secure::CompartmentId compartment,
                      mem::MainMemory &memory, mem::VirtualMemory &vm,
                      mem::Asid asid, secure::ProtectionEngine &engine)
{
    const VerifyResult admission = stage(bundle, memory);
    if (!admission.ok()) {
        return {admission.status, admission.detail, compartment, 0,
                active_slot_};
    }
    return activate(compartment, memory, vm, asid, engine);
}

} // namespace secproc::update
