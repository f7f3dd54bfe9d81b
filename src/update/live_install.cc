/**
 * @file
 * Unified-plane install implementation: the functional payload the
 * install pipeline runs on.
 */

#include "update/live_install.hh"

#include <algorithm>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::update
{

namespace
{

/** Channel-agent name of the transport DMA's writes. */
constexpr const char *kOtaDmaAgentName = "ota_dma";

/** The live phase a pipeline step belongs to. */
LiveInstallPhase
phaseOf(InstallStep step)
{
    switch (step) {
      case InstallStep::AdmissionRead:
      case InstallStep::AdmissionSig: return LiveInstallPhase::Admission;
      case InstallStep::StageWrite: return LiveInstallPhase::Stage;
      case InstallStep::ReverifyRead:
      case InstallStep::ReverifySig: return LiveInstallPhase::Reverify;
      case InstallStep::LoadWrite:
      case InstallStep::CapsuleUnwrap: return LiveInstallPhase::Load;
      case InstallStep::Attest: return LiveInstallPhase::Attest;
    }
    panic("unknown install step");
}

} // namespace

const char *
liveInstallPhaseName(LiveInstallPhase phase)
{
    switch (phase) {
      case LiveInstallPhase::Idle: return "idle";
      case LiveInstallPhase::Admission: return "admission";
      case LiveInstallPhase::Stage: return "stage";
      case LiveInstallPhase::Reverify: return "reverify";
      case LiveInstallPhase::Load: return "load";
      case LiveInstallPhase::Attest: return "attest";
      case LiveInstallPhase::Done: return "done";
      case LiveInstallPhase::Failed: return "failed";
    }
    panic("unknown live install phase");
}

LiveInstall::LiveInstall(const LiveInstallConfig &config,
                         sim::System &system, UpdateEngine &updater,
                         secure::CompartmentId compartment)
    : InstallTiming(config, system.channel(), system.cryptoEngine(),
                    /*chain_signatures=*/true),
      system_(system), updater_(updater), compartment_(compartment),
      transport_(config.transport),
      dma_agent_(system.channel().registerAgent(kOtaDmaAgentName))
{
}

void
LiveInstall::start(const UpdateBundle &bundle, uint64_t cycle)
{
    delta_mode_ = false;
    framed_ = frameBundle(bundle);
    framed_slot_.clear();
    base_framed_bytes_ = 0;
    begin(InstallPlan::fromFramedBytes(framed_.size(),
                                       bundle.image.totalBytes(),
                                       config().line_bytes),
          cycle);
}

void
LiveInstall::startDelta(const DeltaBundle &delta, uint64_t cycle)
{
    delta_mode_ = true;
    framed_ = frameBundleBytes(delta.serialize());
    framed_slot_.clear();
    // The base-bundle readback is part of admission's channel bill;
    // its extent comes from the active slot's header. An unreadable
    // header costs nothing extra here — reconstructDelta() renders
    // the BaseMismatch verdict after the (tiny) delta stream lands.
    base_framed_bytes_ =
        updater_
            .framedExtent(updater_.activeSlot(), system_.mainMemory())
            .value_or(0);
    // Stage/reverify/load extents belong to the *reconstructed*
    // bundle and are filled in by renderAdmission(); until then only
    // the admission pass can run, and its count is final already.
    begin(InstallPlan{}.asDelta(framed_.size(), base_framed_bytes_,
                                config().line_bytes),
          cycle);
}

void
LiveInstall::begin(const InstallPlan &plan, uint64_t cycle)
{
    const uint32_t line = config().line_bytes;

    // The stream must not land on top of the A/B slots: a silent
    // overlap would corrupt staged bytes mid-install. Checked here,
    // where the buffer's real extent is known.
    const uint64_t transport_end = kTransportBufferBase + framed_.size();
    const uint64_t staging_end =
        updater_.slotBase(1) + updater_.staging().slot_size;
    fatal_if(kTransportBufferBase < staging_end &&
                 transport_end > updater_.staging().base,
             "transport buffer [", kTransportBufferBase, ", ",
             transport_end, ") overlaps the A/B staging area");

    const uint64_t transport_lines = util::ceilDiv(framed_.size(), line);
    line_missing_.assign(transport_lines, 0);
    line_ready_.assign(transport_lines, 0);
    for (uint64_t i = 0; i < transport_lines; ++i) {
        line_missing_[i] = static_cast<uint32_t>(
            std::min<uint64_t>(line, framed_.size() - i * line));
    }

    // A matching journal record turns this into a resumed session:
    // chunks whose bytes already sit in the slot are NACKed away
    // before the transport ever transmits them. A delta's stream
    // carries patch ops, not slot bytes — its journal resume applies
    // to the stage writes only, wired up after reconstruction.
    slot_ = updater_.stagingSlot();
    std::vector<bool> held;
    stage_line_resumed_.clear();
    if (!delta_mode_)
        held = resumeFromJournal(plan.stage_lines, cycle);
    transport_.send(framed_, cycle, held);

    activated_at_ = 0;
    staged_bytes_ = 0;
    admission_.reset();
    result_.reset();
    load_base_ = 0;
    InstallTiming::start(plan, cycle);
}

bool
LiveInstall::markResumedLines(const std::vector<uint8_t> &payload,
                              uint64_t stage_lines)
{
    stage_line_resumed_.assign(stage_lines, 0);
    StagingJournal *journal = updater_.journal();
    if (journal == nullptr ||
        !journal->begin(slot_, sha256Digest(payload), payload.size(),
                        config().line_bytes))
        return false; // fresh session (different payload, or first try)
    for (uint64_t i = 0; i < stage_lines; ++i)
        stage_line_resumed_[i] = journal->chunkDone(slot_, i) ? 1 : 0;
    return true;
}

std::vector<bool>
LiveInstall::resumeFromJournal(uint64_t stage_lines, uint64_t cycle)
{
    if (!markResumedLines(framed_, stage_lines))
        return {};

    // A transport chunk is held — never re-downloaded — iff every
    // slot line it overlaps was journaled complete. The device then
    // copies those bytes back out of the slot into the transport
    // buffer itself: the journal is only a hint, so the resumed
    // bytes flow through the same admission fetch/digest/parse as
    // fresh ones and a slot that rotted while powered off fails
    // verification exactly like a torn download.
    const uint32_t line = config().line_bytes;
    const uint32_t chunk_bytes = config().transport.chunk_bytes;
    const uint64_t nchunks = util::ceilDiv(framed_.size(), chunk_bytes);
    std::vector<bool> held(nchunks, false);
    std::vector<uint8_t> copy;
    for (uint64_t c = 0; c < nchunks; ++c) {
        const uint64_t begin = c * chunk_bytes;
        const uint64_t end =
            std::min<uint64_t>(begin + chunk_bytes, framed_.size());
        const uint64_t first = begin / line;
        const uint64_t last = (end - 1) / line;
        bool complete = true;
        for (uint64_t l = first; l <= last; ++l) {
            if (stage_line_resumed_[l] == 0) {
                complete = false;
                break;
            }
        }
        if (!complete)
            continue;
        held[c] = true;
        copy.resize(end - begin);
        system_.mainMemory().read(updater_.slotBase(slot_) + begin,
                                  copy.data(), copy.size());
        system_.mainMemory().write(kTransportBufferBase + begin,
                                   copy.data(), copy.size());
        // Book the held range as delivered, per overlapped line; a
        // line straddling a held and a missing chunk keeps exactly
        // its missing remainder, which the retransmitted neighbour
        // chunk covers without double-counting.
        for (uint64_t l = first; l <= last; ++l) {
            const uint64_t line_begin = l * line;
            const uint64_t line_end =
                std::min<uint64_t>(line_begin + line, framed_.size());
            const uint64_t lo = std::max<uint64_t>(line_begin, begin);
            const uint64_t hi = std::min<uint64_t>(line_end, end);
            if (hi <= lo)
                continue;
            const auto covered = static_cast<uint32_t>(hi - lo);
            panic_if(line_missing_[l] < covered,
                     "journal resume double-covered a line");
            line_missing_[l] -= covered;
            line_ready_[l] = std::max(line_ready_[l], cycle);
        }
    }
    return held;
}

void
LiveInstall::setTraceSink(obs::TraceSink *sink)
{
    InstallTiming::setTraceSink(sink);
    transport_.setTraceSink(sink);
    updater_.setTrace(sink);
}

void
LiveInstall::registerMetrics(obs::MetricsRegistry &reg) const
{
    InstallTiming::registerMetrics(reg);
    reg.counterFn("install.staged_bytes",
                  [this] { return staged_bytes_; });
}

uint64_t
LiveInstall::phaseCycles(LiveInstallPhase phase) const
{
    uint64_t cycles = 0;
    for (size_t i = 0; i < kInstallSteps; ++i) {
        const auto step = static_cast<InstallStep>(i);
        if (phaseOf(step) == phase)
            cycles += stepCycles(step);
    }
    return cycles;
}

LiveInstallPhase
LiveInstall::phase() const
{
    switch (state()) {
      case State::Idle: return LiveInstallPhase::Idle;
      case State::Running: return phaseOf(step());
      case State::Done: return LiveInstallPhase::Done;
      case State::Failed: return LiveInstallPhase::Failed;
    }
    panic("unknown install state");
}

void
LiveInstall::pump(uint64_t cycle)
{
    const uint32_t line = config().line_bytes;
    for (ota::Transport::Chunk &chunk : transport_.poll(cycle)) {
        // Real bytes land in the untrusted transport buffer the
        // moment the link delivers them...
        system_.mainMemory().write(kTransportBufferBase + chunk.offset,
                                   chunk.bytes.data(),
                                   chunk.bytes.size());
        // Step-lock bookkeeping: how much of each framed line is
        // still missing, and when it became complete. The DMA
        // engine's write for a line is charged exactly once — when
        // its last byte lands — so chunk sizes that straddle line
        // boundaries do not double-count bus traffic. The writes are
        // write-buffered: off the critical path until the buffer
        // saturates, like any other master's.
        const uint64_t chunk_end = chunk.offset + chunk.bytes.size();
        for (uint64_t l = chunk.offset / line; l <= (chunk_end - 1) / line;
             ++l) {
            const uint64_t line_begin = l * line;
            const uint64_t line_end =
                std::min<uint64_t>(line_begin + line, framed_.size());
            const uint64_t begin =
                std::max<uint64_t>(line_begin, chunk.offset);
            const uint64_t end = std::min<uint64_t>(line_end, chunk_end);
            if (end <= begin)
                continue;
            const auto covered = static_cast<uint32_t>(end - begin);
            panic_if(line_missing_[l] < covered,
                     "transport delivered the same bytes twice");
            line_missing_[l] -= covered;
            line_ready_[l] = std::max(line_ready_[l], chunk.arrival_cycle);
            if (line_missing_[l] == 0) {
                system_.channel().enqueueWrite(
                    line_ready_[l], mem::Traffic::UpdateWriteback,
                    /*small=*/false, kTransportBufferBase + line_begin,
                    dma_agent_);
            }
        }
    }
}

uint64_t
LiveInstall::inputReadyAt(InstallStep step, uint64_t index) const
{
    // Admission step-locks against the network: a transport line
    // cannot be fetched before the network delivered its last byte.
    // A delta's base-slot readback lines (issued first) are always
    // resident, and re-verification reads the slot the machine
    // wrote itself.
    if (step != InstallStep::AdmissionRead ||
        index < admissionBaseLines())
        return 0;
    const uint64_t l = index - admissionBaseLines();
    if (l >= line_missing_.size())
        return 0;
    return line_missing_[l] != 0 ? sim::kNeverCycle : line_ready_[l];
}

uint64_t
LiveInstall::lineAddr(InstallStep step, uint64_t index) const
{
    const uint32_t line = config().line_bytes;
    switch (step) {
      case InstallStep::AdmissionRead: {
        // A delta admission's base-bundle readback leads: those
        // lines are already resident in the active slot, so hashing
        // them overlaps the (network-locked) delta stream instead of
        // serializing after it. The transport-stream lines follow.
        const uint64_t base_lines = admissionBaseLines();
        if (index < base_lines)
            return updater_.slotBase(updater_.activeSlot()) + index * line;
        return kTransportBufferBase + (index - base_lines) * line;
      }
      case InstallStep::StageWrite:
      case InstallStep::ReverifyRead:
        return updater_.slotBase(slot_) + index * line;
      case InstallStep::LoadWrite:
        return load_base_ + index * line;
      default:
        panic("no line address in step ", installStepName(step));
    }
}

bool
LiveInstall::skipLine(InstallStep step, uint64_t index) const
{
    // Resumed lines already sit in the slot (journaled by a previous
    // attempt): no write issued, no bytes counted.
    return step == InstallStep::StageWrite &&
           index < stage_line_resumed_.size() &&
           stage_line_resumed_[index] != 0;
}

void
LiveInstall::lineWritten(InstallStep step, uint64_t index)
{
    // The write moves the real bytes: a power cut now leaves exactly
    // the lines written so far in the slot.
    if (step != InstallStep::StageWrite)
        return;
    const std::vector<uint8_t> &payload = slotPayload();
    const uint32_t line = config().line_bytes;
    const uint64_t begin = index * line;
    if (begin >= payload.size())
        return;
    const uint64_t len =
        std::min<uint64_t>(line, payload.size() - begin);
    system_.mainMemory().write(updater_.slotBase(slot_) + begin,
                               payload.data() + begin, len);
    staged_bytes_ += len;
    // Journal granularity is the line: the chunk is durable the
    // moment its write lands, so a power cut on the next cycle
    // resumes past it.
    if (StagingJournal *journal = updater_.journal(); journal != nullptr)
        journal->markChunk(slot_, index);
}

bool
LiveInstall::renderAdmission()
{
    // The functional verdict is rendered over what the *network
    // actually delivered* into untrusted memory, not over the bundle
    // the caller handed to start(): parse the transport buffer back.
    std::vector<uint8_t> framed(framed_.size());
    system_.mainMemory().read(kTransportBufferBase, framed.data(),
                              framed.size());
    const auto bundle_bytes = unframeBundleView(framed);
    if (!bundle_bytes.has_value()) {
        admission_ = VerifyResult{UpdateStatus::MalformedBundle,
                                  "transport stream framing damaged"};
        return false;
    }
    if (!delta_mode_) {
        const auto parsed = UpdateBundle::deserialize(*bundle_bytes);
        if (!parsed.has_value()) {
            admission_ = VerifyResult{UpdateStatus::MalformedBundle,
                                      "transport stream does not parse"};
            return false;
        }
        admission_ = updater_.verify(*parsed);
        load_base_ = util::alignDown(parsed->manifest.entry_point,
                                     config().line_bytes);
        return admission_->ok();
    }
    const auto delta = DeltaBundle::deserialize(*bundle_bytes);
    if (!delta.has_value()) {
        admission_ = VerifyResult{UpdateStatus::MalformedBundle,
                                  "transport delta stream does not parse"};
        return false;
    }
    const auto rec = updater_.reconstructDelta(*delta, system_.mainMemory());
    admission_ = rec.result;
    if (!admission_->ok())
        return false; // BaseMismatch here = "request the full bundle"
    load_base_ = util::alignDown(rec.bundle->manifest.entry_point,
                                 config().line_bytes);
    framed_slot_ = frameBundle(*rec.bundle);
    // The reconstructed extent is known only now: fill in the
    // stage/reverify/load line counts the remaining steps bill, and
    // open (or resume) the journal session over the slot payload the
    // stage is about to write.
    const InstallPlan plan =
        InstallPlan::fromFramedBytes(framed_slot_.size(),
                                     rec.bundle->image.totalBytes(),
                                     config().line_bytes)
            .asDelta(framed_.size(), base_framed_bytes_,
                     config().line_bytes);
    setPlan(plan);
    markResumedLines(framed_slot_, plan.stage_lines);
    return true;
}

bool
LiveInstall::commit(InstallStep step)
{
    switch (step) {
      case InstallStep::AdmissionSig:
        // The manifest signature cleared: the functional verdict.
        updater_.setTraceCycle(cursor());
        if (renderAdmission())
            return true;
        result_ = InstallResult{admission_->status, admission_->detail,
                                compartment_, 0, updater_.activeSlot()};
        break;
      case InstallStep::StageWrite:
        // Every framed byte is in the slot: the line writes were the
        // stage. Nothing is re-verified or rewritten here — the slot
        // is the source of truth, and activation re-verifies it.
        updater_.commitStaged();
        return true;
      case InstallStep::CapsuleUnwrap:
        // The key capsule is unwrapped: the atomic functional
        // commit, the one cycle the new image becomes active.
        updater_.setTraceCycle(cursor());
        result_ = updater_.activate(compartment_, system_.mainMemory(),
                                    system_.virtualMemory(),
                                    kLiveImageAsid, system_.engine());
        if (result_->ok()) {
            activated_at_ = cursor();
            return true;
        }
        break;
      default:
        return true;
    }
    // Refused. The journal record vouches for bytes a verdict has
    // just refused, so retire it: a retry fetches and writes them
    // afresh instead of resuming over them. (A power cut is not a
    // refusal — it leaves the install Idle and the record intact.)
    if (StagingJournal *journal = updater_.journal(); journal != nullptr)
        journal->clear(slot_);
    return false;
}

} // namespace secproc::update
