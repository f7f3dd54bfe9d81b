/**
 * @file
 * Install replay implementation.
 */

#include "update/install_timing.hh"

#include <algorithm>

#include "update/update_engine.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::update
{

using util::ceilDiv;

const char *
installPacingName(InstallPacing pacing)
{
    switch (pacing) {
      case InstallPacing::Fixed: return "fixed";
      case InstallPacing::Arbiter: return "arbiter";
    }
    panic("unknown install pacing");
}

InstallPlan
InstallPlan::fromBundle(const UpdateBundle &bundle, uint32_t line_bytes)
{
    InstallPlan plan;
    const uint64_t bundle_bytes = bundle.serialize().size();
    plan.stage_lines =
        ceilDiv(kSlotHeaderBytes + bundle_bytes, line_bytes);
    plan.verify_lines = plan.stage_lines;
    plan.load_lines = ceilDiv(bundle.image.totalBytes(), line_bytes);
    return plan;
}

InstallPlan
InstallPlan::fromImageBytes(uint64_t image_bytes, uint32_t line_bytes)
{
    InstallPlan plan;
    // Manifest + signature framing is small next to the image; one
    // line covers it for any realistic bundle.
    plan.stage_lines = 1 + ceilDiv(image_bytes, line_bytes);
    plan.verify_lines = plan.stage_lines;
    plan.load_lines = ceilDiv(image_bytes, line_bytes);
    return plan;
}

InstallPlan
InstallPlan::fromDelta(const DeltaBundle &delta,
                       const UpdateBundle &reconstructed,
                       uint64_t base_framed_bytes, uint32_t line_bytes)
{
    InstallPlan plan = fromBundle(reconstructed, line_bytes);
    plan.admission_lines =
        ceilDiv(kSlotHeaderBytes + delta.serializedSize(),
                line_bytes) +
        ceilDiv(base_framed_bytes, line_bytes);
    return plan;
}

InstallTiming::InstallTiming(const InstallTimingConfig &config,
                             mem::MemoryChannel &channel,
                             crypto::CryptoEngineModel &engine)
    : config_(config), channel_(channel), engine_(engine),
      agent_(channel.registerAgent(config.agent_name))
{
    fatal_if(config_.line_bytes == 0, "install replay needs a line size");
}

void
InstallTiming::start(const InstallPlan &plan, uint64_t cycle,
                     bool repeat)
{
    fatal_if(plan.stage_lines == 0 && plan.load_lines == 0,
             "install plan with nothing to move");
    fatal_if(waiting_, "start() with a channel request in flight "
             "(reset() first)");
    plan_ = plan;
    repeat_ = repeat;
    cursor_ = cycle;
    install_start_ = cycle;
    enterPhase(Phase::AdmissionRead);
}

void
InstallTiming::reset()
{
    // Drop the in-flight install. The caller owns the channel and
    // must reset it alongside (System::reset does): a request still
    // queued in the arbiter would otherwise be granted to nobody.
    phase_ = Phase::Idle;
    phase_index_ = 0;
    waiting_ = false;
    repeat_ = false;
}

uint64_t
InstallTiming::lineAddr(uint64_t index) const
{
    return config_.staging_base + index * config_.line_bytes;
}

uint32_t
InstallTiming::writePaceCycles() const
{
    // Streams of writes are paced at the bus transfer time of one
    // line: the source (transport DMA, loader) can produce no faster
    // than the channel can possibly drain.
    const uint32_t pace = channel_.config().transfer_cycles;
    return pace ? pace : 1;
}

InstallTiming::Phase
InstallTiming::nextPhase(Phase phase)
{
    // The one place the install pipeline's order is written down.
    switch (phase) {
      case Phase::AdmissionRead: return Phase::AdmissionSig;
      case Phase::AdmissionSig: return Phase::StageWrite;
      case Phase::StageWrite: return Phase::ReverifyRead;
      case Phase::ReverifyRead: return Phase::ReverifySig;
      case Phase::ReverifySig: return Phase::LoadWrite;
      case Phase::LoadWrite: return Phase::CapsuleUnwrap;
      case Phase::CapsuleUnwrap: return Phase::Attest;
      case Phase::Attest:
      case Phase::Idle:
        break;
    }
    panic("install phase has no successor");
}

uint64_t
InstallTiming::phaseItems(Phase phase) const
{
    switch (phase) {
      case Phase::AdmissionRead:
        return plan_.admissionLines();
      case Phase::ReverifyRead:
        return plan_.verify_lines;
      case Phase::StageWrite:
        return plan_.stage_lines;
      case Phase::LoadWrite:
        return plan_.load_lines;
      case Phase::AdmissionSig:
      case Phase::ReverifySig:
      case Phase::CapsuleUnwrap:
        return config_.signature_engine_ops != 0 ? 1 : 0;
      case Phase::Attest:
        return plan_.attest && config_.attest_engine_ops != 0 ? 1 : 0;
      case Phase::Idle:
        break;
    }
    return 0;
}

const char *
InstallTiming::phaseName(Phase phase)
{
    switch (phase) {
      case Phase::AdmissionRead: return "admission_read";
      case Phase::AdmissionSig: return "admission_sig";
      case Phase::StageWrite: return "stage_write";
      case Phase::ReverifyRead: return "reverify_read";
      case Phase::ReverifySig: return "reverify_sig";
      case Phase::LoadWrite: return "load_write";
      case Phase::CapsuleUnwrap: return "capsule_unwrap";
      case Phase::Attest: return "attest";
      case Phase::Idle: return "idle";
    }
    panic("unknown install phase");
}

void
InstallTiming::setTraceSink(obs::TraceSink *sink)
{
    trace_ = sink;
    if (sink != nullptr)
        trace_track_ = sink->track(config_.agent_name);
}

void
InstallTiming::registerMetrics(obs::MetricsRegistry &reg) const
{
    static constexpr Phase kAccounted[] = {
        Phase::AdmissionRead, Phase::AdmissionSig, Phase::StageWrite,
        Phase::ReverifyRead,  Phase::ReverifySig,  Phase::LoadWrite,
        Phase::CapsuleUnwrap, Phase::Attest,
    };
    for (const Phase phase : kAccounted) {
        reg.counterFn(std::string("updater.phase.") + phaseName(phase) +
                          "_cycles",
                      [this, phase] {
                          return phase_cycles_[static_cast<size_t>(
                              phase)];
                      });
    }
    reg.counterFn("updater.installs_completed",
                  [this] { return installs_completed_; });
}

void
InstallTiming::closePhaseSpan()
{
    if (phase_ == Phase::Idle || cursor_ < phase_started_at_)
        return;
    phase_cycles_[static_cast<size_t>(phase_)] +=
        cursor_ - phase_started_at_;
    if (trace_ != nullptr && cursor_ > phase_started_at_) {
        trace_->duration(trace_track_, phaseName(phase_),
                         phase_started_at_, cursor_);
    }
}

void
InstallTiming::completePhase()
{
    if (phase_ == Phase::Attest)
        finishInstall();
    else
        enterPhase(nextPhase(phase_));
}

void
InstallTiming::enterPhase(Phase phase)
{
    closePhaseSpan();
    phase_ = phase;
    phase_index_ = 0;
    phase_started_at_ = cursor_;
    // Fall through phases the plan or config leaves empty, so
    // issueNext() always has work.
    if (phase_ != Phase::Idle && phaseItems(phase_) == 0)
        completePhase();
}

void
InstallTiming::finishInstall()
{
    closePhaseSpan();
    // The span just closed; rebase so the repeat path's enterPhase
    // (which closes again) accumulates zero, not a duplicate.
    phase_started_at_ = cursor_;
    ++installs_completed_;
    last_install_cycles_ = cursor_ - install_start_;
    if (repeat_) {
        install_start_ = cursor_;
        enterPhase(Phase::AdmissionRead);
    } else {
        phase_ = Phase::Idle;
    }
}

void
InstallTiming::issueNext()
{
    switch (phase_) {
      case Phase::AdmissionRead:
      case Phase::ReverifyRead: {
        if (config_.pacing == InstallPacing::Arbiter) {
            channel_.requestBackground(cursor_,
                                       mem::Traffic::UpdateFill,
                                       /*write=*/false,
                                       /*small=*/false,
                                       lineAddr(phase_index_), agent_);
            waiting_ = true;
            return;
        }
        // Fetch one staged/transport line and digest it: the hash
        // unit holds the engine for the whole line, it is not the
        // pipelined pad path.
        const uint64_t arrival = channel_.scheduleRead(
            cursor_, mem::Traffic::UpdateFill, /*small=*/false,
            lineAddr(phase_index_), agent_);
        cursor_ = engine_.reserve(arrival);
        if (++phase_index_ >= phaseItems(phase_))
            completePhase();
        return;
      }
      case Phase::AdmissionSig:
      case Phase::ReverifySig:
      case Phase::CapsuleUnwrap: {
        cursor_ = engine_.reserve(cursor_,
                                  config_.signature_engine_ops);
        completePhase();
        return;
      }
      case Phase::StageWrite:
      case Phase::LoadWrite: {
        if (config_.pacing == InstallPacing::Arbiter) {
            channel_.requestBackground(cursor_,
                                       mem::Traffic::UpdateWriteback,
                                       /*write=*/true,
                                       /*small=*/false,
                                       lineAddr(phase_index_), agent_);
            waiting_ = true;
            return;
        }
        channel_.enqueueWrite(cursor_, mem::Traffic::UpdateWriteback,
                              /*small=*/false, lineAddr(phase_index_),
                              agent_);
        cursor_ += writePaceCycles();
        if (++phase_index_ >= phaseItems(phase_))
            completePhase();
        return;
      }
      case Phase::Attest: {
        cursor_ = engine_.reserve(cursor_, config_.attest_engine_ops);
        completePhase();
        return;
      }
      case Phase::Idle:
        return;
    }
}

void
InstallTiming::completeGrant(uint64_t completion)
{
    switch (phase_) {
      case Phase::AdmissionRead:
      case Phase::ReverifyRead:
        // The granted line arrived; the digest holds the engine for
        // the whole line time, exactly as in fixed pacing.
        cursor_ = engine_.reserve(completion);
        break;
      case Phase::StageWrite:
      case Phase::LoadWrite:
        cursor_ = completion;
        break;
      default:
        panic("arbiter grant in a non-channel install phase");
    }
    if (++phase_index_ >= phaseItems(phase_))
        completePhase();
}

uint64_t
InstallTiming::nextEventCycle(uint64_t now) const
{
    if (phase_ == Phase::Idle)
        return sim::kNeverCycle;
    if (waiting_) {
        // A grant may already be parked for us (the foreground's own
        // channel activity runs the arbiter too): collect at the
        // next boundary. Otherwise the channel knows the earliest
        // cycle its arbiter state can change.
        if (channel_.backgroundGrantReady(agent_))
            return now;
        return channel_.nextArbiterEventCycle();
    }
    // Self-paced: the next issue happens at the first boundary that
    // reaches the pipeline cursor.
    return cursor_;
}

void
InstallTiming::advance(uint64_t cycle)
{
    while (phase_ != Phase::Idle) {
        if (waiting_) {
            const auto done = channel_.pollBackground(agent_, cycle);
            if (!done.has_value())
                return;
            waiting_ = false;
            completeGrant(*done);
            continue;
        }
        if (cursor_ > cycle)
            return;
        issueNext();
    }
}

uint64_t
InstallTiming::replay()
{
    fatal_if(repeat_, "replay() on a repeating install never finishes");
    const uint64_t target = installs_completed_ + 1;
    while (phase_ != Phase::Idle && installs_completed_ < target) {
        if (waiting_) {
            // Idle machine: the next idle gap is right after the
            // current bus horizon, so a poll just past it always
            // grants.
            const uint64_t horizon =
                std::max(cursor_, channel_.busyUntil()) +
                channel_.config().transfer_cycles + 1;
            const auto done = channel_.pollBackground(agent_, horizon);
            panic_if(!done.has_value(),
                     "idle-machine replay failed to grant");
            waiting_ = false;
            completeGrant(*done);
            continue;
        }
        issueNext();
    }
    return cursor_;
}

} // namespace secproc::update
