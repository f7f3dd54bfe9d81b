/**
 * @file
 * Install pipeline implementation.
 */

#include "update/install_timing.hh"

#include <algorithm>
#include <string>

#include "update/update_engine.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::update
{

using util::ceilDiv;

namespace
{

/** Where the no-bytes instance's lines live (DRAM bank selection
 *  only; no install caller models DRAM banks). */
constexpr uint64_t kStagingBase = 0x4000'0000;

/** Successor in the install pipeline: the one place its order is
 *  written down. Attest is last. */
InstallStep
nextStep(InstallStep step)
{
    switch (step) {
      case InstallStep::AdmissionRead: return InstallStep::AdmissionSig;
      case InstallStep::AdmissionSig: return InstallStep::StageWrite;
      case InstallStep::StageWrite: return InstallStep::ReverifyRead;
      case InstallStep::ReverifyRead: return InstallStep::ReverifySig;
      case InstallStep::ReverifySig: return InstallStep::LoadWrite;
      case InstallStep::LoadWrite: return InstallStep::CapsuleUnwrap;
      case InstallStep::CapsuleUnwrap: return InstallStep::Attest;
      case InstallStep::Attest: break;
    }
    panic("install step has no successor");
}

bool
isRead(InstallStep step)
{
    return step == InstallStep::AdmissionRead ||
           step == InstallStep::ReverifyRead;
}

bool
isWrite(InstallStep step)
{
    return step == InstallStep::StageWrite ||
           step == InstallStep::LoadWrite;
}

/** The signature checks: every single-reservation step but the
 *  attestation quote. */
bool
isSignature(InstallStep step)
{
    return step == InstallStep::AdmissionSig ||
           step == InstallStep::ReverifySig ||
           step == InstallStep::CapsuleUnwrap;
}

} // namespace

const char *
installPacingName(InstallPacing pacing)
{
    switch (pacing) {
      case InstallPacing::Fixed: return "fixed";
      case InstallPacing::Arbiter: return "arbiter";
    }
    panic("unknown install pacing");
}

const char *
installStepName(InstallStep step)
{
    switch (step) {
      case InstallStep::AdmissionRead: return "admission_read";
      case InstallStep::AdmissionSig: return "admission_sig";
      case InstallStep::StageWrite: return "stage_write";
      case InstallStep::ReverifyRead: return "reverify_read";
      case InstallStep::ReverifySig: return "reverify_sig";
      case InstallStep::LoadWrite: return "load_write";
      case InstallStep::CapsuleUnwrap: return "capsule_unwrap";
      case InstallStep::Attest: return "attest";
    }
    panic("unknown install step");
}

InstallPlan
InstallPlan::fromFramedBytes(uint64_t framed_bytes, uint64_t image_bytes,
                             uint32_t line_bytes)
{
    InstallPlan plan;
    plan.stage_lines = ceilDiv(framed_bytes, line_bytes);
    plan.verify_lines = plan.stage_lines;
    plan.load_lines = ceilDiv(image_bytes, line_bytes);
    return plan;
}

InstallPlan
InstallPlan::fromBundle(const UpdateBundle &bundle, uint32_t line_bytes)
{
    return fromFramedBytes(kSlotHeaderBytes + bundle.serializedSize(),
                           bundle.image.totalBytes(), line_bytes);
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
InstallPlan::asDelta(uint64_t delta_framed_bytes,
                     uint64_t base_framed_bytes, uint32_t line_bytes) const
{
    InstallPlan plan = *this;
    plan.admission_lines = ceilDiv(delta_framed_bytes, line_bytes) +
                           ceilDiv(base_framed_bytes, line_bytes);
    return plan;
}

InstallTiming::InstallTiming(const InstallTimingConfig &config,
                             mem::MemoryChannel &channel,
                             crypto::CryptoEngineModel &engine)
    : InstallTiming(config, channel, engine, /*chain_signatures=*/false)
{
}

InstallTiming::InstallTiming(const InstallTimingConfig &config,
                             mem::MemoryChannel &channel,
                             crypto::CryptoEngineModel &engine,
                             bool chain_signatures)
    : config_(config), channel_(channel), engine_(engine),
      agent_(channel.registerAgent(kInstallerAgentName)),
      chain_signatures_(chain_signatures)
{
    fatal_if(config_.line_bytes == 0, "an install needs a line size");
}

void
InstallTiming::start(const InstallPlan &plan, uint64_t cycle,
                     bool repeat)
{
    fatal_if(!done(), "an install is already in flight (reset() first)");
    fatal_if(plan.admissionLines() == 0 && plan.stage_lines == 0 &&
                 plan.load_lines == 0,
             "install plan with nothing to move");
    plan_ = plan;
    repeat_ = repeat;
    state_ = State::Running;
    cursor_ = cycle;
    install_start_ = cycle;
    last_install_cycles_ = 0;
    step_cycles_.fill(0);
    enterStep(InstallStep::AdmissionRead);
}

void
InstallTiming::reset()
{
    // Drop the in-flight install. The caller owns the channel and
    // must reset it alongside (System::reset does): a request still
    // queued in the arbiter would otherwise be granted to nobody.
    if (trace_ != nullptr && !done())
        trace_->instant(trace_track_, "power_cut_reset", cursor_);
    state_ = State::Idle;
    index_ = 0;
    waiting_ = false;
    repeat_ = false;
}

uint64_t
InstallTiming::lineAddr(InstallStep, uint64_t index) const
{
    return kStagingBase + index * config_.line_bytes;
}

void
InstallTiming::setTraceSink(obs::TraceSink *sink)
{
    trace_ = sink;
    if (sink != nullptr)
        trace_track_ = sink->track("install");
}

void
InstallTiming::registerMetrics(obs::MetricsRegistry &reg) const
{
    for (size_t i = 0; i < kInstallSteps; ++i) {
        const auto step = static_cast<InstallStep>(i);
        reg.counterFn(std::string("install.") + installStepName(step) +
                          "_cycles",
                      [this, step] { return stepCycles(step); });
    }
    reg.counterFn("install.completed",
                  [this] { return installs_completed_; });
}

uint64_t
InstallTiming::stepItems(InstallStep step) const
{
    switch (step) {
      case InstallStep::AdmissionRead: return plan_.admissionLines();
      case InstallStep::StageWrite: return plan_.stage_lines;
      case InstallStep::ReverifyRead: return plan_.verify_lines;
      case InstallStep::LoadWrite: return plan_.load_lines;
      default: return 1;
    }
}

void
InstallTiming::enterStep(InstallStep step)
{
    step_ = step;
    index_ = 0;
    step_started_at_ = cursor_;
    // Fall through steps the plan leaves empty, so issueNext()
    // always has work.
    if (stepItems(step) == 0)
        completeStep();
    else if (chain_signatures_ && isSignature(step))
        issueNext();
}

void
InstallTiming::completeStep()
{
    // Close the step's span: cycles and trace duration.
    panic_if(cursor_ < step_started_at_, "install cursor ran backwards");
    step_cycles_[static_cast<size_t>(step_)] +=
        cursor_ - step_started_at_;
    if (trace_ != nullptr && cursor_ > step_started_at_) {
        trace_->duration(trace_track_, installStepName(step_),
                         step_started_at_, cursor_);
    }
    if (!commit(step_))
        finish(State::Failed);
    else if (step_ == InstallStep::Attest)
        finish(State::Done);
    else
        enterStep(nextStep(step_));
}

void
InstallTiming::finish(State terminal)
{
    last_install_cycles_ = cursor_ - install_start_;
    if (terminal == State::Done)
        ++installs_completed_;
    if (repeat_ && terminal == State::Done) {
        install_start_ = cursor_;
        enterStep(InstallStep::AdmissionRead);
        return;
    }
    state_ = terminal;
}

bool
InstallTiming::issueNext()
{
    const uint64_t items = stepItems(step_);
    if (isRead(step_)) {
        // Fetch one line and digest it: the hash unit holds the
        // engine for the whole line, it is not the pipelined pad
        // path. A line cannot be fetched before its input exists.
        const uint64_t input = inputReadyAt(step_, index_);
        if (input == sim::kNeverCycle)
            return false;
        const uint64_t ready = std::max(cursor_, input);
        if (config_.pacing == InstallPacing::Arbiter) {
            channel_.requestBackground(ready, mem::Traffic::UpdateFill,
                                       /*write=*/false, /*small=*/false,
                                       lineAddr(step_, index_), agent_);
            waiting_ = true;
            return true;
        }
        const uint64_t arrival = channel_.scheduleRead(
            ready, mem::Traffic::UpdateFill, /*small=*/false,
            lineAddr(step_, index_), agent_);
        cursor_ = engine_.reserve(arrival);
    } else if (isWrite(step_)) {
        while (index_ < items && skipLine(step_, index_))
            ++index_;
        if (index_ >= items) {
            completeStep();
            return true;
        }
        if (config_.pacing == InstallPacing::Arbiter) {
            channel_.requestBackground(cursor_,
                                       mem::Traffic::UpdateWriteback,
                                       /*write=*/true, /*small=*/false,
                                       lineAddr(step_, index_), agent_);
            waiting_ = true;
            return true;
        }
        channel_.enqueueWrite(cursor_, mem::Traffic::UpdateWriteback,
                              /*small=*/false, lineAddr(step_, index_),
                              agent_);
        lineWritten(step_, index_);
        // Streams of writes are paced at the bus transfer time of
        // one line: the source (transport DMA, loader) can produce
        // no faster than the channel can possibly drain.
        const uint32_t pace = channel_.config().transfer_cycles;
        cursor_ += pace ? pace : 1;
    } else {
        cursor_ = engine_.reserve(cursor_, step_ == InstallStep::Attest
                                               ? kAttestEngineOps
                                               : kSignatureEngineOps);
    }
    if (++index_ >= items)
        completeStep();
    return true;
}

void
InstallTiming::completeGrant(uint64_t completion)
{
    if (isRead(step_)) {
        // The granted line arrived; the digest holds the engine for
        // the whole line time, exactly as in fixed pacing.
        cursor_ = engine_.reserve(completion);
    } else {
        panic_if(!isWrite(step_),
                 "arbiter grant in a non-channel install step");
        lineWritten(step_, index_);
        cursor_ = completion;
    }
    if (++index_ >= stepItems(step_))
        completeStep();
}

uint64_t
InstallTiming::nextEventCycle(uint64_t now) const
{
    if (done())
        return sim::kNeverCycle;
    // Payload input (transport arrivals) must be pumped promptly
    // whatever else the install is doing.
    const uint64_t wake = wakeCycle();
    if (waiting_) {
        // A grant may already be parked for us (the foreground's own
        // channel activity runs the arbiter too): collect at the
        // next boundary. Otherwise the channel knows the earliest
        // cycle its arbiter state can change.
        if (channel_.backgroundGrantReady(agent_))
            return now;
        return std::min(wake, channel_.nextArbiterEventCycle());
    }
    // Blocked on input: only the payload's wake can unblock us.
    if (isRead(step_) &&
        inputReadyAt(step_, index_) == sim::kNeverCycle)
        return wake;
    // Self-paced: the next issue happens at the first boundary that
    // reaches the pipeline cursor.
    return std::min(wake, cursor_);
}

void
InstallTiming::advance(uint64_t cycle)
{
    if (done())
        return;
    pump(cycle);
    while (!done()) {
        if (waiting_) {
            const auto granted = channel_.pollBackground(agent_, cycle);
            if (!granted.has_value())
                return;
            waiting_ = false;
            completeGrant(*granted);
            continue;
        }
        if (cursor_ > cycle)
            return;
        if (!issueNext())
            return; // blocked on payload input
    }
}

uint64_t
InstallTiming::replay()
{
    fatal_if(repeat_, "replay() on a repeating install never finishes");
    fatal_if(state_ == State::Idle, "nothing to replay");
    uint64_t now = cursor_;
    while (!done()) {
        advance(now);
        if (done())
            break;
        // Idle machine: jump the clock to whatever unblocks the
        // pipeline — the next idle gap right after the bus horizon
        // (a poll there always grants), else a chunk time past the
        // cursor, which reaches both the next issue and the next
        // transport arrival.
        uint64_t next = std::max(now, cursor_);
        if (waiting_) {
            next = std::max(next, channel_.busyUntil()) +
                   channel_.config().transfer_cycles + 1;
        } else {
            next += config_.transport.cycles_per_chunk;
        }
        panic_if(next <= now, "idle replay is stuck at cycle ", now,
                 " in step ", installStepName(step_));
        now = next;
    }
    return cursor_;
}

} // namespace secproc::update
