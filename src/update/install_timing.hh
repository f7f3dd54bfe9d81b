/**
 * @file
 * Cycle-plane model of a secure software install: the one install
 * pipeline.
 *
 * The UpdateEngine (update_engine.hh) is functional-only: verify(),
 * stage() and activate() move and check real bytes but cost zero
 * simulated cycles. This pipeline replays the same flow against the
 * machine's *timing* resources — the shared MemoryChannel and the
 * shared CryptoEngineModel — so the paper-style question "what does
 * a background OTA install do to foreground slowdown?" becomes
 * answerable. Its steps (InstallStep), in order:
 *
 *  1. admission: every inbound bundle line is fetched
 *     (Traffic::UpdateFill) and digested in the crypto engine (an
 *     exclusive whole-line reservation — hashing is not the
 *     pipelined pad path), then the manifest signature check
 *     reserves the engine for several line-times;
 *  2. stage: the framed bundle streams into the inactive A/B slot
 *     through the write buffer (Traffic::UpdateWriteback);
 *  3. re-verification at activate: the staged bytes are read back
 *     and digested again (the staging area is outside the security
 *     boundary), plus another signature check;
 *  4. load: the vendor-encrypted image streams to its home region
 *     and the key capsule unwrap reserves the engine once more;
 *  5. attestation quote: one more signing reservation.
 *
 * The replay is self-paced — one transaction outstanding, the next
 * issued when its predecessor completes — and is driven by
 * System::run() through the BackgroundAgent interface, so install
 * traffic interleaves deterministically with the foreground
 * workload's fills and evictions.
 *
 * InstallTiming on its own is the no-bytes instance: it needs only a
 * channel and an engine, which is what fleet calibration and the
 * interference benches run. LiveInstall (live_install.hh) derives
 * from it and supplies a functional payload through the protected
 * hooks — transport step-lock, line addresses, per-line slot writes
 * and the functional commits — while the step order, pacing, cycle
 * accounting, tracing and idle replay stay here.
 */

#ifndef SECPROC_UPDATE_INSTALL_TIMING_HH
#define SECPROC_UPDATE_INSTALL_TIMING_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/latency.hh"
#include "mem/memory_channel.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "ota/transport.hh"
#include "sim/agent.hh"
#include "update/manifest.hh"

namespace secproc::update
{

/**
 * Resource demands of one install, in line-sized units. Derived from
 * framed sizes (or synthesized from an image size); the pipeline
 * turns it into channel transactions and engine reservations.
 */
struct InstallPlan
{
    /** Framed bundle lines written into the staging slot. */
    uint64_t stage_lines = 0;

    /** Bundle lines read back and digested per verification pass. */
    uint64_t verify_lines = 0;

    /**
     * Lines fetched + digested during admission, when different from
     * verify_lines (0 means "same as verify_lines"). A delta install
     * admits far fewer transport lines than it re-verifies: the
     * downlink carries only the delta, but admission also reads and
     * digests the base bundle out of the active slot to check the
     * manifest's base_digest before reconstruction.
     */
    uint64_t admission_lines = 0;

    /** Image lines streamed to their home region at load. */
    uint64_t load_lines = 0;

    /**
     * The demands of installing a bundle that frames to
     * @p framed_bytes (slot header included) around an image of
     * @p image_bytes: every framed line is admitted, staged and
     * re-verified, every image line loaded.
     */
    static InstallPlan fromFramedBytes(uint64_t framed_bytes,
                                       uint64_t image_bytes,
                                       uint32_t line_bytes);

    /** The exact demands of installing @p bundle. */
    static InstallPlan fromBundle(const UpdateBundle &bundle,
                                  uint32_t line_bytes);

    /** Synthetic plan for an image of @p image_bytes payload. */
    static InstallPlan fromImageBytes(uint64_t image_bytes,
                                      uint32_t line_bytes);

    /**
     * This plan shipped as a delta: admission covers the framed delta
     * stream (@p delta_framed_bytes) plus the base bundle's readback
     * (@p base_framed_bytes); staging, re-verify and load keep this
     * plan's full-bundle extents (slot-to-slot reconstruction writes
     * every line of the new image).
     */
    InstallPlan asDelta(uint64_t delta_framed_bytes,
                        uint64_t base_framed_bytes,
                        uint32_t line_bytes) const;

    /** Lines the admission pass actually touches. */
    uint64_t
    admissionLines() const
    {
        return admission_lines != 0 ? admission_lines : verify_lines;
    }
};

/**
 * How install transactions reach the shared channel.
 */
enum class InstallPacing
{
    /**
     * Issue immediately against the bus horizon; write streams are
     * paced at the bus transfer time (the install takes bandwidth
     * whenever its own pipeline is ready).
     */
    Fixed,

    /**
     * Queue every transaction through the channel's
     * foreground-priority arbiter and only proceed on grant: the
     * install self-throttles into bus idle time, bounded below by
     * the channel's starvation bound.
     */
    Arbiter,
};

/** Short name for bench labels ("fixed" / "arbiter"). */
const char *installPacingName(InstallPacing pacing);

/** The install pipeline's steps, in pipeline order. */
enum class InstallStep : uint8_t
{
    AdmissionRead,  ///< fetch + digest the inbound bundle's lines
    AdmissionSig,   ///< manifest signature check
    StageWrite,     ///< stream the framed bundle into the slot
    ReverifyRead,   ///< fetch + digest the staged lines (activate)
    ReverifySig,    ///< staged manifest signature re-check
    LoadWrite,      ///< stream image lines to their home region
    CapsuleUnwrap,  ///< RSA key-capsule unwrap
    Attest,         ///< attestation quote signature
};

/** Number of InstallStep values. */
inline constexpr size_t kInstallSteps = 8;

/** Short step name for traces and metrics ("admission_read", ...). */
const char *installStepName(InstallStep step);

/**
 * Crypto-engine reservation, in whole-line operation times, of one
 * RSA signature check or key capsule unwrap. A dedicated big-number
 * unit would shrink this; the paper's machine has only the one line
 * engine.
 */
inline constexpr uint32_t kSignatureEngineOps = 16;

/** Engine reservation for signing one attestation quote. */
inline constexpr uint32_t kAttestEngineOps = 16;

/** Channel-agent name an install's own transactions carry. */
inline constexpr const char *kInstallerAgentName = "installer";

/** Knobs of an install. */
struct InstallTimingConfig
{
    /** L2 line size; one channel transaction per line. */
    uint32_t line_bytes = 128;

    /** How transactions contend with the foreground. */
    InstallPacing pacing = InstallPacing::Fixed;

    /**
     * Downlink the inbound bundle streams over (a LiveInstall's
     * payload); its chunk time also sets the idle replay's clock
     * step.
     */
    ota::TransportConfig transport;
};

/**
 * The install pipeline, run as a self-paced background agent
 * against a machine's shared channel and crypto engine.
 */
class InstallTiming : public sim::BackgroundAgent
{
  public:
    /**
     * The no-bytes pipeline. Registers the installer's channel agent
     * for attribution.
     *
     * @param channel The machine's memory channel.
     * @param engine The machine's shared crypto engine.
     */
    InstallTiming(const InstallTimingConfig &config,
                  mem::MemoryChannel &channel,
                  crypto::CryptoEngineModel &engine);

    /**
     * Begin replaying @p plan at @p cycle. With @p repeat, a new
     * install of the same plan starts as soon as one completes
     * (continuous OTA pressure; steady-state interference).
     */
    void start(const InstallPlan &plan, uint64_t cycle,
               bool repeat = false);

    // BackgroundAgent interface.
    void advance(uint64_t cycle) override;
    bool done() const override { return state_ != State::Running; }
    uint64_t nextEventCycle(uint64_t now) const override;

    /**
     * Power cut / machine reset: abandon the install in flight; no
     * further work is issued. Pair with System::reset(), which drops
     * the channel-side queued request and calls this hook.
     */
    void reset() override;

    /**
     * Run the current install to completion regardless of the core
     * clock (idle-machine replay). @return the cycle it finished (or
     * failed). Must not be called on a repeating replay — it would
     * never finish.
     */
    uint64_t replay();

    /** Installs fully replayed so far. */
    uint64_t installsCompleted() const { return installs_completed_; }

    /** Duration of the most recently finished install (0 while the
     *  first install since start() is in flight). */
    uint64_t lastInstallCycles() const { return last_install_cycles_; }

    /** Cycles spent in @p step since start(). */
    uint64_t
    stepCycles(InstallStep step) const
    {
        return step_cycles_[static_cast<size_t>(step)];
    }

    /** Channel agent this install's own traffic is attributed to. */
    mem::AgentId agent() const { return agent_; }

    /**
     * Trace the install onto @p sink (nullptr detaches): an "install"
     * track carries one span per step plus a power-cut instant.
     * Inherited from System::setTraceSink when attached.
     */
    void setTraceSink(obs::TraceSink *sink) override;

    /**
     * Register the install.* family with @p reg: per-step cycle
     * accounting ("install.<step>_cycles") and completed installs.
     */
    virtual void registerMetrics(obs::MetricsRegistry &reg) const;

  protected:
    /** Where the pipeline stands. */
    enum class State : uint8_t
    {
        Idle,    ///< nothing started, or reset mid-install
        Running, ///< a step is in flight
        Done,    ///< the last install completed
        Failed,  ///< a commit refused the last install
    };

    /**
     * Payload constructor. With @p chain_signatures each signature
     * step (AdmissionSig, ReverifySig, CapsuleUnwrap) books the
     * engine the moment the stream it authenticates drains —
     * back-to-back with the last digest or write, as a device that
     * renders its verdict on the spot does — instead of re-arbitrating
     * at the next boundary the cursor reaches.
     */
    InstallTiming(const InstallTimingConfig &config,
                  mem::MemoryChannel &channel,
                  crypto::CryptoEngineModel &engine,
                  bool chain_signatures);

    /** @name Payload hooks (the no-bytes instance's defaults). @{ */

    /** Land input that arrived by @p cycle; first thing advance()
     *  does. */
    virtual void pump(uint64_t) {}

    /** Earliest cycle pump() has work (sim::kNeverCycle: none). */
    virtual uint64_t wakeCycle() const { return sim::kNeverCycle; }

    /** Cycle line @p index of read step @p step has its input, or
     *  sim::kNeverCycle while it has not been delivered yet. */
    virtual uint64_t inputReadyAt(InstallStep, uint64_t) const
    {
        return 0;
    }

    /** Address of line @p index of streaming step @p step. */
    virtual uint64_t lineAddr(InstallStep step, uint64_t index) const;

    /** True if write @p index of @p step is already in place and
     *  issues nothing. */
    virtual bool skipLine(InstallStep, uint64_t) const { return false; }

    /** Write @p index of @p step moved its line (issued under Fixed
     *  pacing, granted under Arbiter). */
    virtual void lineWritten(InstallStep, uint64_t) {}

    /** @p step drained at cursor(); false refuses the install, which
     *  ends Failed. */
    virtual bool commit(InstallStep) { return true; }

    /** @} */

    State state() const { return state_; }
    InstallStep step() const { return step_; }
    uint64_t cursor() const { return cursor_; }
    const InstallTimingConfig &config() const { return config_; }

    /** Replace the plan mid-install (a delta learns its
     *  reconstructed extents only at admission). */
    void setPlan(const InstallPlan &plan) { plan_ = plan; }

  private:
    InstallTimingConfig config_;
    mem::MemoryChannel &channel_;
    crypto::CryptoEngineModel &engine_;
    mem::AgentId agent_;
    bool chain_signatures_;

    InstallPlan plan_;
    bool repeat_ = false;
    State state_ = State::Idle;
    InstallStep step_ = InstallStep::AdmissionRead;
    uint64_t index_ = 0;  ///< items issued in the current step
    uint64_t cursor_ = 0; ///< completion cycle of the last action
    /** Arbiter pacing: a channel request is in flight. */
    bool waiting_ = false;
    uint64_t install_start_ = 0;
    uint64_t installs_completed_ = 0;
    uint64_t last_install_cycles_ = 0;

    /** Cycle the current step was entered (span start). */
    uint64_t step_started_at_ = 0;
    std::array<uint64_t, kInstallSteps> step_cycles_{};

    obs::TraceSink *trace_ = nullptr;
    obs::TrackId trace_track_ = 0;

    /** How many items the plan puts in @p step. */
    uint64_t stepItems(InstallStep step) const;

    /** Issue the current step's next item; false when blocked on
     *  payload input. */
    bool issueNext();

    /** Arbiter pacing: fold a granted transaction's completion into
     *  the pipeline (reads chain into a digest reservation). */
    void completeGrant(uint64_t completion);

    void enterStep(InstallStep step);
    void completeStep();
    void finish(State terminal);
};

} // namespace secproc::update

#endif // SECPROC_UPDATE_INSTALL_TIMING_HH
