/**
 * @file
 * Unified-plane secure install: one agent, real bytes AND real
 * cycles.
 *
 * The functional UpdateEngine proves *correctness* (verify → stage →
 * re-verify → activate over real bytes, zero cycles) and the install
 * pipeline (install_timing.hh) replays *cycles* (channel transactions
 * and engine reservations). LiveInstall is that pipeline with a
 * functional payload: it derives from InstallTiming and supplies
 * only what bytes add — the transport, the addresses the lines live
 * at, the slot writes and the functional commits — so a single
 * System::run() advances both planes together and the A/B slot
 * contents are checkable at any cycle:
 *
 *  1. transport: the framed bundle arrives as a lossy chunk stream
 *     (ota::Transport — bandwidth cap, burst loss, reordering,
 *     retransmits). Each arrived chunk lands its real bytes in the
 *     untrusted transport buffer and is accounted as DMA write
 *     traffic on the channel;
 *  2. admission: each transport-buffer line is fetched and digested
 *     step-locked to the network — a line cannot be read before the
 *     network delivered it. Once the signature check clears, the
 *     bundle is parsed *from the transport buffer bytes* and
 *     UpdateEngine::verify() renders the functional admission
 *     verdict; a refusal ends the install with no state change;
 *  3. stage: the framed bundle streams into the inactive A/B slot —
 *     each write moves that line's real bytes, so a power cut
 *     mid-stage leaves a genuinely torn slot for activation to
 *     refuse. The line writes are the stage: at completion
 *     UpdateEngine::commitStaged() marks the slot staged, with no
 *     re-verify and no rewrite, so bytes damaged after their write
 *     reach activation's re-verify as they are;
 *  4. re-verify + load + capsule unwrap: the staged lines are read
 *     back and digested, the image streams to its home region, the
 *     key capsule unwrap reserves the engine; then
 *     UpdateEngine::activate() atomically flips the slot, commits
 *     the rollback counter and loads the image — the single cycle
 *     at which the new image becomes the active one;
 *  5. attestation quote (timing only): one more signing reservation.
 *
 * Self-pacing: with InstallPacing::Arbiter every channel transaction
 * queues in the MemoryChannel's foreground-priority arbiter, so the
 * install throttles itself into bus idle time instead of taxing the
 * foreground at a fixed rate.
 */

#ifndef SECPROC_UPDATE_LIVE_INSTALL_HH
#define SECPROC_UPDATE_LIVE_INSTALL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "ota/transport.hh"
#include "sim/system.hh"
#include "update/delta.hh"
#include "update/install_timing.hh"
#include "update/manifest.hh"
#include "update/update_engine.hh"
#include "util/bitops.hh"

namespace secproc::update
{

/** Knobs of a live install: the pipeline's (line size, pacing,
 *  downlink). */
using LiveInstallConfig = InstallTimingConfig;

/** Untrusted buffer the OTA stream lands in (disjoint from the A/B
 *  staging area). */
inline constexpr uint64_t kTransportBufferBase = 0x6000'0000;

/** ASID a live install loads the activated image under. */
inline constexpr mem::Asid kLiveImageAsid = 1;

/** Where a live install currently stands. */
enum class LiveInstallPhase
{
    Idle,          ///< nothing started, or reset mid-install
    Admission,     ///< transport + per-line fetch/digest + verify
    Stage,         ///< framed bundle streaming into the A/B slot
    Reverify,      ///< staged lines re-read and re-digested
    Load,          ///< image streaming to its home region
    Attest,        ///< attestation quote reservation
    Done,          ///< activated; result() holds the outcome
    Failed,        ///< refused (admission/activate); see result
};

/** Short phase name for logs and reports. */
const char *liveInstallPhaseName(LiveInstallPhase phase);

/**
 * Drives one functional UpdateEngine install step-locked to the
 * cycle plane of a System. Not owned by the System: attach with
 * System::attachAgent and keep it alive across the runs it paces.
 */
class LiveInstall : public InstallTiming
{
  public:
    /**
     * @param system The machine whose channel, crypto engine, memory
     *        and protection engine the install runs against.
     * @param updater The functional update engine (its staging
     *        geometry addresses the slot writes).
     * @param compartment Compartment the image activates into.
     */
    LiveInstall(const LiveInstallConfig &config, sim::System &system,
                UpdateEngine &updater,
                secure::CompartmentId compartment);

    /**
     * Begin installing @p bundle at @p cycle: the framed bundle
     * starts streaming through the transport model immediately.
     * When the UpdateEngine carries a StagingJournal and its record
     * for the target slot matches this payload, the install resumes:
     * transport chunks whose bytes were already staged before a
     * power cut are NACKed away (never re-downloaded) and their slot
     * writes are skipped, so stagedBytesWritten() covers only the
     * lines the cut had not reached.
     */
    void start(const UpdateBundle &bundle, uint64_t cycle);

    /**
     * Begin a *delta* install at @p cycle: the framed delta bundle —
     * typically a small fraction of the full bundle — streams through
     * the transport model. Admission fetches the delta stream AND
     * reads the base bundle back out of the active slot (both paid on
     * the channel), then UpdateEngine::reconstructDelta() renders the
     * verdict: a BaseMismatch fails the install so the caller can
     * fall back to requesting the full bundle; on success the
     * reconstructed full bundle stages exactly like start()'s,
     * re-verified line by line. A journal record matching the
     * reconstructed payload resumes the stage writes the same way.
     */
    void startDelta(const DeltaBundle &delta, uint64_t cycle);

    /**
     * Trace the install onto @p sink (nullptr detaches): the
     * pipeline's "install" track, the transport's "ota" track and
     * the functional engine's security-decision instants. Inherited
     * automatically from System::setTraceSink when attached.
     */
    void setTraceSink(obs::TraceSink *sink) override;

    /** The install.* family plus "install.staged_bytes". */
    void registerMetrics(obs::MetricsRegistry &reg) const override;

    /** Cycles spent in @p phase (the sum of its steps) across this
     *  install so far. */
    uint64_t phaseCycles(LiveInstallPhase phase) const;

    /** Current phase. */
    LiveInstallPhase phase() const;

    /** Functional admission verdict, once rendered. */
    const std::optional<VerifyResult> &admission() const
    {
        return admission_;
    }

    /** Functional activation outcome, once rendered. */
    const std::optional<InstallResult> &result() const
    {
        return result_;
    }

    /** Cycle activate() committed the new image (Done only). */
    uint64_t activatedAt() const { return activated_at_; }

    /** Cycles from start() to Done/Failed. */
    uint64_t installCycles() const { return lastInstallCycles(); }

    /** Framed-bundle bytes functionally written to the slot so far. */
    uint64_t stagedBytesWritten() const { return staged_bytes_; }

    /** Transport stream statistics. */
    const ota::Transport &transport() const { return transport_; }

    /** Channel agent the transport DMA's writes are attributed to. */
    mem::AgentId dmaAgent() const { return dma_agent_; }

  private:
    // The payload the pipeline runs on.
    void pump(uint64_t cycle) override;
    uint64_t wakeCycle() const override
    {
        return transport_.nextArrivalCycle();
    }
    uint64_t inputReadyAt(InstallStep step,
                          uint64_t index) const override;
    uint64_t lineAddr(InstallStep step, uint64_t index) const override;
    bool skipLine(InstallStep step, uint64_t index) const override;
    void lineWritten(InstallStep step, uint64_t index) override;
    bool commit(InstallStep step) override;

    sim::System &system_;
    UpdateEngine &updater_;
    secure::CompartmentId compartment_;
    ota::Transport transport_;
    mem::AgentId dma_agent_;

    std::vector<uint8_t> framed_;  ///< transport stream: magic|len|bytes
    /** Bytes the Stage phase writes into the slot. For a full
     *  install this is framed_ itself; for a delta it is the framed
     *  *reconstructed* bundle, known only once admission
     *  reconstructs it (empty until then). */
    std::vector<uint8_t> framed_slot_;
    bool delta_mode_ = false;      ///< startDelta() drove this install
    /** Framed extent of the base bundle in the active slot (delta
     *  admission readback cost; 0 when the header is unreadable). */
    uint64_t base_framed_bytes_ = 0;
    uint32_t slot_ = 0;            ///< slot this install stages into
    /** Undelivered bytes per *transport* line (network step-lock);
     *  sized by the transport stream, not the slot payload. */
    std::vector<uint32_t> line_missing_;
    /** Cycle each transport line became fully delivered. */
    std::vector<uint64_t> line_ready_;
    /** Slot lines the journal proved already staged (resume): their
     *  Stage writes are skipped and stagedBytesWritten() excludes
     *  them. */
    std::vector<uint8_t> stage_line_resumed_;
    /** Where the image streams at load: its entry point, line
     *  aligned (anchors bank selection); set by admission. */
    uint64_t load_base_ = 0;
    uint64_t staged_bytes_ = 0;

    std::optional<VerifyResult> admission_;
    std::optional<InstallResult> result_;
    uint64_t activated_at_ = 0;

    /** The admission verdict (and, for a delta, the re-plan over the
     *  reconstructed bundle); false refuses the install. */
    bool renderAdmission();

    /** Shared tail of start()/startDelta(): overlap check, transport
     *  line bookkeeping, journal resume, transport send, then the
     *  pipeline's start. Expects framed_/delta_mode_ set. */
    void begin(const InstallPlan &plan, uint64_t cycle);

    /** The bytes the Stage phase writes (framed_ or framed_slot_). */
    const std::vector<uint8_t> &slotPayload() const
    {
        return delta_mode_ ? framed_slot_ : framed_;
    }

    /** Admission lines read back from the active slot (a delta's
     *  base bundle; 0 for a full install). Issued before the
     *  network-locked transport lines so they overlap the download. */
    uint64_t admissionBaseLines() const
    {
        return util::ceilDiv(base_framed_bytes_, config().line_bytes);
    }

    /** Mark the slot lines @p payload's journal record proves
     *  staged (stage_line_resumed_, sized @p stage_lines); false for
     *  a fresh session. */
    bool markResumedLines(const std::vector<uint8_t> &payload,
                          uint64_t stage_lines);

    /** Journal-driven resume: mark resumed slot lines, pre-fill the
     *  transport buffer from the slot, and return the held-chunk map
     *  for the resume-aware transport send. */
    std::vector<bool> resumeFromJournal(uint64_t stage_lines,
                                        uint64_t cycle);
};

} // namespace secproc::update

#endif // SECPROC_UPDATE_LIVE_INSTALL_HH
