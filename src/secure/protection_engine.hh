/**
 * @file
 * Protection engine interface: the policy that guards the L2-memory
 * boundary.
 *
 * Three implementations reproduce the paper's three machines:
 *  - BaselineEngine: insecure processor, plain fills and write-backs;
 *  - XomEngine: direct line encryption on the critical path
 *    (fill latency = memory + crypto);
 *  - OtpEngine: one-time-pad encryption with a Sequence Number
 *    Cache (fill latency = max(memory, crypto) + 1 on the fast path).
 *
 * Every boundary event is split into three phases so the timing and
 * functional planes can never diverge:
 *  1. plan (planFill / planEvict): the single point that advances
 *     security state — SNC lookups and installs, sequence-number
 *     increments, spill bookkeeping;
 *  2. schedule (scheduleFill / scheduleEvict): timing against the
 *     shared MemoryChannel and CryptoEngineModel;
 *  3. apply (applyFill / applyEvict): pure byte transforms for
 *     functional runs, parameterized only by the plan.
 * Callers may use any subset: benches run plan+schedule, functional
 * tests run plan+apply, full-system examples run all three.
 */

#ifndef SECPROC_SECURE_PROTECTION_ENGINE_HH
#define SECPROC_SECURE_PROTECTION_ENGINE_HH

#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "crypto/latency.hh"
#include "mem/memory_channel.hh"
#include "mem/virtual_memory.hh"
#include "secure/key_table.hh"
#include "secure/snc.hh"
#include "util/radix_array.hh"
#include "util/stats.hh"

namespace secproc::obs
{
class MetricsRegistry;
}

namespace secproc::secure
{

/** Which machine guards the memory boundary. */
enum class SecurityModel
{
    Baseline,
    Xom,
    OtpSnc,
};

/** How a line's image in untrusted memory is encrypted. */
enum class LineCipherState : uint8_t
{
    /** Never written back: fills are plain (OS zero-fill). */
    Unwritten,
    /** XOM-style direct (ECB) encryption. */
    Direct,
    /** One-time pad with a per-line sequence number. */
    Otp,
    /** No encryption: plaintext region (inputs, shared libraries). */
    Plain,
};

/** Options shared by all engines. */
struct ProtectionConfig
{
    SecurityModel model = SecurityModel::OtpSnc;

    /** Crypto engine timing (50-cycle default; 102 in Figure 10). */
    crypto::CryptoEngineConfig crypto;

    /** SNC geometry (OtpSnc only). */
    SncConfig snc;

    /**
     * On an SNC query miss, issue the line fetch concurrently with
     * the sequence-number fetch (true) or only after the sequence
     * number is decrypted, as written in the paper's Algorithm 1
     * (false). Ablation A1.
     */
    bool parallel_seqnum_fetch = false;

    /**
     * Sequential pad prediction (extension, ablation A11): after a
     * fast-path fill of line X, pre-generate the pad for line X+1
     * in the (pipelined, mostly idle) crypto engine when X+1's
     * sequence number is already on chip. Pads are deterministic
     * per (line, seqnum), so a speculative pad is *the* pad — the
     * prediction can only waste engine slots, never correctness.
     * Closes the fast path's residual max(mem, crypto) + 1 cost
     * when memory is faster than the crypto engine.
     */
    bool pad_prediction = false;

    /** Predicted pads held on chip (pad buffer entries). */
    uint32_t pad_buffer_entries = 32;

    /** L2 line size in bytes. */
    uint32_t line_size = 128;

    auto operator<=>(const ProtectionConfig &) const = default;
};

/** State-advance record for one line fill. */
struct FillPlan
{
    uint64_t line_va = 0;
    /** How the memory image of this line is encrypted. */
    LineCipherState state = LineCipherState::Unwritten;
    /** Sequence number the OTP image was produced with. */
    uint32_t seqnum = 0;
    bool ifetch = false;
    /** OTP only: the sequence number missed in the SNC. */
    bool snc_query_miss = false;
    /** OTP+LRU only: installing the entry spilled an SNC victim. */
    bool victim_spilled = false;
};

/** State-advance record for one dirty eviction. */
struct EvictPlan
{
    uint64_t line_va = 0;
    /** Encryption chosen for the outgoing image. */
    LineCipherState state = LineCipherState::Direct;
    /** Sequence number used (already incremented). */
    uint32_t seqnum = 0;
    /** OTP only: the update missed in the SNC. */
    bool snc_update_miss = false;
    /** OTP+LRU only: an SNC victim entry spills to memory. */
    bool victim_spilled = false;
    /** OTP+LRU only: the old seqnum had to be fetched from memory. */
    bool seqnum_fetched = false;
};

/** Per-line callback of ProtectionEngine::warmRun. */
using WarmVisit = std::function<void(const EvictPlan &)>;

/** Timing outcome of a line fill. */
struct FillResult
{
    /** Cycle the plaintext line is ready for the L2. */
    uint64_t ready_cycle = 0;
    /** The OTP fast path was used (pad overlapped the fetch). */
    bool fast_path = false;
    /** An SNC query miss added a seqnum fetch to the critical path. */
    bool snc_query_miss = false;
};

/**
 * Abstract engine at the L2-memory boundary.
 */
class ProtectionEngine
{
  public:
    /**
     * @param config Engine options.
     * @param channel Shared memory channel (timing + traffic).
     * @param keys Compartment key table (functional plane).
     * @param shared_crypto The machine's crypto engine when it is
     *        shared with other agents (the System owns one that an
     *        OTA install also reserves against); nullptr makes the
     *        protection engine own a private model, which times
     *        identically as long as it is the only client.
     */
    ProtectionEngine(const ProtectionConfig &config,
                     mem::MemoryChannel &channel, const KeyTable &keys,
                     crypto::CryptoEngineModel *shared_crypto = nullptr);
    virtual ~ProtectionEngine() = default;

    ProtectionEngine(const ProtectionEngine &) = delete;
    ProtectionEngine &operator=(const ProtectionEngine &) = delete;

    /** Model name for reports. */
    virtual std::string name() const = 0;

    // ------------------------------------------------------- plan phase

    /**
     * Advance state for an L2 read miss of the line at @p line_va.
     * Must be called exactly once per fill event.
     */
    virtual FillPlan planFill(uint64_t line_va, bool ifetch,
                              mem::RegionKind kind) = 0;

    /**
     * Advance state for a dirty eviction of @p line_va. Must be
     * called exactly once per eviction event.
     */
    virtual EvictPlan planEvict(uint64_t line_va,
                                mem::RegionKind kind) = 0;

    /**
     * Warm a run of never-written lines in bulk: the @p count lines
     * first_va + i * stride (no two in one line) end with exactly the
     * state and statistics that count successive
     * planEvict(first_va + i * stride, RegionKind::Protected) calls
     * leave — line states, SNC directory, recency and slots, spill
     * table and counters alike. This is how a machine is brought to
     * the steady state the paper measures in.
     *
     * Precondition: no line of the run has a cipher state yet, and
     * the run does not wrap the address space; a violation is fatal.
     * @p visit receives each line's EvictPlan once, in run order
     * (the functional plane encrypts and writes the line there); an
     * empty @p visit skips that.
     */
    virtual void warmRun(uint64_t first_va, uint64_t count,
                         uint64_t stride, const WarmVisit &visit) = 0;

    // --------------------------------------------------- schedule phase

    /** Timing for a planned fill; returns the data-ready cycle. */
    virtual FillResult scheduleFill(const FillPlan &plan,
                                    uint64_t cycle) = 0;

    /** Timing for a planned eviction (write buffer, off path). */
    virtual void scheduleEvict(const EvictPlan &plan,
                               uint64_t cycle) = 0;

    // ------------------------------------------------------ apply phase

    /** Decrypt @p bytes (ciphertext image) as described by @p plan. */
    virtual void applyFill(const FillPlan &plan,
                           std::span<uint8_t> bytes) const = 0;

    /** Encrypt @p bytes (plaintext) as described by @p plan. */
    virtual void applyEvict(const EvictPlan &plan,
                            std::span<uint8_t> bytes) const = 0;

    // --------------------------------------------- convenience wrappers

    /** plan + schedule in one call (timing-only simulations). */
    FillResult lineFill(uint64_t line_va, uint64_t cycle, bool ifetch,
                        mem::RegionKind kind);

    /** plan + schedule in one call (timing-only simulations). */
    void lineEvict(uint64_t line_va, uint64_t cycle,
                   mem::RegionKind kind);

    /** plan + apply in one call (functional-only runs). */
    void decryptLine(uint64_t line_va, bool ifetch, mem::RegionKind kind,
                     std::span<uint8_t> bytes);

    /** plan + apply in one call (functional-only runs). */
    void encryptLine(uint64_t line_va, mem::RegionKind kind,
                     std::span<uint8_t> bytes);

    // ------------------------------------------------------------ misc

    /** Select the active compartment (default 1). */
    void setCompartment(CompartmentId id) { compartment_ = id; }
    CompartmentId compartment() const { return compartment_; }

    /**
     * Context-switch hook (paper Section 4.3): the machine is about
     * to run a different task at @p cycle. @p flush asks the engine
     * to purge per-task security state that must not leak across the
     * switch (the OTP engine spills its SNC). @return entries
     * spilled, 0 when the engine keeps no such state.
     */
    virtual size_t onContextSwitch(uint64_t cycle, bool flush)
    {
        (void)cycle;
        (void)flush;
        return 0;
    }

    /** Cipher state of a line as the engine believes it. */
    LineCipherState lineState(uint64_t line_va) const;

    /**
     * Mark a line's image state directly (used by the secure loader
     * when placing a vendor-encrypted program image into memory).
     */
    void setLineState(uint64_t line_va, LineCipherState state,
                      uint32_t seqnum = 0);

    /**
     * Reset timing and per-line state (fresh run). A *shared*
     * crypto engine is deliberately left untouched — it belongs to
     * the machine, and System::reset() is the path that resets it
     * alongside the channel (arbiter queues included) and every
     * background agent's in-flight reservations.
     */
    virtual void reset();

    /**
     * Bind the fill counters (fast_fills, slow_fills, plain_fills)
     * into @p reg as "<prefix>.<name>"; models add their own.
     */
    virtual void registerMetrics(obs::MetricsRegistry &reg,
                                 const std::string &prefix) const;

    /** Fills that paid serial crypto latency. */
    uint64_t slowFills() const { return slow_fills_.value(); }
    /** Fills whose pad generation overlapped the memory fetch. */
    uint64_t fastFills() const { return fast_fills_.value(); }
    /** Fills with no crypto at all (plain / unwritten). */
    uint64_t plainFills() const { return plain_fills_.value(); }

    const ProtectionConfig &config() const { return config_; }

    /** Access to the crypto engine model (occupancy inspection). */
    const crypto::CryptoEngineModel &cryptoEngine() const
    {
        return crypto_engine_;
    }

  protected:
    ProtectionConfig config_;
    mem::MemoryChannel &channel_;
    const KeyTable &keys_;
    /** Backing storage when no shared engine was supplied. */
    std::unique_ptr<crypto::CryptoEngineModel> owned_crypto_;
    /** The crypto engine all timing goes through (shared or owned). */
    crypto::CryptoEngineModel &crypto_engine_;
    CompartmentId compartment_ = 1;

    /**
     * Line index (line_va / line_size) -> how its memory image is
     * currently encrypted. Radix layout: install streams walk lines
     * sequentially, so neighbouring states share a group.
     */
    util::RadixArray<LineCipherState> line_states_;
    /** Line index -> seqnum for lines recorded via setLineState or
     *  tracked outside the SNC (spill table is engine-specific). */
    util::RadixArray<uint32_t> preset_seqnums_;

    /**
     * log2 of the line size. Warm runs touch every preinitialized
     * line, so they index the per-line tables with this shift rather
     * than lineIdx's division.
     */
    unsigned line_shift_;

    /** warmRun's argument checks (stride and wrap). */
    void checkRun(uint64_t first_va, uint64_t count,
                  uint64_t stride) const;

    /**
     * Record a warm run line's cipher @p state through @p states (a
     * cursor on line_states_); fatal unless the line had none.
     */
    void markWarm(util::RadixArray<LineCipherState>::Cursor &states,
                  uint64_t line_va, LineCipherState state);

    /**
     * warmRun for engines whose protected write-back only records
     * @p state for the line: one pass over the run.
     */
    void warmStates(uint64_t first_va, uint64_t count, uint64_t stride,
                    LineCipherState state, const WarmVisit &visit);

    /** Key of the per-line flat tables. */
    uint64_t
    lineIdx(uint64_t line_va) const
    {
        return line_va / config_.line_size;
    }

    util::Counter fast_fills_;
    util::Counter slow_fills_;
    util::Counter plain_fills_;

    /** Cipher of the active compartment; panics if missing. */
    const crypto::BlockCipher &activeCipher() const;

    /**
     * Construct the one-time-pad seed for (line, seqnum) under the
     * active compartment. Collision-free across lines, sequence
     * numbers and compartments; intra-line pad blocks are separated
     * by generatePad()'s per-block tweak (see DESIGN.md).
     */
    uint64_t makeSeed(uint64_t line_va, uint32_t seqnum) const;

    /**
     * Proxy address of a line's entry in the in-memory sequence
     * number table (bank/row selection when the channel models
     * DRAM; the flat channel ignores it).
     */
    uint64_t seqnumTableAddr(uint64_t line_va) const;
};

/** Instantiate the engine for @p config.model. */
std::unique_ptr<ProtectionEngine>
makeProtectionEngine(const ProtectionConfig &config,
                     mem::MemoryChannel &channel, const KeyTable &keys,
                     crypto::CryptoEngineModel *shared_crypto = nullptr);

/** Human-readable model name. */
std::string securityModelName(SecurityModel model);

} // namespace secproc::secure

#endif // SECPROC_SECURE_PROTECTION_ENGINE_HH
