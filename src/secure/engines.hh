/**
 * @file
 * The three concrete protection engines: insecure baseline, XOM
 * direct encryption, and the paper's one-time-pad + SNC design.
 */

#ifndef SECPROC_SECURE_ENGINES_HH
#define SECPROC_SECURE_ENGINES_HH

#include <optional>
#include <utility>

#include "secure/protection_engine.hh"
#include "util/radix_array.hh"

namespace secproc::secure
{

/**
 * Insecure baseline processor: plain fills and write-backs. All
 * slowdown figures in the paper are measured against this machine.
 */
class BaselineEngine : public ProtectionEngine
{
  public:
    using ProtectionEngine::ProtectionEngine;

    std::string name() const override { return "baseline"; }

    FillPlan planFill(uint64_t line_va, bool ifetch,
                      mem::RegionKind kind) override;
    EvictPlan planEvict(uint64_t line_va,
                        mem::RegionKind kind) override;
    /** Every line of the run becomes Plain. */
    void warmRun(uint64_t first_va, uint64_t count, uint64_t stride,
                 const WarmVisit &visit) override
    {
        warmStates(first_va, count, stride, LineCipherState::Plain, visit);
    }
    FillResult scheduleFill(const FillPlan &plan,
                            uint64_t cycle) override;
    void scheduleEvict(const EvictPlan &plan, uint64_t cycle) override;
    void applyFill(const FillPlan &plan,
                   std::span<uint8_t> bytes) const override;
    void applyEvict(const EvictPlan &plan,
                    std::span<uint8_t> bytes) const override;
};

/**
 * XOM-style machine (paper Section 2): every protected line is
 * direct-encrypted; decryption serializes after the memory fetch, so
 * a fill costs memory latency plus crypto latency.
 */
class XomEngine : public ProtectionEngine
{
  public:
    using ProtectionEngine::ProtectionEngine;

    std::string name() const override { return "xom"; }

    FillPlan planFill(uint64_t line_va, bool ifetch,
                      mem::RegionKind kind) override;
    EvictPlan planEvict(uint64_t line_va,
                        mem::RegionKind kind) override;
    /** Every line of the run becomes Direct. */
    void warmRun(uint64_t first_va, uint64_t count, uint64_t stride,
                 const WarmVisit &visit) override
    {
        warmStates(first_va, count, stride, LineCipherState::Direct,
                   visit);
    }
    FillResult scheduleFill(const FillPlan &plan,
                            uint64_t cycle) override;
    void scheduleEvict(const EvictPlan &plan, uint64_t cycle) override;
    void applyFill(const FillPlan &plan,
                   std::span<uint8_t> bytes) const override;
    void applyEvict(const EvictPlan &plan,
                    std::span<uint8_t> bytes) const override;
};

/**
 * The paper's contribution: one-time-pad (counter-mode) encryption
 * with seeds formed from the line's virtual address and a per-line
 * sequence number cached in the on-chip SNC.
 *
 * Instruction fetches use a constant virtual-address seed and always
 * take the fast path. Data fills query the SNC; hits overlap pad
 * generation with the memory fetch (max(mem, crypto) + 1), misses
 * pay a sequence-number fetch and decryption first (LRU policy) or
 * fall back to the XOM path (no-replacement policy).
 */
class OtpEngine : public ProtectionEngine
{
  public:
    OtpEngine(const ProtectionConfig &config,
              mem::MemoryChannel &channel, const KeyTable &keys,
              crypto::CryptoEngineModel *shared_crypto = nullptr);

    std::string name() const override { return "otp-snc"; }

    FillPlan planFill(uint64_t line_va, bool ifetch,
                      mem::RegionKind kind) override;
    EvictPlan planEvict(uint64_t line_va,
                        mem::RegionKind kind) override;
    /**
     * Sectors of the run are placed in closed form
     * (SequenceNumberCache::warmRun); a sector that also holds an
     * OTP line outside the run goes through planEvict line by line,
     * since its install would find it resident or cofetch into it.
     */
    void warmRun(uint64_t first_va, uint64_t count, uint64_t stride,
                 const WarmVisit &visit) override;

    /**
     * The history fill (LRU only): warm never-written filler lines
     * from the sector-aligned @p first_filler_va on until occupancy()
     * equals entries(), stopping exactly where a planEvict loop
     * guarded by that test stops.
     */
    void fillHistory(uint64_t first_filler_va);
    FillResult scheduleFill(const FillPlan &plan,
                            uint64_t cycle) override;
    void scheduleEvict(const EvictPlan &plan, uint64_t cycle) override;
    void applyFill(const FillPlan &plan,
                   std::span<uint8_t> bytes) const override;
    void applyEvict(const EvictPlan &plan,
                    std::span<uint8_t> bytes) const override;

    void reset() override;
    void registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const override;

    /** The on-chip sequence number cache. */
    const SequenceNumberCache &snc() const { return snc_; }

    /**
     * Context switch handling (paper Section 4.3): flush the SNC,
     * spilling every entry to the encrypted in-memory table.
     * @param cycle When the switch happens (for write scheduling).
     * @return number of entries flushed.
     */
    size_t flushSnc(uint64_t cycle);

    /** Under the Flush policy the SNC spills on every switch. */
    size_t onContextSwitch(uint64_t cycle, bool flush) override
    {
        return flush ? flushSnc(cycle) : 0;
    }

    /** Pads pre-generated by the prediction unit (A11). */
    uint64_t padPredictions() const { return pad_predictions_.value(); }

    /** Fills whose pad was already in the pad buffer. */
    uint64_t padPredictionHits() const
    {
        return pad_prediction_hits_.value();
    }

  private:
    SequenceNumberCache snc_;

    /**
     * The encrypted in-memory sequence-number table: entries evicted
     * from the SNC live here (LRU policy). Functional contents are
     * authoritative for plan decisions; its traffic is modelled via
     * the channel's Seqnum categories. Keyed by line index — spills
     * and sector co-fetches touch neighbouring lines, so the radix
     * layout keeps them in one group.
     */
    util::RadixArray<uint32_t> memory_table_;

    /**
     * Pad buffer (pad_prediction): (seed, cycle the pre-generated pad
     * is ready), oldest first. It holds at most pad_buffer_entries
     * entries (32 by default), so it is searched linearly.
     * Timing-only state (the pad bytes are deterministic from the
     * seed, so applyFill needs nothing).
     */
    using PredictedPad = std::pair<uint64_t, uint64_t>;
    std::vector<PredictedPad> pad_buffer_;

    util::Counter query_miss_fills_;
    util::Counter direct_fallback_fills_;
    util::Counter pad_predictions_;
    util::Counter pad_prediction_hits_;

    uint32_t wrapIncrement(uint32_t seqnum);

    /** warmRun's per-line path: lines [begin, end) of the run. */
    void warmLines(uint64_t first_va, uint64_t begin, uint64_t end,
                   uint64_t stride, const WarmVisit &visit);

    /** warmRun's closed form: lines [begin, end) of the run. */
    void warmSectors(uint64_t first_va, uint64_t begin, uint64_t end,
                     uint64_t stride, const WarmVisit &visit);

    void installWithSpill(uint64_t line_va, uint32_t seqnum,
                          EvictPlan *plan);

    /**
     * Fold an SNC install result into engine state: spill victims
     * to the in-memory table and populate cofetched sector slots.
     */
    void absorbInstall(const SncInstall &install, uint64_t line_va,
                       bool *victim_spilled);

    /**
     * Pad-buffer lookup: cycle the pre-generated pad for @p seed is
     * ready, or nullopt. A hit consumes the entry.
     */
    std::optional<uint64_t> takePredictedPad(uint64_t seed);

    /** Pre-generate the pad for the line after @p line_va. */
    void predictNextPad(uint64_t line_va, bool ifetch, uint64_t cycle);
};

} // namespace secproc::secure

#endif // SECPROC_SECURE_ENGINES_HH
