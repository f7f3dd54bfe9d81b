/**
 * @file
 * One-time-pad engine with Sequence Number Cache — the paper's
 * contribution (Sections 3 and 4).
 *
 * Fast path (SNC query hit, and all instruction fetches): the pad
 * E_K(seed) is computed while the memory access is in flight, so the
 * fill completes at max(memory, crypto) + 1 instead of
 * memory + crypto.
 *
 * Slow paths follow the paper's Algorithm 1: an SNC query miss under
 * LRU fetches and decrypts the line's sequence number from the
 * encrypted in-memory table before pad generation can start; under
 * the no-replacement policy, lines without SNC entries are
 * direct-encrypted and take the XOM path.
 */

#include "secure/engines.hh"

#include <algorithm>

#include "crypto/block_cipher.hh"
#include "obs/metrics.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::secure
{

OtpEngine::OtpEngine(const ProtectionConfig &config,
                     mem::MemoryChannel &channel, const KeyTable &keys,
                     crypto::CryptoEngineModel *shared_crypto)
    : ProtectionEngine(config, channel, keys, shared_crypto),
      snc_(config.snc)
{
    fatal_if(config.snc.l2_line_size != config.line_size,
             "SNC line size (", config.snc.l2_line_size,
             ") must match the engine line size (", config.line_size,
             ")");
}

uint32_t
OtpEngine::wrapIncrement(uint32_t seqnum)
{
    // Wrapping would reuse a pad; hardware would trigger a
    // re-encryption epoch (DESIGN.md section 7). We model the wrap
    // and the SNC counts overflows for inspection.
    return seqnum >= snc_.config().maxSeqnum() ? 1 : seqnum + 1;
}

void
OtpEngine::absorbInstall(const SncInstall &install, uint64_t line_va,
                         bool *victim_spilled)
{
    // Authoritative copy is on chip now.
    memory_table_.erase(lineIdx(line_va));
    for (const SncEntry &victim : install.victims)
        memory_table_.insert(lineIdx(victim.line_va), victim.seqnum);
    if (!install.victims.empty() && victim_spilled != nullptr)
        *victim_spilled = true;

    // Sectored SNC: the sector fetch brought the neighbours'
    // sequence numbers from memory together; populate their slots.
    for (const uint64_t other : install.cofetched) {
        if (lineState(other) != LineCipherState::Otp)
            continue;
        uint32_t seqnum;
        if (const uint32_t *it = memory_table_.find(lineIdx(other))) {
            seqnum = *it;
            memory_table_.erase(lineIdx(other));
        } else if (const uint32_t *preset =
                       preset_seqnums_.find(lineIdx(other))) {
            seqnum = *preset;
        } else {
            continue; // never written back: no sequence number yet
        }
        snc_.setEntry(other, seqnum);
    }
}

void
OtpEngine::installWithSpill(uint64_t line_va, uint32_t seqnum,
                            EvictPlan *plan)
{
    const SncInstall install = snc_.install(line_va, seqnum);
    if (!install.installed)
        return; // no-replacement refusal handled by caller
    absorbInstall(install, line_va,
                  plan != nullptr ? &plan->victim_spilled : nullptr);
}

FillPlan
OtpEngine::planFill(uint64_t line_va, bool ifetch, mem::RegionKind kind)
{
    FillPlan plan;
    plan.line_va = line_va;
    plan.ifetch = ifetch;

    if (kind == mem::RegionKind::Plaintext) {
        plan.state = LineCipherState::Plain;
        return plan;
    }
    if (ifetch) {
        // Instructions are read-only: constant virtual-address seed
        // (sequence number 0), never involving the SNC (Section
        // 3.4.1).
        plan.state = LineCipherState::Otp;
        plan.seqnum = 0;
        return plan;
    }
    if (kind == mem::RegionKind::Shared) {
        // Synonym-aliased data is excluded from OTP (Section 4);
        // it is direct-encrypted as in XOM.
        plan.state = LineCipherState::Direct;
        return plan;
    }

    plan.state = lineState(line_va);
    if (plan.state != LineCipherState::Otp)
        return plan; // Unwritten / Direct / Plain need no seqnum

    if (const auto seqnum = snc_.query(line_va)) {
        plan.seqnum = *seqnum;
        return plan;
    }

    // Query miss. Under LRU the sequence number lives in the
    // encrypted in-memory table; fetch it and install it, possibly
    // spilling a victim (Algorithm 1 lines 1-12).
    plan.snc_query_miss = true;
    const uint32_t *it = memory_table_.find(lineIdx(line_va));
    if (it != nullptr) {
        plan.seqnum = *it;
    } else if (const uint32_t *preset =
                   preset_seqnums_.find(lineIdx(line_va))) {
        plan.seqnum = *preset; // loader-initialized image
    } else {
        panic("OTP line ", line_va,
              " has no sequence number anywhere; state tracking bug");
    }

    if (snc_.config().allow_replacement) {
        const SncInstall install = snc_.install(line_va, plan.seqnum);
        if (install.installed)
            absorbInstall(install, line_va, &plan.victim_spilled);
    }
    return plan;
}

EvictPlan
OtpEngine::planEvict(uint64_t line_va, mem::RegionKind kind)
{
    EvictPlan plan;
    plan.line_va = line_va;

    if (kind == mem::RegionKind::Plaintext) {
        plan.state = LineCipherState::Plain;
        line_states_.insert(lineIdx(line_va), plan.state);
        return plan;
    }
    if (kind == mem::RegionKind::Shared) {
        plan.state = LineCipherState::Direct;
        line_states_.insert(lineIdx(line_va), plan.state);
        return plan;
    }

    // Update: increment the line's sequence number (Equation 4).
    if (const auto seqnum = snc_.increment(line_va)) {
        plan.state = LineCipherState::Otp;
        plan.seqnum = *seqnum;
        line_states_.insert(lineIdx(line_va), plan.state);
        return plan;
    }

    plan.snc_update_miss = true;
    if (snc_.config().allow_replacement) {
        // Algorithm 1 lines 13-25: fetch the old sequence number (if
        // the line ever had one), increment, install, spill victim.
        uint32_t old_seqnum = 0;
        if (lineState(line_va) == LineCipherState::Otp) {
            if (const uint32_t *it =
                    memory_table_.find(lineIdx(line_va))) {
                old_seqnum = *it;
                plan.seqnum_fetched = true;
            } else if (const uint32_t *preset =
                           preset_seqnums_.find(lineIdx(line_va))) {
                old_seqnum = *preset;
                plan.seqnum_fetched = true;
            }
        }
        plan.state = LineCipherState::Otp;
        plan.seqnum = wrapIncrement(old_seqnum);
        installWithSpill(line_va, plan.seqnum, &plan);
    } else {
        // No-replacement policy: take a free slot if one exists,
        // otherwise encrypt directly like XOM (Section 4.1). A slot
        // can be free *after* a context-switch flush spilled the old
        // entry to memory — restarting at 1 would reuse pads, so the
        // spilled value is recovered and incremented.
        uint32_t old_seqnum = 0;
        if (lineState(line_va) == LineCipherState::Otp) {
            if (const uint32_t *it =
                    memory_table_.find(lineIdx(line_va))) {
                old_seqnum = *it;
                plan.seqnum_fetched = true;
            } else if (const uint32_t *preset =
                           preset_seqnums_.find(lineIdx(line_va))) {
                old_seqnum = *preset;
                plan.seqnum_fetched = true;
            }
        }
        const uint32_t fresh = wrapIncrement(old_seqnum);
        const SncInstall install = snc_.install(line_va, fresh);
        if (install.installed) {
            memory_table_.erase(lineIdx(line_va));
            plan.state = LineCipherState::Otp;
            plan.seqnum = fresh;
        } else {
            plan.state = LineCipherState::Direct;
        }
    }
    line_states_.insert(lineIdx(line_va), plan.state);
    return plan;
}

void
OtpEngine::warmRun(uint64_t first_va, uint64_t count, uint64_t stride,
                   const WarmVisit &visit)
{
    checkRun(first_va, count, stride);
    const uint64_t line = config_.line_size;
    const uint64_t span = snc_.config().sectorSpan();
    const uint32_t sector_lines = snc_.config().sector_lines;
    if (stride > span && stride % span != 0) {
        // The directory's closed form needs the run's sectors evenly
        // spaced; no profile's stride is anything else.
        warmLines(first_va, 0, count, stride, visit);
        return;
    }

    // Closed-form segments between edge sectors: sectors the run
    // covers only in part whose other lines include an OTP one (a
    // neighbouring region's). Lines of the run are never written, so
    // any OTP line of the sector lies outside the run.
    const auto written = [&](uint64_t sector) {
        for (uint32_t k = 0; k < sector_lines; ++k) {
            if (lineState(sector + k * line) == LineCipherState::Otp)
                return true;
        }
        return false;
    };
    uint64_t segment = 0;
    for (uint64_t i = 0; sector_lines > 1 && i < count;) {
        const uint64_t va = first_va + i * stride;
        const uint64_t sector = va & ~(span - 1);
        const uint64_t next = sector + span; // 0 past the top sector
        // A zero stride only comes with a one-line run.
        const uint64_t end =
            next == 0 || stride == 0
                ? count
                : std::min(count, i + util::ceilDiv(next - va, stride));
        if (end - i < sector_lines && written(sector)) {
            warmSectors(first_va, segment, i, stride, visit);
            warmLines(first_va, i, end, stride, visit);
            segment = end;
        }
        i = end;
        if (stride == line && i < count) {
            // A contiguous run covers its inner sectors whole: only
            // the last can be partial.
            const uint64_t last = first_va + (count - 1) * stride;
            i = std::max(i, count - 1 - ((last & (span - 1)) / line));
        }
    }
    warmSectors(first_va, segment, count, stride, visit);
}

void
OtpEngine::warmLines(uint64_t first_va, uint64_t begin, uint64_t end,
                     uint64_t stride, const WarmVisit &visit)
{
    for (uint64_t i = begin; i < end; ++i) {
        const uint64_t line_va = first_va + i * stride;
        fatal_if(lineState(line_va) != LineCipherState::Unwritten,
                 "warm run line ", line_va, " was already written");
        const EvictPlan plan =
            planEvict(line_va, mem::RegionKind::Protected);
        if (visit)
            visit(plan);
    }
}

void
OtpEngine::warmSectors(uint64_t first_va, uint64_t begin, uint64_t end,
                       uint64_t stride, const WarmVisit &visit)
{
    if (begin == end)
        return;
    // planEvict's update miss on a never-written line: sequence
    // number 0 incremented, installed (LRU), or installed while the
    // set has a free way and direct-encrypted after (no replacement).
    const uint64_t run_va = first_va + begin * stride;
    const uint32_t seqnum = wrapIncrement(0);
    util::RadixArray<LineCipherState>::Cursor states(line_states_);
    util::RadixArray<uint32_t>::Cursor spills(memory_table_);
    snc_.warmRun(
        run_va, end - begin, stride, seqnum,
        [&](const SncEntry &spilled) {
            spills.touch(spilled.line_va >> line_shift_) = spilled.seqnum;
        },
        [&](uint64_t i, bool installed, bool spilled) {
            EvictPlan plan;
            plan.line_va = run_va + i * stride;
            plan.snc_update_miss = true;
            plan.victim_spilled = spilled;
            if (installed) {
                plan.state = LineCipherState::Otp;
                plan.seqnum = seqnum;
            } else {
                plan.state = LineCipherState::Direct;
            }
            markWarm(states, plan.line_va, plan.state);
            if (visit)
                visit(plan);
        });
}

void
OtpEngine::fillHistory(uint64_t first_filler_va)
{
    warmRun(first_filler_va, snc_.linesUntilFull(first_filler_va),
            config_.line_size, {});
}

FillResult
OtpEngine::scheduleFill(const FillPlan &plan, uint64_t cycle)
{
    FillResult result;
    result.snc_query_miss = plan.snc_query_miss;

    switch (plan.state) {
      case LineCipherState::Plain:
      case LineCipherState::Unwritten: {
        result.ready_cycle = channel_.scheduleRead(
            cycle, mem::Traffic::DataFill, /*small=*/false,
            plan.line_va);
        ++plain_fills_;
        return result;
      }
      case LineCipherState::Direct: {
        // XOM fallback (shared data; no-replacement overflow lines).
        const uint64_t arrival = channel_.scheduleRead(
            cycle, mem::Traffic::DataFill, /*small=*/false,
            plan.line_va);
        result.ready_cycle = crypto_engine_.schedule(arrival);
        ++slow_fills_;
        ++direct_fallback_fills_;
        return result;
      }
      case LineCipherState::Otp:
        break;
    }

    if (!plan.snc_query_miss) {
        // Fast path: pad generation overlaps the memory fetch;
        // one XOR cycle after both complete (Section 3.2). With the
        // prediction unit (A11) the pad may already be sitting in
        // the pad buffer from a previous sequential fill.
        uint64_t pad_ready;
        const auto predicted =
            takePredictedPad(makeSeed(plan.line_va, plan.seqnum));
        if (predicted.has_value()) {
            pad_ready = std::max(*predicted, cycle);
            ++pad_prediction_hits_;
        } else {
            pad_ready = crypto_engine_.schedule(cycle);
        }
        const uint64_t arrival = channel_.scheduleRead(
            cycle, mem::Traffic::DataFill, /*small=*/false,
            plan.line_va);
        result.ready_cycle = std::max(arrival, pad_ready) + 1;
        result.fast_path = true;
        ++fast_fills_;
        if (config_.pad_prediction)
            predictNextPad(plan.line_va, plan.ifetch, cycle);
        return result;
    }

    // LRU query miss (Algorithm 1 lines 1-12): fetch + decrypt the
    // sequence number, then generate pads; the line fetch overlaps
    // pad generation (serial policy) or both fetches are issued
    // together (parallel policy, ablation A1).
    ++query_miss_fills_;
    const uint64_t sn_arrival = channel_.scheduleRead(
        cycle, mem::Traffic::SeqnumFetch, /*small=*/true,
        seqnumTableAddr(plan.line_va));
    const uint64_t sn_ready = crypto_engine_.schedule(sn_arrival);
    const uint64_t pad_ready = crypto_engine_.schedule(sn_ready);
    const uint64_t line_request =
        config_.parallel_seqnum_fetch ? cycle : sn_ready;
    const uint64_t arrival = channel_.scheduleRead(
        line_request, mem::Traffic::DataFill, /*small=*/false,
        plan.line_va);
    result.ready_cycle = std::max(arrival, pad_ready) + 1;
    ++slow_fills_;

    if (plan.victim_spilled) {
        // Spilled victim is encrypted directly (never OTP — it would
        // itself need a sequence number; Section 4.1) and leaves via
        // the write buffer.
        const uint64_t encrypted = crypto_engine_.schedule(cycle);
        channel_.enqueueWrite(encrypted, mem::Traffic::SeqnumWriteback,
                              /*small=*/true,
                              seqnumTableAddr(plan.line_va));
    }
    return result;
}

void
OtpEngine::scheduleEvict(const EvictPlan &plan, uint64_t cycle)
{
    switch (plan.state) {
      case LineCipherState::Plain:
      case LineCipherState::Unwritten:
        channel_.enqueueWrite(cycle, mem::Traffic::DataWriteback,
                              /*small=*/false, plan.line_va);
        return;
      case LineCipherState::Direct: {
        const uint64_t encrypted = crypto_engine_.schedule(cycle);
        channel_.enqueueWrite(encrypted, mem::Traffic::DataWriteback,
                              /*small=*/false, plan.line_va);
        return;
      }
      case LineCipherState::Otp:
        break;
    }

    uint64_t pad_ready;
    if (plan.snc_update_miss && plan.seqnum_fetched) {
        // Off the critical path (the line waits in the write
        // buffer), but the fetch still occupies the bus and the
        // engine: decrypt the fetched sequence number, then generate
        // the pad from it — one dependent two-block chain.
        const uint64_t sn_arrival = channel_.scheduleRead(
            cycle, mem::Traffic::SeqnumFetch, /*small=*/true,
            seqnumTableAddr(plan.line_va));
        pad_ready = crypto_engine_.scheduleChained(sn_arrival, 2);
    } else {
        pad_ready = crypto_engine_.schedule(cycle);
    }
    channel_.enqueueWrite(pad_ready + 1, mem::Traffic::DataWriteback,
                          /*small=*/false, plan.line_va);

    if (plan.victim_spilled) {
        const uint64_t encrypted = crypto_engine_.schedule(cycle);
        channel_.enqueueWrite(encrypted, mem::Traffic::SeqnumWriteback,
                              /*small=*/true,
                              seqnumTableAddr(plan.line_va));
    }
}

void
OtpEngine::applyFill(const FillPlan &plan,
                     std::span<uint8_t> bytes) const
{
    switch (plan.state) {
      case LineCipherState::Plain:
      case LineCipherState::Unwritten:
        return;
      case LineCipherState::Direct:
        crypto::ecbDecrypt(activeCipher(), bytes.data(), bytes.size());
        return;
      case LineCipherState::Otp:
        crypto::otpTransform(activeCipher(),
                             makeSeed(plan.line_va, plan.seqnum),
                             bytes.data(), bytes.size());
        return;
    }
}

void
OtpEngine::applyEvict(const EvictPlan &plan,
                      std::span<uint8_t> bytes) const
{
    switch (plan.state) {
      case LineCipherState::Plain:
      case LineCipherState::Unwritten:
        return;
      case LineCipherState::Direct:
        crypto::ecbEncrypt(activeCipher(), bytes.data(), bytes.size());
        return;
      case LineCipherState::Otp:
        crypto::otpTransform(activeCipher(),
                             makeSeed(plan.line_va, plan.seqnum),
                             bytes.data(), bytes.size());
        return;
    }
}

std::optional<uint64_t>
OtpEngine::takePredictedPad(uint64_t seed)
{
    const auto it = std::ranges::find(pad_buffer_, seed, &PredictedPad::first);
    if (it == pad_buffer_.end())
        return std::nullopt;
    const uint64_t ready = it->second;
    pad_buffer_.erase(it);
    return ready;
}

void
OtpEngine::predictNextPad(uint64_t line_va, bool ifetch, uint64_t cycle)
{
    const uint64_t next_va = line_va + config_.line_size;
    uint32_t seqnum = 0;
    if (!ifetch) {
        // Only predict when the neighbour's sequence number is on
        // chip and the line is OTP-encrypted; a wrong guess would
        // waste an engine slot, a metadata fetch would defeat the
        // point.
        if (lineState(next_va) != LineCipherState::Otp)
            return;
        const auto peeked = snc_.peek(next_va);
        if (!peeked.has_value())
            return;
        seqnum = *peeked;
    }
    const uint64_t seed = makeSeed(next_va, seqnum);
    if (std::ranges::find(pad_buffer_, seed, &PredictedPad::first) !=
        pad_buffer_.end())
        return;
    // FIFO bound: forget the oldest prediction (timing state only).
    // A consumed pad already left the buffer, so it never displaces
    // a live one.
    if (!pad_buffer_.empty() &&
        pad_buffer_.size() >= config_.pad_buffer_entries)
        pad_buffer_.erase(pad_buffer_.begin());
    pad_buffer_.emplace_back(seed, crypto_engine_.schedule(cycle));
    ++pad_predictions_;
}

size_t
OtpEngine::flushSnc(uint64_t cycle)
{
    const std::vector<SncEntry> entries = snc_.flush();
    for (const SncEntry &entry : entries) {
        memory_table_.insert(lineIdx(entry.line_va), entry.seqnum);
        const uint64_t encrypted = crypto_engine_.schedule(cycle);
        channel_.enqueueWrite(encrypted, mem::Traffic::SeqnumWriteback,
                              /*small=*/true,
                              seqnumTableAddr(entry.line_va));
    }
    return entries.size();
}

void
OtpEngine::reset()
{
    ProtectionEngine::reset();
    snc_.flush();
    snc_.resetStats();
    memory_table_.clear();
    pad_buffer_.clear();
    query_miss_fills_.reset();
    direct_fallback_fills_.reset();
    pad_predictions_.reset();
    pad_prediction_hits_.reset();
}

void
OtpEngine::registerMetrics(obs::MetricsRegistry &reg,
                           const std::string &prefix) const
{
    ProtectionEngine::registerMetrics(reg, prefix);
    reg.counter(prefix + ".query_miss_fills", &query_miss_fills_);
    reg.counter(prefix + ".direct_fallback_fills",
                &direct_fallback_fills_);
    reg.counter(prefix + ".pad_predictions", &pad_predictions_);
    reg.counter(prefix + ".pad_prediction_hits", &pad_prediction_hits_);
    snc_.registerMetrics(reg, prefix);
}

} // namespace secproc::secure
