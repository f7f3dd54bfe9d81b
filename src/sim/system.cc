/**
 * @file
 * Full-system implementation.
 */

#include "sim/system.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <ostream>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::sim
{

KernelMode
kernelModeFromEnvironment()
{
    const char *value = std::getenv("SECPROC_KERNEL");
    if (value == nullptr || *value == '\0' ||
        std::strcmp(value, "event") == 0) {
        return KernelMode::Event;
    }
    if (std::strcmp(value, "legacy") == 0)
        return KernelMode::Legacy;
    fatal("SECPROC_KERNEL=", value, " (expected \"event\" or "
          "\"legacy\")");
}

SystemConfig::SystemConfig()
{
    l1i.name = "l1i";
    l1i.size_bytes = 32 * 1024;
    l1i.assoc = 4;
    l1i.line_size = 64;

    l1d.name = "l1d";
    l1d.size_bytes = 32 * 1024;
    l1d.assoc = 4;
    l1d.line_size = 64;

    l2.name = "l2";
    l2.size_bytes = 256 * 1024;
    l2.assoc = 4;
    l2.line_size = 128;
}

System::System(const SystemConfig &config, Workload &workload)
    : System(config, std::vector<TaskSpec>{{&workload, 1}})
{}

System::System(const SystemConfig &config, std::vector<TaskSpec> tasks)
    : config_(config), tasks_(std::move(tasks)),
      channel_(config.channel), crypto_engine_(config.protection.crypto),
      l1i_(config.l1i), l1d_(config.l1d), l2_(config.l2),
      onchip_(config.l2.line_size), core_(config.core, *this),
      line_scratch_(config.l2.line_size)
{
    kernel_ = kernelModeFromEnvironment();
    fatal_if(config_.protection.line_size != config_.l2.line_size,
             "protection engine line size must match L2");
    for (const TaskSpec &task : tasks_)
        fatal_if(task.workload == nullptr, "task without a workload");
    installKeys();
    engine_ = secure::makeProtectionEngine(config_.protection, channel_,
                                           keys_, &crypto_engine_);
    registerPlaintextRegions();
    // An idle machine has run no program: nothing to pre-initialize.
    if (!tasks_.empty())
        preinitializeRegions();
    registerMetrics(metrics_);
}

Workload &
System::workload() const
{
    return *tasks_[active_task_].workload;
}

void
System::installKeys()
{
    // Deterministic per-compartment key material: a simulation
    // artifact standing in for each vendor's key unwrapped via RSA
    // (the real flow is exercised by the xom toolchain and its
    // tests).
    for (const TaskSpec &task : tasks_) {
        util::Rng rng(0x5EC0'0001 ^
                      (uint64_t{task.compartment} << 32));
        std::vector<uint8_t> key(secure::cipherKeySize(config_.cipher));
        rng.fillBytes(key.data(), key.size());
        keys_.install(task.compartment, config_.cipher, key);
    }
}

void
System::registerPlaintextRegions()
{
    for (const TaskSpec &task : tasks_) {
        for (const DataRegion &region : task.workload->profile().regions) {
            if (!region.plaintext)
                continue;
            vm_.addRegion(asid_,
                          mem::Region{"input", region.base,
                                      region.base + region.footprint,
                                      mem::RegionKind::Plaintext});
        }
    }
}

void
System::switchToTask(size_t idx, SncSwitchPolicy policy)
{
    fatal_if(idx >= tasks_.size(), "no task ", idx);
    ++context_switches_;
    switch_spills_ += engine_->onContextSwitch(
        core_.cycles(), policy == SncSwitchPolicy::Flush);
    active_task_ = idx;
    engine_->setCompartment(tasks_[idx].compartment);
    if (trace_ != nullptr) {
        trace_->instant(trace_track_, "context_switch", core_.cycles(),
                        {{"task", idx}});
    }
}

void
System::preinitializeRegions()
{
    const uint32_t line = config_.l2.line_size;
    secure::WarmVisit write_line;
    if (config_.functional) {
        write_line = [this](const secure::EvictPlan &plan) {
            writeInitialLine(plan, /*tagged=*/true);
        };
    }

    for (const TaskSpec &task : tasks_) {
        engine_->setCompartment(task.compartment);
        const Workload &wl = *task.workload;

        // Text segment: vendor-encrypted image (sequence number 0
        // seeds under OTP, direct encryption under XOM).
        if (config_.functional) {
            const uint64_t text_lines =
                util::ceilDiv(wl.profile().code_footprint, line);
            secure::EvictPlan plan;
            plan.seqnum = 0;
            plan.state =
                config_.protection.model == secure::SecurityModel::Xom
                    ? secure::LineCipherState::Direct
                    : secure::LineCipherState::Otp;
            if (config_.protection.model ==
                secure::SecurityModel::Baseline) {
                plan.state = secure::LineCipherState::Plain;
            }
            for (uint64_t i = 0; i < text_lines; ++i) {
                plan.line_va = wl.textBase() + i * line;
                writeInitialLine(plan, /*tagged=*/false);
            }
        }

        // Data regions the program "wrote before the measurement
        // window": each is one warm run, which leaves line states,
        // SNC contents and sequence numbers exactly as replaying
        // those first writes through planEvict would — under every
        // policy (LRU installs in order and wraps; no-replacement
        // claims slots until full) — but computes the end state
        // instead of replaying it line by line.
        for (const DataRegion &region : wl.profile().regions) {
            if (!region.preinitialized || region.plaintext ||
                region.behavior == RegionBehavior::WriteOnce)
                continue;
            if (region.behavior == RegionBehavior::ConflictStream) {
                engine_->warmRun(region.base, region.conflict_lines,
                                 region.conflict_stride, write_line);
            } else {
                engine_->warmRun(region.base, region.footprint / line,
                                 line, write_line);
            }
        }
    }

    // History fill: a program that has run for billions of
    // instructions (the paper fast-forwards 10 billion) has touched
    // far more memory than the live set, so an LRU SNC is *full*;
    // replacement traffic (Figure 9) only exists in that regime.
    // Model the history as filler entries that real lines then
    // displace: fresh filler lines are warmed until the SNC is full,
    // the stop point computed up front. No-replacement SNCs are
    // per-program structures that start empty, so skip them (their
    // slots belong to the program's own first writes, warmed above).
    // The history is a program's past, so an idle machine (no task)
    // gets none: its constructor skips this function and its SNC
    // starts empty.
    if (config_.protection.model == secure::SecurityModel::OtpSnc &&
        config_.protection.snc.allow_replacement) {
        static_cast<secure::OtpEngine *>(engine_.get())
            ->fillHistory(0x7F00'0000'0000ull);
    }

    // Recency priming: replay each region's live set in access
    // order so SNC residency matches what a long-running program
    // would have established. This stays line by line through
    // planEvict: it follows the program's own access order and
    // rewrites lines that are already warm. Under no-replacement the
    // installs are rejected — slot ownership stays with the first
    // writers, as it should.
    for (const TaskSpec &task : tasks_) {
        engine_->setCompartment(task.compartment);
        const auto &regions = task.workload->profile().regions;
        for (size_t i = 0; i < regions.size(); ++i) {
            if (!regions[i].preinitialized || regions[i].plaintext)
                continue;
            for (const uint64_t line_va : task.workload->liveLines(i)) {
                const secure::EvictPlan plan = engine_->planEvict(
                    line_va, mem::RegionKind::Protected);
                if (config_.functional)
                    writeInitialLine(plan, /*tagged=*/true);
            }
        }
    }
    engine_->setCompartment(tasks_.front().compartment);
}

void
System::writeInitialLine(const secure::EvictPlan &plan, bool tagged)
{
    std::fill(line_scratch_.begin(), line_scratch_.end(), 0);
    if (tagged)
        util::storeLe64(line_scratch_.data(), plan.line_va);
    engine_->applyEvict(plan, line_scratch_);
    memory_.writeLine(vm_.translate(asid_, plan.line_va), line_scratch_);
}

uint64_t
System::lineAlign(uint64_t addr) const
{
    return util::alignDown(addr, config_.l2.line_size);
}

uint64_t
System::dataAccess(uint64_t vaddr, uint64_t cycle, bool store)
{
    constexpr uint32_t l1_latency = 2;
    if (l1d_.access(vaddr, store)) {
        if (config_.functional && store)
            functionalStore(vaddr);
        return cycle + l1_latency;
    }

    const uint64_t completion =
        accessL2(vaddr, cycle + l1_latency, false, store);

    const auto victim = l1d_.fill(vaddr, store, 0);
    if (victim.has_value() && victim->valid && victim->dirty) {
        // Write-back into the inclusive L2.
        if (!l2_.setDirty(victim->line_addr)) {
            // Inclusion was broken by a same-cycle L2 fill chain;
            // treat as a direct write-back to memory.
            handleL2Victim(mem::Victim{true, true, victim->line_addr, 0},
                           cycle);
        }
    }
    if (config_.functional && store)
        functionalStore(vaddr);
    return completion;
}

uint64_t
System::ifetch(uint64_t line_va, uint64_t cycle)
{
    constexpr uint32_t l1_latency = 1;
    if (l1i_.access(line_va, false))
        return cycle + l1_latency;
    const uint64_t completion =
        accessL2(line_va, cycle + l1_latency, true, false);
    l1i_.fill(line_va, false, 0);
    return completion;
}

uint64_t
System::accessL2(uint64_t vaddr, uint64_t cycle, bool ifetch, bool store)
{
    constexpr uint32_t l2_latency = 12;
    const uint64_t line_va = lineAlign(vaddr);
    if (l2_.access(line_va, false)) {
        // Hit — but the line may still be in flight from an earlier
        // miss (MSHR secondary access).
        const auto it = std::lower_bound(
            outstanding_.begin(), outstanding_.end(), line_va,
            [](const auto &entry, uint64_t line) {
                return entry.first < line;
            });
        if (it != outstanding_.end() && it->first == line_va &&
            it->second > cycle + l2_latency) {
            return it->second;
        }
        return cycle + l2_latency;
    }
    return handleL2Miss(line_va, cycle + l2_latency, ifetch, store);
}

uint64_t
System::handleL2Miss(uint64_t line_va, uint64_t cycle, bool ifetch,
                     bool store)
{
    (void)store;
    // Retire completed outstanding misses.
    std::erase_if(outstanding_, [cycle](const auto &entry) {
        return entry.second <= cycle;
    });
    // MSHR capacity limits miss-level parallelism: a new primary
    // miss waits for the oldest outstanding fill to complete.
    while (outstanding_.size() >= config_.mshrs) {
        auto earliest = outstanding_.begin();
        for (auto it = outstanding_.begin(); it != outstanding_.end();
             ++it) {
            if (it->second < earliest->second)
                earliest = it;
        }
        cycle = std::max(cycle, earliest->second);
        outstanding_.erase(earliest);
    }

    const mem::RegionKind kind = vm_.regionKind(asid_, line_va);
    const secure::FillPlan plan =
        engine_->planFill(line_va, ifetch, kind);
    const secure::FillResult result =
        engine_->scheduleFill(plan, cycle);
    if (config_.functional)
        functionalFill(plan);

    // Install; the stored metadata is the line's virtual address —
    // the paper's Section 4 requirement that L2 remember VAs so the
    // SNC can be indexed on write-back.
    const auto victim = l2_.fill(line_va, false, line_va);
    if (victim.has_value() && victim->valid)
        handleL2Victim(*victim, cycle);

    const auto slot = std::lower_bound(
        outstanding_.begin(), outstanding_.end(), line_va,
        [](const auto &entry, uint64_t line) {
            return entry.first < line;
        });
    if (slot != outstanding_.end() && slot->first == line_va)
        slot->second = result.ready_cycle;
    else
        outstanding_.insert(slot, {line_va, result.ready_cycle});
    return result.ready_cycle;
}

void
System::handleL2Victim(const mem::Victim &victim, uint64_t cycle)
{
    // Back-invalidate L1 copies to preserve inclusion; a dirty L1
    // copy makes the outgoing line dirty.
    bool dirty = victim.dirty;
    for (uint64_t sub = victim.line_addr;
         sub < victim.line_addr + config_.l2.line_size;
         sub += config_.l1d.line_size) {
        dirty |= l1d_.invalidate(sub).dirty;
        l1i_.invalidate(sub);
    }

    bool have_bytes = false;
    if (config_.functional)
        have_bytes = onchip_.removeInto(victim.line_addr, line_scratch_);

    if (!dirty)
        return; // clean: memory image is already current

    const mem::RegionKind kind =
        vm_.regionKind(asid_, victim.line_addr);
    const secure::EvictPlan plan =
        engine_->planEvict(victim.line_addr, kind);
    engine_->scheduleEvict(plan, cycle);

    if (config_.functional) {
        if (!have_bytes)
            std::fill(line_scratch_.begin(), line_scratch_.end(), 0);
        engine_->applyEvict(plan, line_scratch_);
        memory_.writeLine(vm_.translate(asid_, victim.line_addr),
                          line_scratch_);
    }
}

void
System::functionalFill(const secure::FillPlan &plan)
{
    const uint64_t pa = vm_.translate(asid_, plan.line_va);
    memory_.readLine(pa, line_scratch_);
    engine_->applyFill(plan, line_scratch_);
    onchip_.install(plan.line_va, line_scratch_);
}

void
System::functionalStore(uint64_t vaddr)
{
    const uint64_t line_va = lineAlign(vaddr);
    uint8_t *bytes = onchip_.peekMutable(line_va);
    if (bytes == nullptr)
        return; // line bypassed the functional fill path
    const uint64_t offset =
        util::alignDown(vaddr - line_va, 8) % config_.l2.line_size;
    // Deterministic store content: mixes address and store count so
    // repeated writes change the data. Per-instance so concurrent
    // systems neither race nor perturb each other's data stream.
    util::storeLe64(bytes + offset, vaddr ^ (++store_salt_));
}

void
System::attachAgent(BackgroundAgent *agent)
{
    fatal_if(agent == nullptr, "cannot attach a null agent");
    if (trace_ != nullptr)
        agent->setTraceSink(trace_);
    agents_.push_back(agent);
}

void
System::setTraceSink(obs::TraceSink *sink)
{
    trace_ = sink;
    if (sink != nullptr)
        trace_track_ = sink->track("system");
    channel_.setTraceSink(sink);
    crypto_engine_.setTraceSink(sink);
    for (BackgroundAgent *agent : agents_)
        agent->setTraceSink(sink);
}

void
System::reset()
{
    // Shared resources first, then the agents: an agent's request
    // still queued in the channel's arbiter is dropped by the
    // channel reset, so by the time BackgroundAgent::reset() runs
    // there is nothing left for the agent to be waiting on. The
    // shared crypto engine is the machine's to reset (the protection
    // engine deliberately leaves it alone — see
    // ProtectionEngine::reset), and the MSHR ledger belongs to the
    // run being abandoned. Security state (line states, SNC, keys)
    // and cache contents survive: they are the device, not the run.
    channel_.reset();
    crypto_engine_.reset();
    outstanding_.clear();
    for (BackgroundAgent *agent : agents_)
        agent->reset();
    if (trace_ != nullptr)
        trace_->instant(trace_track_, "machine_reset", core_.cycles());
}

uint64_t
System::nextWakeup() const
{
    const uint64_t now = core_.cycles();
    uint64_t earliest = kNeverCycle;
    for (const BackgroundAgent *agent : agents_)
        earliest = std::min(earliest, agent->nextEventCycle(now));
    return earliest;
}

void
System::run(uint64_t instructions)
{
    fatal_if(tasks_.empty(), "an idle machine runs no instructions");
    Workload &active = workload();
    if (agents_.empty()) {
        for (uint64_t i = 0; i < instructions; ++i)
            core_.step(active.next());
        return;
    }
    if (kernel_ == KernelMode::Legacy) {
        for (uint64_t i = 0; i < instructions; ++i) {
            core_.step(active.next());
            for (BackgroundAgent *agent : agents_)
                agent->advance(core_.cycles());
        }
        return;
    }
    // Event kernel. Wakeups are conservative lower bounds on each
    // agent's next effectful advance (see
    // BackgroundAgent::nextEventCycle), so skipping the pump until
    // the core clock reaches the earliest one drops only provable
    // no-op pumps. At a reached wakeup *every* agent is advanced in
    // attach order — the exact sub-sequence of the legacy every-step
    // pump that contains all its effectful elements — and the
    // earliest wakeup is taken again over the post-pump state.
    //
    // The parked-grant check closes the one gap wakeups cannot see:
    // the foreground's own channel accesses run the arbiter at the
    // access cycle, which leads the boundary clock (the core's memory
    // ops run ahead of retire), so a grant can land while every armed
    // wakeup is still in the future. Legacy collects such grants at
    // the very next boundary; so must we. Results are bit-identical
    // to KernelMode::Legacy; only wall-clock differs.
    uint64_t next_wake = nextWakeup();
    for (uint64_t i = 0; i < instructions; ++i) {
        core_.step(active.next());
        if (core_.cycles() >= next_wake ||
            channel_.backgroundGrantParked()) {
            const uint64_t now = core_.cycles();
            for (BackgroundAgent *agent : agents_)
                agent->advance(now);
            next_wake = nextWakeup();
        }
    }
}

void
System::beginMeasurement()
{
    measure_base_ = metrics_.snapshot();
    // Mark the window on the timeline; also guarantees a traced run
    // is never event-free (core demand traffic is untraced by
    // design, so a quiet foreground-only run would otherwise be).
    if (trace_ != nullptr)
        trace_->instant(trace_track_, "measure_begin", core_.cycles());
}

RunStats
System::stats() const
{
    // Counters delta against the beginMeasurement() snapshot; before
    // it measure_base_ is empty and delta() subtracts zero, so the
    // window is the whole run — the same semantics the hand-kept
    // base_* fields used to have.
    const obs::MetricsSnapshot now = metrics_.snapshot();
    const obs::MetricsSnapshot window = now.delta(measure_base_);
    RunStats stats;
    stats.instructions = window.u64("core.instructions");
    stats.cycles = window.u64("core.cycles");
    stats.l2_misses = window.u64("l2.misses");
    stats.l2_accesses = window.u64("l2.accesses");
    stats.ipc = stats.cycles == 0
                    ? 0.0
                    : static_cast<double>(stats.instructions) /
                          static_cast<double>(stats.cycles);
    stats.data_bytes = window.u64("channel.data_bytes");
    stats.seqnum_bytes = window.u64("channel.seqnum_bytes");
    // Fill and SNC counts report whole-run absolutes, not window
    // deltas (Figure 5/9 consumers want totals).
    stats.fast_fills = engine_->fastFills();
    stats.slow_fills = engine_->slowFills();
    const auto *otp =
        dynamic_cast<const secure::OtpEngine *>(engine_.get());
    stats.snc_query_misses = otp == nullptr ? 0 : otp->snc().queryMisses();
    return stats;
}

void
System::registerMetrics(obs::MetricsRegistry &reg) const
{
    // Component counters, each under its component's prefix; the
    // engine's (SNC counters included) under the model's own name.
    l1i_.registerMetrics(reg, "l1i");
    l1d_.registerMetrics(reg, "l1d");
    l2_.registerMetrics(reg, "l2");
    core_.registerMetrics(reg, "core");
    engine_->registerMetrics(reg, engine_->name());
    if (const mem::DramModel *dram = channel_.dram())
        dram->registerMetrics(reg, "dram");

    // Canonical anchors the measurement window is defined over. The
    // core registers event mixes, not cycles, so these cannot collide
    // with the component names above.
    const OooCore *core = &core_;
    reg.counterFn("core.cycles", [core] { return core->cycles(); });
    reg.counterFn("core.instructions",
                  [core] { return core->instructions(); });
    const mem::Cache *l2 = &l2_;
    reg.counterFn("l2.accesses",
                  [l2] { return l2->hits() + l2->misses(); });

    // Channel traffic: grouped, per category, per agent.
    const mem::MemoryChannel *ch = &channel_;
    reg.counterFn("channel.data_bytes",
                  [ch] { return ch->dataBytes(); });
    reg.counterFn("channel.seqnum_bytes",
                  [ch] { return ch->seqnumBytes(); });
    reg.counterFn("channel.mac_bytes", [ch] { return ch->macBytes(); });
    reg.counterFn("channel.update_bytes",
                  [ch] { return ch->updateBytes(); });
    reg.counterFn("channel.total_bytes",
                  [ch] { return ch->totalBytes(); });
    reg.counterFn("channel.busy_cycles",
                  [ch] { return ch->busyCycles(); });
    for (size_t i = 0;
         i < static_cast<size_t>(mem::Traffic::NumCategories); ++i) {
        const auto category = static_cast<mem::Traffic>(i);
        const std::string name = mem::trafficName(category);
        reg.counterFn("channel." + name + "_bytes",
                      [ch, category] { return ch->bytes(category); });
        reg.counterFn("channel." + name + "_transactions",
                      [ch, category] {
                          return ch->transactions(category);
                      });
    }
    for (size_t i = 0; i < channel_.agentCount(); ++i) {
        const auto agent = static_cast<mem::AgentId>(i);
        const std::string prefix =
            "channel.agent." + channel_.agentName(agent);
        reg.counterFn(prefix + ".bytes",
                      [ch, agent] { return ch->agentBytes(agent); });
        reg.counterFn(prefix + ".transactions", [ch, agent] {
            return ch->agentTransactions(agent);
        });
        reg.counterFn(prefix + ".stall_cycles", [ch, agent] {
            return ch->agentStallCycles(agent);
        });
        reg.gaugeFn(prefix + ".max_stall_cycles", [ch, agent] {
            return static_cast<double>(ch->agentMaxStallCycles(agent));
        });
    }
    reg.counterFn("channel.bg.grants",
                  [ch] { return ch->backgroundGrants(); });
    reg.counterFn("channel.bg.forced_grants",
                  [ch] { return ch->backgroundForcedGrants(); });

    // Shared crypto engine occupancy.
    const crypto::CryptoEngineModel *crypto = &crypto_engine_;
    reg.counterFn("crypto.operations",
                  [crypto] { return crypto->operations(); });
    reg.counterFn("crypto.reserved_operations",
                  [crypto] { return crypto->reservedOperations(); });
    reg.gaugeFn("crypto.busy_until", [crypto] {
        return static_cast<double>(crypto->busyUntil());
    });

    reg.counterFn("sys.context_switches",
                  [this] { return context_switches_; });
    reg.counterFn("sys.switch_flush_spills",
                  [this] { return switch_spills_; });

    // Memory plane: flat-store footprint.
    const mem::MainMemory *memory = &memory_;
    reg.counterFn("mem.pages_resident", [memory] {
        return static_cast<uint64_t>(memory->residentPages());
    });
    reg.gaugeFn("mem.arena_bytes", [memory] {
        return static_cast<double>(memory->arenaBytesReserved());
    });
}

void
System::dumpStats(std::ostream &os) const
{
    channel_.assertFullyAttributed();
    // A fresh registry, not metrics_: channel agents registered after
    // construction (a live installer, an OTA DMA master) must show up
    // in the dump.
    obs::MetricsRegistry registry;
    registerMetrics(registry);
    registry.snapshot().dump(os);
}

SystemConfig
paperConfig(secure::SecurityModel model)
{
    SystemConfig config;
    config.protection.model = model;
    config.protection.crypto.latency = crypto::kPaperCryptoLatency;
    config.protection.line_size = config.l2.line_size;
    config.protection.snc.l2_line_size = config.l2.line_size;
    config.protection.snc.capacity_bytes = 64 * 1024;
    config.protection.snc.bytes_per_entry = 2;
    config.protection.snc.assoc = 0; // fully associative
    config.protection.snc.allow_replacement = true;
    config.channel.access_latency = 100;
    config.channel.transfer_cycles = 16;
    config.channel.line_bytes = config.l2.line_size;
    return config;
}

} // namespace secproc::sim
