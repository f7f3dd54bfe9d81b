/**
 * @file
 * Full-system wiring: core + L1I/L1D + unified L2 + memory channel +
 * protection engine + (optionally) functional byte movement.
 *
 * Reproduces the paper's simulated machine (Section 5): 4-issue
 * out-of-order core, 32KB split 4-way L1s, 256KB 4-way unified L2
 * with 128B lines, 100-cycle memory, 50-cycle crypto engine, with
 * the protection engine selecting baseline / XOM / OTP+SNC.
 */

#ifndef SECPROC_SIM_SYSTEM_HH
#define SECPROC_SIM_SYSTEM_HH

#include <utility>
#include <memory>
#include <optional>
#include <string>

#include "crypto/latency.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "mem/memory_channel.hh"
#include "mem/on_chip_store.hh"
#include "mem/virtual_memory.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "secure/engines.hh"
#include "secure/protection_engine.hh"
#include "sim/agent.hh"
#include "sim/core.hh"
#include "sim/workload.hh"

namespace secproc::sim
{

/**
 * Which cycle-plane scheduler run() uses when agents are attached.
 * Results are bit-identical; only wall-clock differs. Selected per
 * System from the SECPROC_KERNEL environment variable ("event" —
 * the default — or "legacy"), overridable via setKernelMode().
 */
enum class KernelMode
{
    /**
     * Event-driven: after each pump the kernel takes the earliest of
     * the agents' conservative wakeups
     * (BackgroundAgent::nextEventCycle), and the pump only runs at
     * boundaries that reach it — idle spans cost O(1).
     */
    Event,
    /** Pump every agent after every core step (pre-event kernel). */
    Legacy,
};

/** Kernel selected by SECPROC_KERNEL (unset means Event). */
KernelMode kernelModeFromEnvironment();

/** One task of a multi-programmed run. */
struct TaskSpec
{
    /** Instruction stream (not owned; must outlive the System). */
    Workload *workload = nullptr;

    /** XOM compartment the task's software was encrypted for. */
    secure::CompartmentId compartment = 1;
};

/**
 * How the SNC is protected across context switches (paper Section
 * 4.3 poses the question and leaves it open; the multitask bench
 * answers it).
 */
enum class SncSwitchPolicy
{
    /** Entries are compartment-tagged and survive switches. */
    Tag,
    /** The SNC is flushed (encrypted spill) on every switch. */
    Flush,
};

/** Complete machine description. */
struct SystemConfig
{
    CoreConfig core;
    mem::CacheConfig l1i;
    mem::CacheConfig l1d;
    mem::CacheConfig l2;
    mem::ChannelConfig channel;
    secure::ProtectionConfig protection;
    secure::CipherKind cipher = secure::CipherKind::Des;

    /** Outstanding L2 misses allowed (miss-level parallelism). */
    uint32_t mshrs = 8;

    /** Move and verify real bytes through real crypto. */
    bool functional = false;

    SystemConfig();
};

/** End-of-run summary. */
struct RunStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t l2_misses = 0;
    uint64_t l2_accesses = 0;
    double ipc = 0.0;
    uint64_t data_bytes = 0;    ///< line traffic on the bus
    uint64_t seqnum_bytes = 0;  ///< SNC-induced traffic
    uint64_t fast_fills = 0;
    uint64_t slow_fills = 0;
    uint64_t snc_query_misses = 0;
};

/**
 * One simulated machine instance running one workload.
 */
class System : public MemorySystem
{
  public:
    /**
     * @param config Machine description.
     * @param workload Instruction stream source (not owned).
     */
    System(const SystemConfig &config, Workload &workload);

    /**
     * Multi-programmed machine: every task's image is loaded (and
     * its regions pre-initialized) up front; task 0 starts active.
     * Tasks must use disjoint va_offset ranges.
     *
     * An empty list builds an idle machine, on which no program has
     * run: no region is pre-initialized and an LRU SNC starts empty,
     * with no history fill. It hosts installs that drive their own
     * idle clock (InstallTiming::replay); run() is fatal.
     */
    System(const SystemConfig &config, std::vector<TaskSpec> tasks);

    /**
     * Run @p instructions more instructions of the active task
     * (fatal on an idle machine).
     */
    void run(uint64_t instructions);

    /**
     * Attach a background agent (not owned; must outlive the runs it
     * is attached for). The agent is advanced after every core step,
     * so its channel transactions and crypto-engine reservations
     * contend with the foreground workload deterministically.
     */
    void attachAgent(BackgroundAgent *agent);

    /** Override the environment-selected kernel (tests, tools). */
    void setKernelMode(KernelMode mode) { kernel_ = mode; }

    /**
     * Machine reset (power cycle mid-run): quiesce the shared timing
     * resources and every attached agent's in-flight work — the
     * memory channel (write buffer, arbiter queues, counters), the
     * shared crypto engine's occupancy, the MSHR ledger, and each
     * BackgroundAgent (a half-finished install is abandoned; its
     * functional side effects, like a partially written staging
     * slot, stay in memory exactly as a real power cut would leave
     * them). Security state and cache contents are untouched.
     */
    void reset();

    /**
     * Context-switch to task @p idx (paper Section 4.3): selects its
     * compartment and applies the SNC protection policy. Counts a
     * switch even when idx is the active task.
     */
    void switchToTask(size_t idx, SncSwitchPolicy policy);

    /** Tasks on this machine. */
    size_t taskCount() const { return tasks_.size(); }

    /** Index of the task currently executing. */
    size_t activeTask() const { return active_task_; }

    /** Context switches performed so far. */
    uint64_t contextSwitches() const { return context_switches_; }

    /** SNC entries spilled by Flush-policy switches so far. */
    uint64_t switchFlushSpills() const { return switch_spills_; }

    /**
     * Mark stats measured from this point (call after warm-up).
     * Cycle and instruction counts in stats() become deltas.
     */
    void beginMeasurement();

    /** Summary over the measurement window. */
    RunStats stats() const;

    // MemorySystem interface (called by the core).
    uint64_t dataAccess(uint64_t vaddr, uint64_t cycle,
                        bool store) override;
    uint64_t ifetch(uint64_t line_va, uint64_t cycle) override;

    /** Component access for tests and reports. @{ */
    const mem::Cache &l2() const { return l2_; }
    const mem::MemoryChannel &channel() const { return channel_; }
    mem::MemoryChannel &channel() { return channel_; }
    crypto::CryptoEngineModel &cryptoEngine() { return crypto_engine_; }
    const crypto::CryptoEngineModel &cryptoEngine() const
    {
        return crypto_engine_;
    }
    secure::ProtectionEngine &engine() { return *engine_; }
    const secure::ProtectionEngine &engine() const { return *engine_; }
    OooCore &core() { return core_; }
    mem::MainMemory &mainMemory() { return memory_; }
    mem::VirtualMemory &virtualMemory() { return vm_; }
    /** @} */

    /**
     * Register every machine metric with @p reg under its canonical
     * hierarchical name: each cache's, the core's and the engine's
     * own counters under "l1i", "l1d", "l2", "core" and the model's
     * name, DRAM row-buffer counters under "dram" on a banked
     * channel, plus channel traffic (total, per category, per
     * agent), arbiter grants and stalls, crypto-engine occupancy and
     * measurement anchors ("core.cycles", "l2.accesses", ...). The
     * registry binds live sources, so one registration serves any
     * number of later snapshots. Agents registered with the channel
     * *after* this call are absent — build a fresh registry (as
     * dumpStats does) to pick them up.
     */
    void registerMetrics(obs::MetricsRegistry &reg) const;

    /** The system-lifetime registry backing stats(). */
    const obs::MetricsRegistry &metrics() const { return metrics_; }

    /**
     * Attach @p sink (nullptr detaches) to every traced component:
     * the memory channel's arbiter, the shared crypto engine's
     * reservations, and every attached agent (agents attached later
     * inherit the sink). The System's own "system" track carries
     * context-switch and machine-reset instants. Tracing only
     * records what already happened — timing is bit-identical with
     * or without a sink.
     */
    void setTraceSink(obs::TraceSink *sink);

    /** Dump all component statistics (a fresh-registry snapshot). */
    void dumpStats(std::ostream &os) const;

  private:
    SystemConfig config_;
    std::vector<TaskSpec> tasks_;
    size_t active_task_ = 0;
    uint64_t context_switches_ = 0;
    uint64_t switch_spills_ = 0;

    mem::VirtualMemory vm_;
    secure::KeyTable keys_;
    mem::MemoryChannel channel_;
    /** The machine's one crypto engine, shared by every agent. */
    crypto::CryptoEngineModel crypto_engine_;
    std::unique_ptr<secure::ProtectionEngine> engine_;
    /** Attached background agents (not owned). */
    std::vector<BackgroundAgent *> agents_;
    /** Scheduler for run()'s agent pump. */
    KernelMode kernel_ = KernelMode::Event;
    mem::Cache l1i_;
    mem::Cache l1d_;
    mem::Cache l2_;
    mem::MainMemory memory_;
    mem::OnChipStore onchip_;
    OooCore core_;

    mem::Asid asid_ = 1;

    /**
     * Outstanding L2 misses: (line, completion cycle), kept sorted
     * by line address. The ledger is bounded by the MSHR count, so a
     * flat sorted vector beats a node-based map on the L2 hit path
     * (probed on every hit for in-flight secondaries) while keeping
     * the same key-ordered iteration a std::map gave: the capacity
     * loop's earliest-completion scan still breaks completion-cycle
     * ties toward the lowest line address.
     */
    std::vector<std::pair<uint64_t, uint64_t>> outstanding_;

    /** Functional-store content counter (see functionalStore). */
    uint64_t store_salt_ = 0;

    /**
     * One line-sized scratch buffer reused by every functional fill
     * and evict, so the per-miss byte movement never allocates.
     */
    std::vector<uint8_t> line_scratch_;

    /** System-lifetime metrics (bound once, in the constructor). */
    obs::MetricsRegistry metrics_;
    /** Snapshot taken by beginMeasurement(); empty before it. */
    obs::MetricsSnapshot measure_base_;

    obs::TraceSink *trace_ = nullptr;
    obs::TrackId trace_track_ = 0;

    /** The active task's workload. */
    Workload &workload() const;

    /**
     * Earliest nextEventCycle() of the attached agents at the
     * current core clock (kNeverCycle when no agent is attached).
     */
    uint64_t nextWakeup() const;

    uint64_t lineAlign(uint64_t addr) const;
    uint64_t accessL2(uint64_t vaddr, uint64_t cycle, bool ifetch,
                      bool store);
    uint64_t handleL2Miss(uint64_t line_va, uint64_t cycle, bool ifetch,
                          bool store);
    void handleL2Victim(const mem::Victim &victim, uint64_t cycle);
    void installKeys();
    void registerPlaintextRegions();

    /**
     * Bring the machine to the steady state the paper measures in:
     * every task's preinitialized regions warmed (one
     * ProtectionEngine::warmRun per region, in task and region
     * order), then an LRU SNC's history fill
     * (OtpEngine::fillHistory), both computed rather than replayed;
     * then each live set primed line by line through planEvict, in
     * the program's access order.
     */
    void preinitializeRegions();

    /**
     * Functional preinitialization: encrypt a line of zeros, its
     * first eight bytes tagged with its address when @p tagged, as
     * @p plan says, and write it to memory.
     */
    void writeInitialLine(const secure::EvictPlan &plan, bool tagged);

    // Functional plane helpers.
    void functionalFill(const secure::FillPlan &plan);
    void functionalStore(uint64_t vaddr);
};

/** The paper's Section 5 baseline machine for a given model. */
SystemConfig paperConfig(secure::SecurityModel model);

} // namespace secproc::sim

#endif // SECPROC_SIM_SYSTEM_HH
