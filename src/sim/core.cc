/**
 * @file
 * Windowed out-of-order core implementation.
 */

#include "sim/core.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace secproc::sim
{

OooCore::OooCore(const CoreConfig &config, MemorySystem &memory)
    : config_(config), memory_(memory)
{
    fatal_if(config_.rob_size == 0, "ROB needs at least one entry");
    fatal_if(config_.width == 0, "dispatch width must be >= 1");
    rob_.assign(config_.rob_size, 0);
    recent_.assign(kRecentWindow, 0);
}

uint64_t
OooCore::producerReady(const TraceOp &op) const
{
    uint64_t ready = 0;
    for (const uint8_t dep : {op.dep1, op.dep2}) {
        if (dep == 0 || dep > instructions_)
            continue;
        // recent_pos_ holds the completion of the previous op
        // (distance 1), so distance d lives d-1 slots behind it.
        const size_t idx =
            (recent_pos_ + kRecentWindow - (dep - 1)) &
            (kRecentWindow - 1);
        ready = std::max(ready, recent_[idx]);
    }
    return ready;
}

uint64_t
OooCore::takeDispatchSlot(uint64_t earliest)
{
    if (earliest > dispatch_cycle_) {
        dispatch_cycle_ = earliest;
        dispatched_this_cycle_ = 0;
    }
    if (dispatched_this_cycle_ >= config_.width) {
        ++dispatch_cycle_;
        dispatched_this_cycle_ = 0;
    }
    ++dispatched_this_cycle_;
    return dispatch_cycle_;
}

void
OooCore::step(const TraceOp &op)
{
    uint64_t earliest = fetch_ready_;

    // Instruction fetch: charged when the stream enters a new line.
    if (op.fetch_line != 0) {
        const uint64_t base = std::max(dispatch_cycle_, fetch_ready_);
        fetch_ready_ = memory_.ifetch(op.fetch_line, base);
        earliest = std::max(earliest, fetch_ready_);
    }

    // Window stall: the oldest entry must retire to free a slot.
    if (rob_count_ == config_.rob_size) {
        earliest = std::max(earliest, rob_[rob_head_]);
        // Branch-free-enough wrap; rob_size is not a compile-time
        // constant, so % here would be a hardware divide per step.
        if (++rob_head_ == config_.rob_size)
            rob_head_ = 0;
        --rob_count_;
    }

    const uint64_t dispatch = takeDispatchSlot(earliest);
    const uint64_t ready = std::max(dispatch, producerReady(op));

    uint64_t completion;
    switch (op.cls) {
      case OpClass::IntAlu:
        completion = ready + config_.int_latency;
        break;
      case OpClass::IntMul:
        completion = ready + config_.mul_latency;
        break;
      case OpClass::FpAlu:
        completion = ready + config_.fp_latency;
        break;
      case OpClass::Load:
        completion = memory_.dataAccess(op.addr, ready, false);
        ++loads_;
        if (config_.blocking_loads && completion > dispatch_cycle_) {
            // In-order core: nothing issues under the miss.
            dispatch_cycle_ = completion;
            dispatched_this_cycle_ = 0;
        }
        break;
      case OpClass::Store:
        // Stores retire through the store buffer without stalling
        // the window; the access still updates cache and memory
        // state (and may trigger a write-allocate fill).
        memory_.dataAccess(op.addr, ready, true);
        completion = ready + 1;
        ++stores_;
        break;
      case OpClass::Branch:
        completion = ready + config_.int_latency;
        ++branches_;
        if (op.mispredict) {
            fetch_ready_ =
                std::max(fetch_ready_,
                         completion + config_.redirect_penalty);
            ++mispredicts_;
        }
        break;
      default:
        panic("unhandled op class");
    }

    // In-order retirement: the ROB sees monotonic completion.
    retire_horizon_ = std::max(retire_horizon_, completion);
    size_t tail = rob_head_ + rob_count_;
    if (tail >= config_.rob_size)
        tail -= config_.rob_size;
    rob_[tail] = retire_horizon_;
    ++rob_count_;

    // Dataflow completion feeds dependents (not monotonicized).
    recent_pos_ = (recent_pos_ + 1) & (kRecentWindow - 1);
    recent_[recent_pos_] = completion;

    ++instructions_;
}

uint64_t
OooCore::cycles() const
{
    return std::max(dispatch_cycle_, retire_horizon_);
}

void
OooCore::reset()
{
    dispatch_cycle_ = 0;
    dispatched_this_cycle_ = 0;
    fetch_ready_ = 0;
    instructions_ = 0;
    retire_horizon_ = 0;
    rob_head_ = 0;
    rob_count_ = 0;
    std::fill(rob_.begin(), rob_.end(), 0);
    std::fill(recent_.begin(), recent_.end(), 0);
    recent_pos_ = 0;
    loads_.reset();
    stores_.reset();
    branches_.reset();
    mispredicts_.reset();
}

void
OooCore::registerMetrics(obs::MetricsRegistry &reg,
                         const std::string &prefix) const
{
    reg.counter(prefix + ".loads", &loads_);
    reg.counter(prefix + ".stores", &stores_);
    reg.counter(prefix + ".branches", &branches_);
    reg.counter(prefix + ".mispredicts", &mispredicts_);
}

} // namespace secproc::sim
