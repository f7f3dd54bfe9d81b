/**
 * @file
 * Memory channel timing implementation.
 */

#include "mem/memory_channel.hh"

#include <algorithm>

#include "util/logging.hh"

namespace secproc::mem
{

MemoryChannel::MemoryChannel(ChannelConfig config)
    : config_(config)
{
    fatal_if(config_.write_buffer_entries == 0,
             "write buffer needs at least one entry");
    if (config_.use_dram)
        dram_ = std::make_unique<DramModel>(config_.dram);
    agent_names_.emplace_back("core");
    agent_bytes_.emplace_back();
    agent_transactions_.emplace_back();
    bg_done_.emplace_back();
    bg_pending_.push_back(false);
    bg_stall_cycles_.push_back(0);
    bg_max_stall_.push_back(0);
}

AgentId
MemoryChannel::registerAgent(const std::string &name)
{
    fatal_if(name.empty(), "channel agents need a name");
    // Names key per-agent metrics and trace tracks, so they must be
    // unique: a second agent under a taken name (two installers on
    // one machine) carries its id as a suffix.
    const bool taken = std::find(agent_names_.begin(), agent_names_.end(),
                                 name) != agent_names_.end();
    agent_names_.push_back(
        taken ? name + "#" + std::to_string(agent_names_.size()) : name);
    agent_bytes_.emplace_back();
    agent_transactions_.emplace_back();
    bg_done_.emplace_back();
    bg_pending_.push_back(false);
    bg_stall_cycles_.push_back(0);
    bg_max_stall_.push_back(0);
    if (trace_ != nullptr)
        agent_tracks_.push_back(
            trace_->track("channel." + agent_names_.back()));
    return static_cast<AgentId>(agent_names_.size() - 1);
}

void
MemoryChannel::setTraceSink(obs::TraceSink *sink)
{
    trace_ = sink;
    agent_tracks_.clear();
    if (sink == nullptr)
        return;
    for (const std::string &name : agent_names_)
        agent_tracks_.push_back(sink->track("channel." + name));
}

const std::string &
MemoryChannel::agentName(AgentId agent) const
{
    panic_if(agent >= agent_names_.size(), "unknown channel agent ",
             agent);
    return agent_names_[agent];
}

uint32_t
MemoryChannel::transferCycles(bool small) const
{
    return small ? config_.small_transfer_cycles
                 : config_.transfer_cycles;
}

void
MemoryChannel::account(Traffic category, bool small, AgentId agent)
{
    const auto idx = static_cast<size_t>(category);
    panic_if(idx >= kNumCategories, "transaction with invalid traffic "
             "category ", idx);
    panic_if(agent >= agent_names_.size(),
             "transaction from unregistered channel agent ", agent);
    const uint64_t size =
        small ? config_.small_bytes : config_.line_bytes;
    bytes_[idx] += size;
    ++transactions_[idx];
    total_bytes_ += size;
    agent_bytes_[agent][idx] += size;
    ++agent_transactions_[agent][idx];
}

void
MemoryChannel::drainWrites(uint64_t now, bool force_all)
{
    // Opportunistic: fill the idle gap [busy_until_, now) with ready
    // writes. Forced: additionally drain (ahead of the waiting read)
    // until the buffer is back under capacity.
    while (!write_queue_.empty()) {
        const PendingWrite &front = write_queue_.front();
        const uint32_t cycles = transferCycles(front.small);
        const uint64_t start =
            std::max(busy_until_, front.ready_cycle);
        const bool fits_in_gap = start + cycles <= now;
        const bool must_force =
            force_all ||
            write_queue_.size() > config_.write_buffer_entries;
        if (!fits_in_gap && !must_force)
            break;
        busy_until_ = start + cycles;
        busy_cycles_ += cycles;
        if (dram_)
            dram_->access(start, front.addr); // disturbs row buffers
        write_queue_.pop_front();
    }
}

void
MemoryChannel::grantBackground(uint64_t now)
{
    // Pending foreground writes own idle gaps first: they were
    // issued earlier and the write buffer must not be starved into
    // force-drains (which would charge the foreground more than the
    // arbiter's bounded intrusion).
    drainWrites(now, /*force_all=*/false);
    // Queue order is grant order: the arbiter is fair among
    // background agents, priority only exists between foreground and
    // background. A request is granted when its transfer fits
    // entirely into bus time the foreground has provably left idle
    // (start + cycles <= now: every foreground transaction up to
    // `now` has already claimed its slot in busy_until_), or when it
    // has starved past the bound — then it takes the next slot ahead
    // of future foreground traffic, a bounded intrusion of one
    // transfer time.
    while (!bg_queue_.empty()) {
        const BgRequest &req = bg_queue_.front();
        const uint32_t cycles = transferCycles(req.small);
        const uint64_t start =
            std::max(busy_until_, req.request_cycle);
        const bool fits_idle = start + cycles <= now;
        const bool starving =
            now >= req.request_cycle + config_.bg_starvation_bound;
        if (!fits_idle && !starving)
            break;
        busy_until_ = start + cycles;
        busy_cycles_ += cycles;
        account(req.category, req.small, req.agent);
        uint64_t completion;
        if (req.write) {
            completion = start + cycles;
            if (dram_)
                dram_->access(start, req.addr);
        } else {
            completion = dram_ ? dram_->access(start, req.addr)
                               : start + config_.access_latency;
        }
        const uint64_t wait = start - req.request_cycle;
        bg_stall_cycles_[req.agent] += wait;
        bg_max_stall_[req.agent] =
            std::max(bg_max_stall_[req.agent], wait);
        bg_done_[req.agent] = completion;
        ++bg_done_count_;
        bg_pending_[req.agent] = false;
        ++bg_grants_;
        bg_forced_ += !fits_idle;
        if (trace_ != nullptr) {
            const obs::TrackId track = agent_tracks_[req.agent];
            trace_->duration(track, trafficName(req.category),
                             req.request_cycle, completion,
                             {{"wait", wait}});
            if (!fits_idle)
                trace_->instant(track, "force_grant", start);
        }
        bg_queue_.pop_front();
    }
}

void
MemoryChannel::requestBackground(uint64_t request_cycle,
                                 Traffic category, bool write,
                                 bool small, uint64_t addr,
                                 AgentId agent)
{
    panic_if(agent == kCoreAgent,
             "the core does not arbitrate against itself: use "
             "scheduleRead/enqueueWrite");
    panic_if(agent >= agent_names_.size(),
             "background request from unregistered channel agent ",
             agent);
    panic_if(bg_pending_[agent] || bg_done_[agent].has_value(),
             "channel agent ", agent, " (", agent_names_[agent],
             ") already has an outstanding background request");
    bg_pending_[agent] = true;
    bg_queue_.push_back(BgRequest{request_cycle, category, write,
                                  small, addr, agent});
}

uint64_t
MemoryChannel::nextArbiterEventCycle() const
{
    // Over-capacity write queues force-drain on any poll regardless
    // of the poll cycle: the very next boundary is an event.
    if (write_queue_.size() > config_.write_buffer_entries)
        return 0;
    uint64_t next = kNoArbiterEvent;
    if (!write_queue_.empty()) {
        const PendingWrite &front = write_queue_.front();
        const uint64_t start =
            std::max(busy_until_, front.ready_cycle);
        next = std::min(next, start + transferCycles(front.small));
    }
    if (!bg_queue_.empty()) {
        const BgRequest &req = bg_queue_.front();
        const uint64_t start =
            std::max(busy_until_, req.request_cycle);
        next = std::min(next, start + transferCycles(req.small));
        next = std::min(next,
                        req.request_cycle + config_.bg_starvation_bound);
    }
    return next;
}

std::optional<uint64_t>
MemoryChannel::pollBackground(AgentId agent, uint64_t now)
{
    panic_if(agent >= agent_names_.size(),
             "background poll from unregistered channel agent ",
             agent);
    grantBackground(now);
    if (!bg_done_[agent].has_value())
        return std::nullopt;
    const uint64_t completion = *bg_done_[agent];
    bg_done_[agent].reset();
    --bg_done_count_;
    return completion;
}

uint64_t
MemoryChannel::agentStallCycles(AgentId agent) const
{
    panic_if(agent >= bg_stall_cycles_.size(),
             "unknown channel agent ", agent);
    return bg_stall_cycles_[agent];
}

uint64_t
MemoryChannel::agentMaxStallCycles(AgentId agent) const
{
    panic_if(agent >= bg_max_stall_.size(), "unknown channel agent ",
             agent);
    return bg_max_stall_[agent];
}

uint64_t
MemoryChannel::scheduleRead(uint64_t request_cycle, Traffic category,
                            bool small, uint64_t addr, AgentId agent)
{
    drainWrites(request_cycle, /*force_all=*/false);
    // Starved background work jumps ahead of this read; anything
    // that fits into the idle gap the foreground left costs it
    // nothing.
    grantBackground(request_cycle);
    // If the buffer is saturated the read waits for forced drains;
    // this is the only way writes touch the critical path.
    if (write_queue_.size() >= config_.write_buffer_entries) {
        while (write_queue_.size() >= config_.write_buffer_entries) {
            const PendingWrite &front = write_queue_.front();
            const uint64_t start =
                std::max(busy_until_, front.ready_cycle);
            busy_until_ = start + transferCycles(front.small);
            busy_cycles_ += transferCycles(front.small);
            if (dram_)
                dram_->access(start, front.addr);
            write_queue_.pop_front();
        }
    }

    const uint64_t start = std::max(request_cycle, busy_until_);
    const uint32_t cycles = transferCycles(small);
    busy_until_ = start + cycles;
    busy_cycles_ += cycles;
    account(category, small, agent);
    const uint64_t done = dram_ ? dram_->access(start, addr)
                                : start + config_.access_latency;
    // Non-core reads only: the core's demand stream is the hot path.
    if (trace_ != nullptr && agent != kCoreAgent) {
        trace_->duration(agent_tracks_[agent],
                         "read." + trafficName(category), start, done);
    }
    return done;
}

void
MemoryChannel::enqueueWrite(uint64_t ready_cycle, Traffic category,
                            bool small, uint64_t addr, AgentId agent)
{
    account(category, small, agent);
    if (trace_ != nullptr && agent != kCoreAgent) {
        trace_->instant(agent_tracks_[agent],
                        "write." + trafficName(category), ready_cycle);
    }
    write_queue_.push_back(PendingWrite{ready_cycle, small, addr});
    // Keep the queue bounded even if no read ever arrives again.
    if (write_queue_.size() > 4 * config_.write_buffer_entries)
        drainWrites(ready_cycle, /*force_all=*/true);
}

uint64_t
MemoryChannel::bytes(Traffic category) const
{
    return bytes_[static_cast<size_t>(category)];
}

uint64_t
MemoryChannel::transactions(Traffic category) const
{
    return transactions_[static_cast<size_t>(category)];
}

uint64_t
MemoryChannel::dataBytes() const
{
    return bytes(Traffic::DataFill) + bytes(Traffic::DataWriteback);
}

uint64_t
MemoryChannel::seqnumBytes() const
{
    return bytes(Traffic::SeqnumFetch) + bytes(Traffic::SeqnumWriteback);
}

uint64_t
MemoryChannel::macBytes() const
{
    return bytes(Traffic::MacFetch) + bytes(Traffic::MacWriteback);
}

uint64_t
MemoryChannel::updateBytes() const
{
    return bytes(Traffic::UpdateFill) + bytes(Traffic::UpdateWriteback);
}

uint64_t
MemoryChannel::agentBytes(AgentId agent, Traffic category) const
{
    panic_if(agent >= agent_bytes_.size(), "unknown channel agent ",
             agent);
    return agent_bytes_[agent][static_cast<size_t>(category)];
}

uint64_t
MemoryChannel::agentBytes(AgentId agent) const
{
    panic_if(agent >= agent_bytes_.size(), "unknown channel agent ",
             agent);
    uint64_t sum = 0;
    for (const uint64_t value : agent_bytes_[agent])
        sum += value;
    return sum;
}

uint64_t
MemoryChannel::agentTransactions(AgentId agent) const
{
    panic_if(agent >= agent_transactions_.size(),
             "unknown channel agent ", agent);
    uint64_t sum = 0;
    for (const uint64_t value : agent_transactions_[agent])
        sum += value;
    return sum;
}

std::vector<MemoryChannel::CategoryRow>
MemoryChannel::byCategory() const
{
    std::vector<CategoryRow> rows;
    rows.reserve(kNumCategories);
    for (size_t i = 0; i < kNumCategories; ++i) {
        const auto category = static_cast<Traffic>(i);
        rows.push_back(CategoryRow{category, trafficName(category),
                                   bytes_[i], transactions_[i]});
    }
    return rows;
}

void
MemoryChannel::assertFullyAttributed() const
{
    // Every category must belong to exactly one named group. The
    // static_assert pins the enum size so adding a category forces
    // whoever adds it to place it in a group (or extend the groups)
    // here and in the accessors above.
    static_assert(kNumCategories == 8,
                  "new Traffic category: add it to a grouped accessor "
                  "(dataBytes/seqnumBytes/macBytes/updateBytes), to "
                  "trafficName(), and update this assert");
    const uint64_t grouped =
        dataBytes() + seqnumBytes() + macBytes() + updateBytes();
    panic_if(grouped != total_bytes_,
             "memory channel traffic is not fully attributed: ",
             total_bytes_ - grouped, " of ", total_bytes_,
             " bytes belong to no category group");
}

void
MemoryChannel::reset()
{
    busy_until_ = 0;
    busy_cycles_ = 0;
    write_queue_.clear();
    bg_queue_.clear();
    for (auto &done : bg_done_)
        done.reset();
    bg_done_count_ = 0;
    std::fill(bg_pending_.begin(), bg_pending_.end(), false);
    std::fill(bg_stall_cycles_.begin(), bg_stall_cycles_.end(), 0);
    std::fill(bg_max_stall_.begin(), bg_max_stall_.end(), 0);
    bg_grants_ = 0;
    bg_forced_ = 0;
    bytes_.fill(0);
    transactions_.fill(0);
    total_bytes_ = 0;
    for (auto &table : agent_bytes_)
        table.fill(0);
    for (auto &table : agent_transactions_)
        table.fill(0);
    if (dram_)
        dram_->reset();
}

std::string
trafficName(Traffic category)
{
    switch (category) {
      case Traffic::DataFill: return "data_fill";
      case Traffic::DataWriteback: return "data_writeback";
      case Traffic::SeqnumFetch: return "seqnum_fetch";
      case Traffic::SeqnumWriteback: return "seqnum_writeback";
      case Traffic::MacFetch: return "mac_fetch";
      case Traffic::MacWriteback: return "mac_writeback";
      case Traffic::UpdateFill: return "update_fill";
      case Traffic::UpdateWriteback: return "update_writeback";
      case Traffic::NumCategories: break;
    }
    return "unknown";
}

} // namespace secproc::mem
