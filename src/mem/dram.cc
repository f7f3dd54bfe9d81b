/**
 * @file
 * Banked DRAM timing implementation.
 */

#include "mem/dram.hh"

#include "obs/metrics.hh"
#include "util/logging.hh"

namespace secproc::mem
{

DramModel::DramModel(const DramConfig &config)
    : config_(config), banks_(config.num_banks)
{
    fatal_if(config_.num_banks == 0, "DRAM needs at least one bank");
    fatal_if(config_.row_bytes == 0, "DRAM row size must be non-zero");
    fatal_if(config_.row_hit_latency > config_.row_miss_latency ||
                 config_.row_miss_latency > config_.row_conflict_latency,
             "DRAM latencies must order hit <= miss <= conflict");
}

uint32_t
DramModel::bankIndex(uint64_t addr) const
{
    return static_cast<uint32_t>((addr / config_.row_bytes) %
                                 config_.num_banks);
}

uint64_t
DramModel::rowIndex(uint64_t addr) const
{
    return addr / (config_.row_bytes * config_.num_banks);
}

uint64_t
DramModel::access(uint64_t request_cycle, uint64_t addr)
{
    Bank &bank = banks_[bankIndex(addr)];
    const uint64_t row = rowIndex(addr);

    uint32_t latency;
    if (!bank.row_open) {
        latency = config_.row_miss_latency;
        ++row_misses_;
    } else if (bank.open_row == row) {
        latency = config_.row_hit_latency;
        ++row_hits_;
    } else {
        latency = config_.row_conflict_latency;
        ++row_conflicts_;
    }

    const uint64_t start =
        request_cycle > bank.busy_until ? request_cycle
                                        : bank.busy_until;
    bank.busy_until = start + config_.bank_busy_cycles;
    bank.row_open = !config_.closed_page;
    bank.open_row = row;
    return start + latency;
}

double
DramModel::rowHitRate() const
{
    const uint64_t total = row_hits_.value() + row_misses_.value() +
                           row_conflicts_.value();
    return total == 0 ? 0.0
                      : static_cast<double>(row_hits_.value()) /
                            static_cast<double>(total);
}

void
DramModel::reset()
{
    for (Bank &bank : banks_)
        bank = Bank{};
    row_hits_.reset();
    row_misses_.reset();
    row_conflicts_.reset();
}

void
DramModel::registerMetrics(obs::MetricsRegistry &reg,
                           const std::string &prefix) const
{
    reg.counter(prefix + ".row_hits", &row_hits_);
    reg.counter(prefix + ".row_misses", &row_misses_);
    reg.counter(prefix + ".row_conflicts", &row_conflicts_);
}

} // namespace secproc::mem
