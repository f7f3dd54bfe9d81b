/**
 * @file
 * Cell memoization: keyed shared_futures, the key compared field by
 * field through the configs' defaulted operator<=>.
 */

#include "exp/cell_cache.hh"

#include <compare>
#include <cstdlib>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

namespace secproc::exp
{

namespace
{

std::optional<std::string>
liveEnvironment(const char *name)
{
    const char *value = std::getenv(name);
    if (value == nullptr)
        return std::nullopt;
    return std::string{value};
}

/** Everything a cell's result depends on. */
struct CellKey
{
    std::string bench;
    uint64_t warmup_instructions = 0;
    uint64_t measure_instructions = 0;
    uint64_t seed_override = 0;
    std::optional<std::string> env_warmup;
    std::optional<std::string> env_measure;
    sim::SystemConfig config;

    auto operator<=>(const CellKey &) const = default;
};

struct CellCache
{
    std::mutex mutex;
    std::map<CellKey, std::shared_future<sim::RunStats>> cells;
    size_t hits = 0;
};

CellCache &
cache()
{
    static CellCache instance;
    return instance;
}

} // namespace

sim::RunStats
cachedRunCell(const std::string &bench,
              const sim::SystemConfig &config,
              const RunOptions &options, uint64_t seed_override)
{
    CellKey key{bench,
                options.warmup_instructions,
                options.measure_instructions,
                seed_override,
                liveEnvironment("SECPROC_WARMUP"),
                liveEnvironment("SECPROC_MEASURE"),
                config};

    CellCache &memo = cache();
    std::promise<sim::RunStats> mine;
    std::shared_future<sim::RunStats> result;
    bool compute = false;
    {
        std::lock_guard<std::mutex> lock(memo.mutex);
        const auto it = memo.cells.find(key);
        if (it != memo.cells.end()) {
            ++memo.hits;
            result = it->second; // get() happens outside the lock
        } else {
            result =
                memo.cells.emplace(std::move(key), mine.get_future().share())
                    .first->second;
            compute = true;
        }
    }
    if (!compute)
        return result.get();

    mine.set_value(runCell(bench, config, options, seed_override));
    return result.get();
}

CellCacheStats
cellCacheStats()
{
    CellCache &memo = cache();
    std::lock_guard<std::mutex> lock(memo.mutex);
    return {memo.cells.size(), memo.hits};
}

void
clearCellCache()
{
    CellCache &memo = cache();
    std::lock_guard<std::mutex> lock(memo.mutex);
    memo.cells.clear();
    memo.hits = 0;
}

} // namespace secproc::exp
