/**
 * @file
 * Lightweight fleet device model implementation.
 */

#include "fleet/device.hh"

#include <algorithm>
#include <cmath>

#include "util/bitops.hh"
#include "util/logging.hh"

namespace secproc::fleet
{

double
workloadContentionFactor(WorkloadMix mix)
{
    // Stretch bands for an arbiter-paced install sharing the bus
    // with the named foreground intensity; anchored to the
    // live_install bench's measured gap between an idle machine and
    // the art-like bus-saturating mix.
    switch (mix) {
    case WorkloadMix::Idle: return 1.0;
    case WorkloadMix::Office: return 1.12;
    case WorkloadMix::Heavy: return 1.45;
    }
    panic("bad workload mix");
}

const char *
linkClassName(LinkClass link)
{
    switch (link) {
    case LinkClass::Fiber: return "fiber";
    case LinkClass::Broadband: return "broadband";
    case LinkClass::Cellular: return "cellular";
    }
    panic("bad link class");
}

ota::TransportConfig
linkTransport(LinkClass link)
{
    // Rates in device cycles at the nominal 1 GHz clock: a 1 KB
    // chunk every cycles_per_chunk cycles.
    ota::TransportConfig t;
    t.chunk_bytes = 1024;
    switch (link) {
    case LinkClass::Fiber:
        t.cycles_per_chunk = 8'000;        // ~1 Gb/s
        t.loss_rate = 0.001;
        t.burst_length = 1.5;
        t.retransmit_delay = 2'000'000;    // ~2 ms NACK RTT
        break;
    case LinkClass::Broadband:
        t.cycles_per_chunk = 160'000;      // ~50 Mb/s
        t.loss_rate = 0.01;
        t.burst_length = 2.0;
        t.reorder_rate = 0.01;
        t.reorder_window = 4;
        t.retransmit_delay = 20'000'000;   // ~20 ms
        break;
    case LinkClass::Cellular:
        t.cycles_per_chunk = 8'000'000;    // ~1 Mb/s
        t.loss_rate = 0.08;
        t.burst_length = 3.0;
        t.reorder_rate = 0.05;
        t.reorder_window = 8;
        t.retransmit_delay = 100'000'000;  // ~100 ms
        break;
    }
    return t;
}

LinkSchedule::LinkSchedule(LinkClass link)
    : transport(linkTransport(link)), odds(transport)
{
}

uint64_t
mixSeed(uint64_t a, uint64_t b)
{
    uint64_t z = a ^ (b + 0x9E3779B97F4A7C15ull + (a << 6) + (a >> 2));
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    return z == 0 ? 1 : z;
}

namespace
{

/**
 * The weighted variant pick for the 53-bit draw @p k: the draw's
 * nextDouble() times @p total, minus each weight in turn until it
 * goes negative. Only DeviceSampler's constructor evaluates it, to
 * find where each variant starts.
 */
uint32_t
weightedPick(uint64_t k, const std::vector<double> &weights,
             double total)
{
    double pick = static_cast<double>(k) * 0x1.0p-53 * total;
    for (size_t i = 0; i < weights.size(); ++i) {
        pick -= weights[i];
        if (pick < 0.0)
            return static_cast<uint32_t>(i);
    }
    return static_cast<uint32_t>(weights.size()) - 1;
}

/** @p p is a probability; NaN is not. */
bool
isFraction(double p)
{
    return p >= 0.0 && p <= 1.0;
}

/** The one OTA schedule's visitor for a lightweight download: only
 *  the latest arrival matters (Transport::completionCycle()). */
struct LatestArrival
{
    uint64_t cycle = 0;

    void arrive(uint64_t, uint64_t at) { cycle = std::max(cycle, at); }
    void lose(uint64_t, uint64_t) {}
    void endPass(uint64_t, uint64_t) {}
};

/** Cycles from dispatch until the last chunk of a @p framed_bytes
 *  stream arrives over @p link, whose constants are @p odds. */
uint64_t
downloadCycles(const ota::TransportConfig &link,
               const ota::ScheduleOdds &odds, uint64_t framed_bytes)
{
    LatestArrival last;
    ota::scheduleArrivals(link, odds,
                          util::ceilDiv(framed_bytes, link.chunk_bytes),
                          0, last);
    return last.cycle;
}

/** One attempt's cycles: download overlapped against the (possibly
 *  contended) admission read, then the stretched pipeline tail. */
uint64_t
attemptCycles(const InstallCostModel &cost, double factor,
              uint64_t download_cycles)
{
    const double read =
        static_cast<double>(cost.admission_read_cycles) * factor;
    const double overlap =
        std::max(static_cast<double>(download_cycles), read);
    const double tail =
        static_cast<double>(cost.admission_sig_cycles +
                            cost.post_admission_cycles) *
        factor;
    return static_cast<uint64_t>(overlap + tail);
}

} // namespace

DeviceSampler::DeviceSampler(const FleetDistributions &dist)
{
    const std::vector<double> &weights = dist.variant_weights;
    double total = 0.0;
    for (const double w : weights) {
        fatal_if(!(w >= 0.0 && std::isfinite(w)),
                 "variant weights must be finite and non-negative, got ",
                 w);
        total += w;
    }
    fatal_if(!(total > 0.0 && std::isfinite(total)),
             "variant weights must have a finite positive sum, got ",
             total);
    fatal_if(!isFraction(dist.strong_cipher_fraction),
             "strong-cipher fraction must be in [0, 1], got ",
             dist.strong_cipher_fraction);
    fatal_if(!(isFraction(dist.fiber_fraction) &&
               isFraction(dist.cellular_fraction) &&
               dist.fiber_fraction + dist.cellular_fraction <= 1.0),
             "link fractions must be in [0, 1] and sum to at most 1, "
             "got fiber ", dist.fiber_fraction, " cellular ",
             dist.cellular_fraction);
    fatal_if(!(isFraction(dist.idle_fraction) &&
               isFraction(dist.heavy_fraction) &&
               dist.idle_fraction + dist.heavy_fraction <= 1.0),
             "workload-mix fractions must be in [0, 1] and sum to at "
             "most 1, got idle ", dist.idle_fraction, " heavy ",
             dist.heavy_fraction);
    fatal_if(!isFraction(dist.max_power_cut_rate),
             "max power-cut rate must be in [0, 1], got ",
             dist.max_power_cut_rate);

    // Variant i starts at the least draw whose pick is at least i.
    // The pick never decreases as the draw grows, so each start is a
    // binary search from the previous one: 54 picks per variant.
    uint64_t start = 0;
    for (size_t i = 1; i < weights.size(); ++i) {
        uint64_t end = util::Rng::kDrawSpan;
        while (start < end) {
            const uint64_t mid = start + (end - start) / 2;
            if (weightedPick(mid, weights, total) >= i)
                end = mid;
            else
                start = mid + 1;
        }
        starts_.push_back(start);
    }

    strong_cipher_ = util::Rng::odds(dist.strong_cipher_fraction);
    fiber_ = util::Rng::threshold(dist.fiber_fraction);
    fiber_or_cellular_ = util::Rng::threshold(dist.fiber_fraction +
                                              dist.cellular_fraction);
    idle_ = util::Rng::threshold(dist.idle_fraction);
    idle_or_heavy_ = util::Rng::threshold(dist.idle_fraction +
                                          dist.heavy_fraction);
    max_power_cut_rate_ = dist.max_power_cut_rate;
}

uint32_t
DeviceSampler::variantOf(uint64_t k) const
{
    uint32_t variant = 0;
    for (const uint64_t start : starts_)
        variant += k >= start ? 1u : 0u;
    return variant;
}

uint32_t
DeviceSampler::variant(uint64_t fleet_seed, uint64_t device_id) const
{
    util::Rng rng(mixSeed(fleet_seed, device_id));
    return variantOf(rng.next53());
}

DeviceTraits
DeviceSampler::traits(uint64_t fleet_seed, uint64_t device_id) const
{
    util::Rng rng(mixSeed(fleet_seed, device_id));

    DeviceTraits traits;
    traits.seed = mixSeed(fleet_seed ^ 0xF1EE7DEC1CEull, device_id);
    traits.hw_variant = variantOf(rng.next53());
    traits.engine_latency = rng.chance(strong_cipher_) ? 102u : 50u;

    const uint64_t link = rng.next53();
    traits.link = link < fiber_              ? LinkClass::Fiber
                  : link < fiber_or_cellular_ ? LinkClass::Cellular
                                              : LinkClass::Broadband;

    const uint64_t mix = rng.next53();
    traits.mix = mix < idle_            ? WorkloadMix::Idle
                 : mix < idle_or_heavy_ ? WorkloadMix::Heavy
                                        : WorkloadMix::Office;

    traits.power_cut_rate = rng.nextDouble() * max_power_cut_rate_;
    return traits;
}

InstallSim
simulateInstall(const DeviceTraits &traits,
                const InstallCostModel &cost,
                const LinkSchedule &link, uint64_t transport_seed,
                uint64_t framed_bytes, util::Rng &rng)
{
    const double factor = workloadContentionFactor(traits.mix);
    constexpr uint32_t kMaxRetries = 5;

    ota::TransportConfig transport = link.transport;
    InstallSim sim;
    for (uint32_t attempt = 0;; ++attempt) {
        // The first attempt streams on the device's provisioned
        // transport seed (the exact stream an embedded ground-truth
        // device replays); retries re-key the downlink.
        transport.seed = attempt == 0 ? transport_seed
                                      : mixSeed(transport_seed, attempt);
        const uint64_t cycles = attemptCycles(
            cost, factor,
            downloadCycles(transport, link.odds, framed_bytes));
        if (attempt < kMaxRetries &&
            rng.chance(traits.power_cut_rate)) {
            // Conservative recovery model: the cut lands uniformly
            // inside the attempt and the retry restarts the whole
            // download (the A/B slot survives, the stream does not).
            sim.cycles += static_cast<uint64_t>(
                rng.nextDouble() * static_cast<double>(cycles));
            ++sim.power_cut_retries;
            continue;
        }
        sim.cycles += cycles;
        return sim;
    }
}

uint64_t
predictCleanInstallCycles(const InstallCostModel &cost,
                          const ota::TransportConfig &transport,
                          uint64_t framed_bytes)
{
    return attemptCycles(
        cost, 1.0,
        downloadCycles(transport, ota::ScheduleOdds(transport),
                       framed_bytes));
}

} // namespace secproc::fleet
