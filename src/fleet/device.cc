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

const char *
workloadMixName(WorkloadMix mix)
{
    switch (mix) {
    case WorkloadMix::Idle: return "idle";
    case WorkloadMix::Office: return "office";
    case WorkloadMix::Heavy: return "heavy";
    }
    panic("bad workload mix");
}

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

/** The hardware-variant draw: the first draw of a device's traits
 *  stream, shared by deviceTraits and deviceVariant. */
uint32_t
drawVariant(util::Rng &rng, const FleetDistributions &dist)
{
    double weight_total = 0.0;
    for (const double w : dist.variant_weights)
        weight_total += w;
    fatal_if(weight_total <= 0.0, "fleet needs variant weights");
    double pick = rng.nextDouble() * weight_total;
    for (size_t i = 0; i < dist.variant_weights.size(); ++i) {
        pick -= dist.variant_weights[i];
        if (pick < 0.0)
            return static_cast<uint32_t>(i);
    }
    return static_cast<uint32_t>(dist.variant_weights.size()) - 1;
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
 *  stream arrives over @p link. */
uint64_t
downloadCycles(const ota::TransportConfig &link, uint64_t framed_bytes)
{
    LatestArrival last;
    ota::scheduleArrivals(link, util::ceilDiv(framed_bytes,
                                              link.chunk_bytes),
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

uint32_t
deviceVariant(uint64_t fleet_seed, uint64_t device_id,
              const FleetDistributions &dist)
{
    util::Rng rng(mixSeed(fleet_seed, device_id));
    return drawVariant(rng, dist);
}

DeviceTraits
deviceTraits(uint64_t fleet_seed, uint64_t device_id,
             const FleetDistributions &dist)
{
    util::Rng rng(mixSeed(fleet_seed, device_id));

    DeviceTraits traits;
    traits.seed = mixSeed(fleet_seed ^ 0xF1EE7DEC1CEull, device_id);
    traits.hw_variant = drawVariant(rng, dist);
    traits.engine_latency =
        rng.chance(dist.strong_cipher_fraction) ? 102u : 50u;

    const double link = rng.nextDouble();
    traits.link = link < dist.fiber_fraction ? LinkClass::Fiber
                  : link < dist.fiber_fraction + dist.cellular_fraction
                      ? LinkClass::Cellular
                      : LinkClass::Broadband;

    const double mix = rng.nextDouble();
    traits.mix = mix < dist.idle_fraction ? WorkloadMix::Idle
                 : mix < dist.idle_fraction + dist.heavy_fraction
                     ? WorkloadMix::Heavy
                     : WorkloadMix::Office;

    traits.power_cut_rate =
        rng.nextDouble() * dist.max_power_cut_rate;
    return traits;
}

InstallSim
simulateInstall(const DeviceTraits &traits,
                const InstallCostModel &cost,
                const ota::TransportConfig &transport,
                uint64_t framed_bytes, util::Rng &rng)
{
    const double factor = workloadContentionFactor(traits.mix);
    constexpr uint32_t kMaxRetries = 5;

    InstallSim sim;
    for (uint32_t attempt = 0;; ++attempt) {
        // The first attempt streams on the device's provisioned
        // transport seed (the exact stream an embedded ground-truth
        // device replays); retries re-key the downlink.
        ota::TransportConfig link = transport;
        if (attempt > 0)
            link.seed = mixSeed(transport.seed, attempt);
        const uint64_t cycles = attemptCycles(
            cost, factor, downloadCycles(link, framed_bytes));
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
    return attemptCycles(cost, 1.0,
                         downloadCycles(transport, framed_bytes));
}

} // namespace secproc::fleet
