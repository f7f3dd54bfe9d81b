/**
 * @file
 * Helpers the simulating workloads share: seeded profiles and the
 * workload-generation isolation pass.
 */

#ifndef PERFBENCH_SIM_HELPERS_HH
#define PERFBENCH_SIM_HELPERS_HH

#include <algorithm>
#include <cstdint>

#include "harness.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"

namespace perfbench
{

/** Profile @p name with its calibrated seed mixed with @p seed. */
inline secproc::sim::WorkloadProfile
seededProfile(const char *name, uint64_t seed)
{
    secproc::sim::WorkloadProfile profile =
        secproc::sim::benchmarkProfile(name);
    profile.rng_seed = mixSeed(seed, profile.rng_seed);
    return profile;
}

/**
 * Instructions per System::run call. Each call is one timed lap (and
 * one span), small enough that host-contention bursts spoil only a
 * few laps of a pass; splitting a run does not change its results.
 */
inline constexpr uint64_t kStep = 10'000;

/** Run @p instructions in kStep laps, each under one @p span. */
inline void
runSteps(Tracer &tracer, Stopwatch &run, secproc::sim::System &system,
         uint64_t instructions, const char *span)
{
    for (uint64_t ran = 0; ran < instructions; ran += kStep) {
        const uint64_t step = std::min(kStep, instructions - ran);
        run.time([&] {
            Tracer::Scope s(tracer, span);
            system.run(step);
        });
    }
}

/**
 * Generate ops[i] ops of profiles[i] under one "iso.sim.workload.next"
 * span per profile, outside any machine.
 * @return the ops generated.
 */
template <size_t N>
uint64_t
isolateWorkloadGeneration(Tracer &tracer, const char *const (&profiles)[N],
                          uint64_t seed, const uint64_t (&ops)[N],
                          Checks &checks)
{
    uint64_t sink = 0;
    uint64_t total = 0;
    for (size_t p = 0; p < N; ++p) {
        secproc::sim::SyntheticWorkload workload(
            seededProfile(profiles[p], seed), 128);
        Tracer::Scope s(tracer, "iso.sim.workload.next");
        for (uint64_t i = 0; i < ops[p]; ++i)
            sink += workload.next().addr;
        total += ops[p];
    }
    checks.expect(sink != 0, "workload generation produced addresses");
    return total;
}

} // namespace perfbench

#endif // PERFBENCH_SIM_HELPERS_HH
