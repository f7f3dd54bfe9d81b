/**
 * @file
 * fleet_rollout: two staged rollouts on a serial exp::Runner, as
 * bench/fleet_rollout.cc drives them. The faulty scenario under
 * canaryStaged covers the halt and the rollback wave; the healthy
 * scenario with ship_deltas covers delta waves and the full-bundle
 * fallback.
 *
 * The fleet device model, vendor publish and the embedded
 * ground-truth machines do the work here. At 500k devices per rollout
 * the ground-truth LiveInstall machines take about two thirds of it,
 * so fleet changes show up only on this workload, while LiveInstall
 * and timing-plane changes move it too.
 */

#include <algorithm>
#include <memory>

#include "exp/runner.hh"
#include "fleet/rollout.hh"
#include "harness.hh"

namespace perfbench
{
namespace
{

using namespace secproc;

constexpr uint64_t kDevices = 500'000;

/** Pass digest at kDefaultSeed, scale 1 (both rollouts' toJson). */
constexpr uint64_t kExpectedDigest = 0xf42df87adde26f93;

struct Rollout
{
    const char *label;
    fleet::FleetScenario (*scenario)();
    bool ship_deltas;
};

const Rollout kRollouts[] = {
    {"faulty", fleet::fleetScenarioFaulty, false},
    {"healthy_delta", fleet::fleetScenarioHealthy, true},
};

class FleetRollout : public Workload
{
  public:
    explicit FleetRollout(const Options &options)
        : Workload(options), runner_(serial())
    {
    }

    PassResult
    pass(Tracer &tracer) override
    {
        PassResult r;
        Stopwatch setup;
        Stopwatch run;
        Digest digest;
        Tracer::Scope pass_span(tracer, "pass");
        for (const Rollout &rollout : kRollouts) {
            const fleet::FleetScenario scenario = rollout.scenario();
            const fleet::FleetConfig config = fleetConfig(scenario, rollout);
            auto sim = setup.time([&] {
                Tracer::Scope s(tracer, "fleet.ctor");
                return std::make_unique<fleet::FleetSimulator>(
                    config, fleet::RolloutPolicy::canaryStaged(), runner_);
            });
            const fleet::RolloutResult result = run.time([&] {
                Tracer::Scope s(tracer, "fleet.run");
                return sim->run(scenario.defective_variant,
                                scenario.defect_rate);
            });
            check(rollout, result);
            digest.add(result.toJson().dump());

            double gt_err = 0.0;
            for (const fleet::GroundTruthReport &gt : result.ground_truth)
                gt_err = std::max(gt_err, gt.rel_error);
            r.counts["fleet.waves"] += double(result.waves.size());
            r.counts["fleet.halts"] += double(result.halts);
            r.counts["fleet.delta_installs"] += double(result.delta_installs);
            r.counts["fleet.transport_bytes"] +=
                double(result.transport_bytes);
            r.counts["fleet.gt_max_rel_err"] =
                std::max(r.counts["fleet.gt_max_rel_err"], gt_err);
            if (rollout.ship_deltas)
                r.counts["p99_device_hours"] =
                    result.device_hours.percentile(0.99);
            r.work += double(config.devices);
        }
        r.setup_laps = setup.laps();
        r.run_laps = run.laps();
        r.digest = digest.value();
        return r;
    }

    void
    isolate(Tracer &tracer) override
    {
        // The same rollouts without ground-truth machines: the
        // difference is what the embedded LiveInstall devices cost.
        for (const Rollout &rollout : kRollouts) {
            const fleet::FleetScenario scenario = rollout.scenario();
            fleet::FleetConfig config = fleetConfig(scenario, rollout);
            config.ground_truth_devices = 0;
            fleet::FleetSimulator sim(
                config, fleet::RolloutPolicy::canaryStaged(), runner_);
            Tracer::Scope s(tracer, "iso.fleet.run_no_gt");
            checks_.expect(sim.run(scenario.defective_variant,
                                   scenario.defect_rate)
                               .converged,
                           std::string(rollout.label) +
                               " converges without ground truth");
        }
    }

    double passSeconds() const override { return 0.7; }

    uint64_t expectedDigest() const override { return kExpectedDigest; }

    void
    layerMetrics(const LayerTimes &t, const PassResult &last,
                 double untraced_run_s, LayerValues &out) const override
    {
        const double run_s = t.self("fleet.run");
        out["fleet.ctor_ms"] = t.perCall("fleet.ctor") * 1e3;
        out["fleet.run_s"] = run_s;
        out["fleet.ns_per_device"] = run_s / last.work * 1e9;
        out["fleet.ground_truth_s"] =
            run_s - t.self("iso.fleet.run_no_gt");
        out["devices_per_s"] = last.work / untraced_run_s;
    }

  private:
    exp::Runner runner_;

    static exp::RunnerOptions
    serial()
    {
        exp::RunnerOptions options;
        options.threads = 1;
        return options;
    }

    fleet::FleetConfig
    fleetConfig(const fleet::FleetScenario &scenario,
                const Rollout &rollout) const
    {
        fleet::FleetConfig config;
        config.devices = std::max<uint64_t>(
            1000, static_cast<uint64_t>(double(kDevices) * opt_.scale));
        config.fleet_seed = mixSeed(opt_.seed, 0xF1EE7);
        config.dist = scenario.dist;
        config.ship_deltas = rollout.ship_deltas;
        return config;
    }

    void
    check(const Rollout &rollout, const fleet::RolloutResult &result)
    {
        const std::string name = rollout.label;
        checks_.expect(result.converged, name + " rollout converges");
        checks_.expect(!result.ground_truth.empty(),
                       name + " rollout has ground truth");
        for (const fleet::GroundTruthReport &gt : result.ground_truth) {
            checks_.expect(gt.within_tolerance,
                           name + " ground truth within tolerance");
            checks_.expect(gt.functional_ok,
                           name + " ground truth installs functionally");
        }
        if (rollout.ship_deltas)
            checks_.expect(result.delta_installs > 0,
                           name + " rollout ships deltas");
        else
            checks_.expect(result.halts > 0 && result.rollback_waves > 0,
                           name + " rollout halts and rolls back");
    }
};

} // namespace

std::unique_ptr<Workload>
makeFleetRollout(const Options &options)
{
    return std::make_unique<FleetRollout>(options);
}

} // namespace perfbench
