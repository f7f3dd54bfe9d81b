/**
 * @file
 * paper_timing: the timing plane alone. The paper's Section 5
 * machines (Baseline, XOM, OTP+SNC without replacement, OTP+SNC with
 * LRU) each run gcc, mcf, art and gzip with no functional plane and
 * no agents, warm-up then measurement.
 *
 * The four profiles pull the timing plane in different directions:
 * mcf chases pointers, art streams through more than the L2, gcc's
 * working set drifts (the no-replacement SNC pathology) and gzip
 * writes once, churning sequence numbers. Workload generation, core,
 * caches, SNC/engines and DRAM/channel do nearly all of the host
 * work; crypto, update, OTA and fleet do none.
 */

#include <algorithm>
#include <cmath>
#include <memory>

#include "harness.hh"
#include "sim/system.hh"
#include "sim_helpers.hh"

namespace perfbench
{
namespace
{

using namespace secproc;

constexpr uint64_t kWarmup = 100'000;
constexpr uint64_t kMeasure = 400'000;

const char *const kProfiles[] = {"gcc", "mcf", "art", "gzip"};

struct Model
{
    const char *label;
    const char *run_span;
    secure::SecurityModel model;
    bool snc_replacement;
};

constexpr Model kModels[] = {
    {"base", "sim.system.run.base", secure::SecurityModel::Baseline, true},
    {"xom", "sim.system.run.xom", secure::SecurityModel::Xom, true},
    {"otp_snc_norepl", "sim.system.run.otp_snc_norepl",
     secure::SecurityModel::OtpSnc, false},
    {"otp_snc", "sim.system.run.otp_snc", secure::SecurityModel::OtpSnc,
     true},
};

/** Pass digest at kDefaultSeed, scale 1 (every cell's RunStats). */
constexpr uint64_t kExpectedDigest = 0x4297f0948892d3b4;

double
paperSlowdown(const char *model, const sim::PaperNumbers &paper)
{
    if (std::string(model) == "xom")
        return paper.xom_slowdown;
    if (std::string(model) == "otp_snc_norepl")
        return paper.snc_norepl;
    return paper.snc_lru;
}

class PaperTiming : public Workload
{
  public:
    using Workload::Workload;

    PassResult
    pass(Tracer &tracer) override
    {
        PassResult r;
        Stopwatch setup;
        Stopwatch run;
        Digest digest;
        const uint64_t warmup = scaled(kWarmup);
        const uint64_t measure = scaled(kMeasure);
        uint64_t base_cycles[std::size(kProfiles)] = {};
        double abs_err = 0.0;
        int errs = 0;

        Tracer::Scope pass_span(tracer, "pass");
        for (const Model &model : kModels) {
            double ipc_sum = 0.0;
            for (size_t p = 0; p < std::size(kProfiles); ++p) {
                sim::SystemConfig config = sim::paperConfig(model.model);
                config.protection.snc.allow_replacement =
                    model.snc_replacement;
                const sim::WorkloadProfile profile =
                    seededProfile(kProfiles[p], opt_.seed);

                auto workload = setup.time([&] {
                    Tracer::Scope s(tracer, "sim.workload.ctor");
                    return std::make_unique<sim::SyntheticWorkload>(
                        profile, config.l2.line_size);
                });
                auto system = setup.time([&] {
                    Tracer::Scope s(tracer, "sim.system.ctor");
                    return std::make_unique<sim::System>(config, *workload);
                });
                runSteps(tracer, run, *system, warmup, model.run_span);
                system->beginMeasurement();
                runSteps(tracer, run, *system, measure, model.run_span);
                r.instructions += warmup + measure;
                r.retired += system->core().instructions();

                const sim::RunStats st = system->stats();
                digest.add(st.instructions);
                digest.add(st.cycles);
                digest.add(st.l2_misses);
                digest.add(st.l2_accesses);
                digest.add(st.ipc);
                digest.add(st.data_bytes);
                digest.add(st.seqnum_bytes);
                digest.add(st.fast_fills);
                digest.add(st.slow_fills);
                digest.add(st.snc_query_misses);

                r.counts["mem.l2.accesses"] += double(st.l2_accesses);
                r.counts["mem.l2.misses"] += double(st.l2_misses);
                r.counts["mem.channel.data_bytes"] += double(st.data_bytes);
                r.counts["mem.channel.seqnum_bytes"] +=
                    double(st.seqnum_bytes);
                r.counts["secure.snc.query_misses"] +=
                    double(st.snc_query_misses);
                r.counts["secure.fills.fast"] += double(st.fast_fills);
                r.counts["secure.fills.slow"] += double(st.slow_fills);
                r.counts[std::string("instr.") + model.label] +=
                    double(warmup + measure);
                ipc_sum += st.ipc;

                if (model.model == secure::SecurityModel::Baseline) {
                    base_cycles[p] = st.cycles;
                } else {
                    const double sim_pct =
                        (double(st.cycles) / double(base_cycles[p]) - 1.0) *
                        100.0;
                    abs_err += std::fabs(
                        sim_pct -
                        paperSlowdown(model.label,
                                      sim::paperNumbers(kProfiles[p])));
                    ++errs;
                }
            }
            r.counts[std::string("sim.core.ipc.") + model.label] =
                ipc_sum / double(std::size(kProfiles));
        }
        r.counts["paper_mae_pp"] = abs_err / errs;
        r.setup_laps = setup.laps();
        r.run_laps = run.laps();
        r.digest = digest.value();
        r.work = double(r.instructions);
        return r;
    }

    void
    isolate(Tracer &tracer) override
    {
        // Over the same profiles and op counts one machine consumes.
        uint64_t ops[std::size(kProfiles)];
        std::fill(std::begin(ops), std::end(ops),
                  scaled(kWarmup) + scaled(kMeasure));
        isolated_ops_ =
            isolateWorkloadGeneration(tracer, kProfiles, opt_.seed, ops,
                                      checks_);
    }

    double passSeconds() const override { return 0.75; }

    uint64_t expectedDigest() const override { return kExpectedDigest; }

    void
    layerMetrics(const LayerTimes &t, const PassResult &last,
                 double untraced_run_s, LayerValues &out) const override
    {
        auto count = [&](const std::string &name) {
            const auto it = last.counts.find(name);
            return it == last.counts.end() ? 0.0 : it->second;
        };
        const double base_ns =
            t.self("sim.system.run.base") / count("instr.base") * 1e9;
        out["sim.system.base.ns_per_instr"] = base_ns;
        for (const Model &model : kModels) {
            if (model.model == secure::SecurityModel::Baseline)
                continue;
            const double ns = t.self(model.run_span) /
                              count(std::string("instr.") + model.label) *
                              1e9;
            out[std::string("secure.") + model.label +
                ".ns_per_instr_over_base"] = ns - base_ns;
        }
        if (isolated_ops_ > 0)
            out["sim.workload.ns_per_op"] =
                t.self("iso.sim.workload.next") /
                double(isolated_ops_) * 1e9;
        out["sim.system.ctor_ms"] =
            t.perCall("sim.system.ctor") * 1e3;
        out["sim_minstr_per_s"] = last.work / untraced_run_s / 1e6;
    }

  private:
    uint64_t isolated_ops_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makePaperTiming(const Options &options)
{
    return std::make_unique<PaperTiming>(options);
}

} // namespace perfbench
