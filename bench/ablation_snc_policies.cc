/**
 * @file
 * Ablation A4: SNC sequence-number width — 1/2/4-byte entries at a
 * fixed 64KB capacity trade coverage against overflow re-encryption
 * epochs.
 */

#include <iostream>

#include "exp/cli.hh"
#include "sim/profiles.hh"

using namespace secproc;

namespace
{

sim::SystemConfig
widthConfig(uint32_t bytes_per_entry)
{
    auto config = sim::paperConfig(secure::SecurityModel::OtpSnc);
    config.protection.snc.bytes_per_entry = bytes_per_entry;
    return config;
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::BenchCli cli = exp::parseBenchCli(argc, argv);

    exp::ExperimentSpec spec;
    spec.name = "ablation_snc_policies";
    spec.title = "Ablation A4: sequence-number width at fixed 64KB SNC";
    spec.subtitle = "narrow entries cover more memory but overflow "
                    "sooner; slowdown % vs baseline";
    spec.options = cli.options;
    spec.addBaseline("baseline", [](const std::string &) {
        return sim::paperConfig(secure::SecurityModel::Baseline);
    });
    spec.add("1B entries (8MB cover)",
             [](const std::string &) { return widthConfig(1); });
    spec.add("2B entries (4MB cover)",
             [](const std::string &) { return widthConfig(2); });
    spec.add("4B entries (2MB cover)",
             [](const std::string &) { return widthConfig(4); });

    const exp::Report report = exp::Runner(cli.runner).run(spec);
    report.printTable(std::cout);
    if (cli.write_json)
        report.writeJson(cli.json_path);
    return 0;
}
