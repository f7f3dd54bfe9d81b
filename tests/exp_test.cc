/**
 * @file
 * Tests for the declarative experiment API (src/exp/) and the JSON
 * document model backing its reports: spec construction, slowdown
 * math, JSON round-trips, checked environment parsing, and the
 * parallel runner's bit-identical-to-serial guarantee.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "exp/cell_cache.hh"
#include "exp/cli.hh"
#include "exp/runner.hh"
#include "json_reader.hh"
#include "sim/profiles.hh"
#include "util/json.hh"
#include "util/strutil.hh"

using namespace secproc;

namespace
{

/** Tiny run lengths so grid tests stay fast. */
exp::RunOptions
quickOptions()
{
    exp::RunOptions options;
    options.warmup_instructions = 2'000;
    options.measure_instructions = 10'000;
    return options;
}

/** A small 2-variant x 3-benchmark grid. */
exp::ExperimentSpec
quickSpec()
{
    exp::ExperimentSpec spec;
    spec.name = "exp_test_grid";
    spec.title = "test grid";
    spec.benchmarks = {"gcc", "mcf", "art"};
    spec.options = quickOptions();
    spec.addBaseline("baseline", [](const std::string &) {
        return sim::paperConfig(secure::SecurityModel::Baseline);
    });
    spec.add(
        "XOM",
        [](const std::string &) {
            return sim::paperConfig(secure::SecurityModel::Xom);
        },
        [](const std::string &bench) {
            return sim::paperNumbers(bench).xom_slowdown;
        });
    spec.add("SNC-LRU", [](const std::string &) {
        return sim::paperConfig(secure::SecurityModel::OtpSnc);
    });
    return spec;
}

void
expectSameStats(const sim::RunStats &a, const sim::RunStats &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2_misses, b.l2_misses);
    EXPECT_EQ(a.l2_accesses, b.l2_accesses);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.data_bytes, b.data_bytes);
    EXPECT_EQ(a.seqnum_bytes, b.seqnum_bytes);
    EXPECT_EQ(a.fast_fills, b.fast_fills);
    EXPECT_EQ(a.slow_fills, b.slow_fills);
    EXPECT_EQ(a.snc_query_misses, b.snc_query_misses);
}

TEST(ExperimentSpec, BenchmarkListDefaultsToAllProfiles)
{
    exp::ExperimentSpec spec;
    EXPECT_EQ(spec.benchmarkList(), sim::benchmarkNames());
    EXPECT_EQ(spec.benchmarkList().size(), 11u);

    spec.benchmarks = {"gcc"};
    ASSERT_EQ(spec.benchmarkList().size(), 1u);
    EXPECT_EQ(spec.benchmarkList()[0], "gcc");
}

TEST(ExperimentSpec, AddHelpersWireLabelsAndBaseline)
{
    exp::ExperimentSpec spec = quickSpec();
    ASSERT_EQ(spec.variants.size(), 3u);
    EXPECT_EQ(spec.baseline_label, "baseline");
    EXPECT_EQ(spec.variants[0].label, "baseline");
    EXPECT_EQ(spec.variants[1].label, "XOM");
    EXPECT_TRUE(static_cast<bool>(spec.variants[1].paper));
    EXPECT_FALSE(static_cast<bool>(spec.variants[2].paper));
}

TEST(ExperimentSpec, SlowdownMath)
{
    // 250 cycles over a 200-cycle baseline is +25%.
    EXPECT_DOUBLE_EQ(exp::slowdownPct(200, 250), 25.0);
    EXPECT_DOUBLE_EQ(exp::slowdownPct(400, 300), -25.0);
    EXPECT_DOUBLE_EQ(exp::slowdownPct(1000, 1000), 0.0);
    // Degenerate baseline reports no slowdown rather than dividing.
    EXPECT_DOUBLE_EQ(exp::slowdownPct(0, 123), 0.0);
}

TEST(ExperimentSpec, CellSeedIsPositionalAndNonZero)
{
    const uint64_t a = exp::cellSeed(7, 0, 0);
    EXPECT_EQ(a, exp::cellSeed(7, 0, 0));
    EXPECT_NE(a, exp::cellSeed(7, 0, 1));
    EXPECT_NE(a, exp::cellSeed(7, 1, 0));
    EXPECT_NE(a, exp::cellSeed(8, 0, 0));
    for (size_t v = 0; v < 4; ++v)
        for (size_t b = 0; b < 4; ++b)
            EXPECT_NE(exp::cellSeed(0, v, b), 0u);
}

TEST(ExperimentEnv, CheckedParsingAcceptsNumbers)
{
    EXPECT_EQ(util::parseU64("0", "x"), 0u);
    EXPECT_EQ(util::parseU64("4000000", "x"), 4'000'000u);
    EXPECT_EQ(util::parseU64("18446744073709551615", "x"),
              UINT64_MAX);
}

using ExperimentEnvDeathTest = ::testing::Test;

TEST(ExperimentEnvDeathTest, MalformedWarmupIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("SECPROC_WARMUP", "3 million", 1);
            exp::RunOptions::fromEnvironment();
        },
        ::testing::ExitedWithCode(1), "SECPROC_WARMUP");
}

TEST(ExperimentEnvDeathTest, OverflowingMeasureIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("SECPROC_MEASURE", "99999999999999999999999", 1);
            exp::RunOptions::fromEnvironment();
        },
        ::testing::ExitedWithCode(1), "overflows");
}

TEST(ExperimentEnvDeathTest, EmptyThreadsIsFatal)
{
    EXPECT_EXIT(
        {
            setenv("SECPROC_THREADS", "", 1);
            exp::RunnerOptions::fromEnvironment();
        },
        ::testing::ExitedWithCode(1), "SECPROC_THREADS");
}

TEST(Json, ScalarsAndAggregates)
{
    util::Json doc = util::Json::object();
    doc.set("flag", true);
    doc.set("count", uint64_t{123456789012345});
    doc.set("pi", 3.5);
    doc.set("name", "se\"cure\n");
    util::Json list = util::Json::array();
    list.push(1);
    list.push(util::Json());
    doc.set("list", std::move(list));

    EXPECT_TRUE(doc.at("flag").boolean());
    EXPECT_EQ(doc.at("count").asU64(), 123456789012345u);
    EXPECT_DOUBLE_EQ(doc.at("pi").number(), 3.5);
    EXPECT_EQ(doc.at("list").size(), 2u);
    EXPECT_TRUE(doc.at("list")[1].isNull());
    EXPECT_EQ(doc.find("missing"), nullptr);

    // Integral numbers print without a decimal point.
    EXPECT_EQ(util::Json(uint64_t{42}).dump(), "42");
    EXPECT_EQ(util::Json(3.5).dump(), "3.5");
}

TEST(Json, RoundTripPreservesStructure)
{
    util::Json doc = util::Json::object();
    doc.set("experiment", "fig05");
    doc.set("cycles", uint64_t{17'179'869'184});
    doc.set("ipc", 1.625);
    doc.set("escaped", "tab\there \"quoted\" back\\slash");
    util::Json cells = util::Json::array();
    for (int i = 0; i < 3; ++i) {
        util::Json cell = util::Json::object();
        cell.set("index", i);
        cell.set("ok", i % 2 == 0);
        cells.push(std::move(cell));
    }
    doc.set("cells", std::move(cells));

    for (const int indent : {-1, 2}) {
        const std::string text = doc.dump(indent);
        const auto parsed = test::parseJson(text);
        ASSERT_TRUE(parsed.has_value()) << text;
        EXPECT_TRUE(*parsed == doc) << text;
    }
}

TEST(Json, ParserRejectsMalformedInput)
{
    EXPECT_FALSE(test::parseJson("").has_value());
    EXPECT_FALSE(test::parseJson("{").has_value());
    EXPECT_FALSE(test::parseJson("[1,]").has_value());
    EXPECT_FALSE(test::parseJson("{\"a\":1,}").has_value());
    EXPECT_FALSE(test::parseJson("\"unterminated").has_value());
    EXPECT_FALSE(test::parseJson("nul").has_value());
    EXPECT_FALSE(test::parseJson("1 2").has_value());
    EXPECT_FALSE(test::parseJson("1e999").has_value());
    EXPECT_FALSE(test::parseJson("{\"a\" 1}").has_value());
}

TEST(Json, ParsesStandardDocuments)
{
    const auto doc = test::parseJson(
        "  {\"a\": [1, 2.5, -3e2, true, false, null], "
        "\"b\": {\"nested\": \"x\\u0041y\"}} ");
    ASSERT_TRUE(doc.has_value());
    EXPECT_DOUBLE_EQ(doc->at("a")[2].number(), -300.0);
    EXPECT_EQ(doc->at("b").at("nested").str(), "xAy");
}

TEST(Runner, GridRunsEveryCellAndComputesSlowdowns)
{
    const exp::ExperimentSpec spec = quickSpec();
    exp::RunnerOptions options;
    options.threads = 1;
    const exp::Report report = exp::Runner(options).run(spec);

    EXPECT_EQ(report.cells().size(), 9u);
    const exp::CellResult *base = report.find("baseline", "gcc");
    const exp::CellResult *xom = report.find("XOM", "gcc");
    ASSERT_NE(base, nullptr);
    ASSERT_NE(xom, nullptr);
    EXPECT_GT(base->stats.cycles, 0u);

    // The baseline variant reports no value; models report the
    // hand-computable slowdown vs the baseline cell.
    EXPECT_FALSE(base->measured.has_value());
    ASSERT_TRUE(xom->measured.has_value());
    EXPECT_DOUBLE_EQ(
        *xom->measured,
        exp::slowdownPct(base->stats.cycles, xom->stats.cycles));
    ASSERT_TRUE(xom->paper.has_value());
    EXPECT_DOUBLE_EQ(*xom->paper,
                     sim::paperNumbers("gcc").xom_slowdown);
}

TEST(Runner, ParallelGridIsBitIdenticalToSerial)
{
    const exp::ExperimentSpec spec = quickSpec();

    exp::RunnerOptions serial;
    serial.threads = 1;
    exp::RunnerOptions parallel;
    parallel.threads = 4;
    const exp::Report a = exp::Runner(serial).run(spec);
    const exp::Report b = exp::Runner(parallel).run(spec);

    ASSERT_EQ(a.cells().size(), b.cells().size());
    for (size_t i = 0; i < a.cells().size(); ++i) {
        const exp::CellResult &ca = a.cells()[i];
        const exp::CellResult &cb = b.cells()[i];
        EXPECT_EQ(ca.variant, cb.variant);
        EXPECT_EQ(ca.bench, cb.bench);
        expectSameStats(ca.stats, cb.stats);
        EXPECT_EQ(ca.measured, cb.measured);
    }
}

TEST(Runner, SpecSeedOverridesAreThreadCountInvariant)
{
    exp::ExperimentSpec spec = quickSpec();
    spec.seed = 12345;

    exp::RunnerOptions serial;
    serial.threads = 1;
    exp::RunnerOptions parallel;
    parallel.threads = 3;
    const exp::Report a = exp::Runner(serial).run(spec);
    const exp::Report b = exp::Runner(parallel).run(spec);
    for (size_t i = 0; i < a.cells().size(); ++i)
        expectSameStats(a.cells()[i].stats, b.cells()[i].stats);

    // And the seed actually changes the workload stream.
    exp::ExperimentSpec unseeded = quickSpec();
    const exp::Report c = exp::Runner(serial).run(unseeded);
    EXPECT_NE(a.cells()[0].stats.cycles, c.cells()[0].stats.cycles);
}

TEST(Runner, ForEachCoversEveryIndexOnce)
{
    exp::RunnerOptions options;
    options.threads = 4;
    const exp::Runner runner(options);
    std::vector<int> hits(100, 0);
    runner.forEach(hits.size(), [&hits](size_t i) { hits[i]++; });
    for (const int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Report, JsonDocumentRoundTripsAndMatchesCells)
{
    exp::ExperimentSpec spec = quickSpec();
    exp::RunnerOptions options;
    options.threads = 2;
    const exp::Report report = exp::Runner(options).run(spec);

    const util::Json doc = report.toJson();
    const auto parsed = test::parseJson(doc.dump(2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(*parsed == doc);

    EXPECT_EQ(parsed->at("schema_version").asU64(), 1u);
    EXPECT_EQ(parsed->at("experiment").str(), "exp_test_grid");
    EXPECT_EQ(parsed->at("options").at("threads").asU64(), 2u);
    EXPECT_EQ(parsed->at("options").at("warmup_instructions").asU64(),
              2'000u);
    EXPECT_EQ(parsed->at("benchmarks").size(), 3u);
    EXPECT_EQ(parsed->at("variants").size(), 3u);
    ASSERT_EQ(parsed->at("cells").size(), report.cells().size());

    for (size_t i = 0; i < report.cells().size(); ++i) {
        const exp::CellResult &cell = report.cells()[i];
        const util::Json &json_cell = parsed->at("cells")[i];
        EXPECT_EQ(json_cell.at("variant").str(), cell.variant);
        EXPECT_EQ(json_cell.at("bench").str(), cell.bench);
        EXPECT_EQ(json_cell.at("stats").at("cycles").asU64(),
                  cell.stats.cycles);
        EXPECT_EQ(json_cell.find("measured") != nullptr,
                  cell.measured.has_value());
    }
}

TEST(CellCache, KeySeparatesConfigsAndMatchesEqualOnes)
{
    exp::clearCellCache();
    const sim::SystemConfig a =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    const exp::RunOptions options = quickOptions();
    exp::cachedRunCell("gcc", a, options);
    EXPECT_EQ(exp::cellCacheStats().entries, 1u);

    // A deep field no coarse key would notice must add an entry.
    sim::SystemConfig b = a;
    b.protection.snc.sector_lines = 4;
    exp::cachedRunCell("gcc", b, options);
    EXPECT_EQ(exp::cellCacheStats().entries, 2u);

    sim::SystemConfig c = a;
    c.channel.bg_starvation_bound += 1;
    exp::cachedRunCell("gcc", c, options);
    EXPECT_EQ(exp::cellCacheStats().entries, 3u);

    sim::SystemConfig d = a;
    d.core.blocking_loads = true;
    exp::cachedRunCell("gcc", d, options);
    EXPECT_EQ(exp::cellCacheStats().entries, 4u);
    EXPECT_EQ(exp::cellCacheStats().hits, 0u);

    // An equal config, built separately, is the same cell.
    exp::cachedRunCell("gcc",
                       sim::paperConfig(secure::SecurityModel::OtpSnc),
                       options);
    EXPECT_EQ(exp::cellCacheStats().entries, 4u);
    EXPECT_EQ(exp::cellCacheStats().hits, 1u);
    exp::clearCellCache();
}

TEST(CellCache, SecondRequestIsAHitAndBitIdentical)
{
    exp::clearCellCache();
    const sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::Baseline);
    const exp::RunOptions options = quickOptions();

    const sim::RunStats direct =
        exp::runCell("gcc", config, options);
    const sim::RunStats first =
        exp::cachedRunCell("gcc", config, options);
    const sim::RunStats second =
        exp::cachedRunCell("gcc", config, options);

    expectSameStats(direct, first);
    expectSameStats(first, second);
    const exp::CellCacheStats stats = exp::cellCacheStats();
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(CellCache, DistinctSeedsAndConfigsAreDistinctCells)
{
    exp::clearCellCache();
    const sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::Baseline);
    const exp::RunOptions options = quickOptions();

    exp::cachedRunCell("gcc", config, options, /*seed=*/1);
    exp::cachedRunCell("gcc", config, options, /*seed=*/2);
    sim::SystemConfig other = config;
    other.protection.crypto.latency += 1;
    exp::cachedRunCell("gcc", other, options, /*seed=*/1);

    const exp::CellCacheStats stats = exp::cellCacheStats();
    EXPECT_EQ(stats.entries, 3u);
    EXPECT_EQ(stats.hits, 0u);
}

/**
 * The satellite fix under test: mutating SECPROC_WARMUP /
 * SECPROC_MEASURE between runs must invalidate the cache even when
 * the caller reuses a RunOptions value built before the change —
 * the live environment strings are part of the key.
 */
TEST(CellCache, EnvOverridesInvalidateTheCache)
{
    unsetenv("SECPROC_WARMUP");
    unsetenv("SECPROC_MEASURE");
    exp::clearCellCache();
    const sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::Baseline);
    const exp::RunOptions stale = quickOptions();

    exp::cachedRunCell("gcc", config, stale);
    EXPECT_EQ(exp::cellCacheStats().entries, 1u);

    // Same stale options, changed environment: must miss, not serve
    // the entry computed under the old overrides.
    setenv("SECPROC_WARMUP", "5000", 1);
    exp::cachedRunCell("gcc", config, stale);
    EXPECT_EQ(exp::cellCacheStats().entries, 2u);

    setenv("SECPROC_MEASURE", "20000", 1);
    exp::cachedRunCell("gcc", config, stale);
    EXPECT_EQ(exp::cellCacheStats().entries, 3u);

    // Restoring the environment restores the original key: a hit.
    unsetenv("SECPROC_WARMUP");
    unsetenv("SECPROC_MEASURE");
    const exp::CellCacheStats before = exp::cellCacheStats();
    exp::cachedRunCell("gcc", config, stale);
    const exp::CellCacheStats after = exp::cellCacheStats();
    EXPECT_EQ(after.entries, before.entries);
    EXPECT_EQ(after.hits, before.hits + 1);
    exp::clearCellCache();
}

TEST(Report, AverageMatchesHandComputedMean)
{
    exp::ExperimentSpec spec = quickSpec();
    exp::RunnerOptions options;
    options.threads = 2;
    const exp::Report report = exp::Runner(options).run(spec);

    double sum = 0.0;
    for (const std::string &bench : spec.benchmarkList())
        sum += *report.find("XOM", bench)->measured;
    ASSERT_TRUE(report.average("XOM").has_value());
    EXPECT_DOUBLE_EQ(*report.average("XOM"), sum / 3.0);
    EXPECT_FALSE(report.average("baseline").has_value());
}

} // namespace
