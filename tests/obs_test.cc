/**
 * @file
 * Observability-plane tests.
 *
 * The load-bearing property is *non-perturbation*: attaching a
 * TraceSink must not change a single architectural or timing bit of
 * the simulation, and two traced runs of the same seed must export
 * byte-identical Chrome JSON. On the metrics side, snapshot/delta
 * must implement exact counter-window arithmetic (counters subtract
 * the base, gauges pass through) since System::stats() now rides on
 * it.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "crypto/latency.hh"
#include "crypto/sha.hh"
#include "json_reader.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "ota/transport.hh"
#include "sim/profiles.hh"
#include "sim/system.hh"
#include "update/image_builder.hh"
#include "update/live_install.hh"
#include "update/update_engine.hh"
#include "util/json.hh"
#include "util/stats.hh"
#include "util/strutil.hh"

namespace
{

using namespace secproc;
using namespace secproc::update;

// ----------------------------------------------------------- metrics

TEST(Metrics, SnapshotDeltaCountersSubtractGaugesPass)
{
    uint64_t count = 100;
    double level = 1.5;

    obs::MetricsRegistry registry;
    registry.counterFn("a.count", [&] { return count; });
    registry.gaugeFn("a.level", [&] { return level; });

    const obs::MetricsSnapshot base = registry.snapshot();
    count = 175;
    level = 9.25;
    const obs::MetricsSnapshot now = registry.snapshot();
    const obs::MetricsSnapshot window = now.delta(base);

    EXPECT_EQ(window.u64("a.count"), 75u);
    EXPECT_DOUBLE_EQ(window.value("a.level"), 9.25);

    // Absolute values survive a delta against the empty default
    // snapshot (the pre-beginMeasurement semantics).
    const obs::MetricsSnapshot absolute =
        now.delta(obs::MetricsSnapshot());
    EXPECT_EQ(absolute.u64("a.count"), 175u);
    EXPECT_DOUBLE_EQ(absolute.value("a.level"), 9.25);
}

TEST(Metrics, SnapshotLookupAndJson)
{
    util::Counter hits;
    ++hits;
    ++hits;

    obs::MetricsRegistry registry;
    registry.counter("cache.hits", &hits);
    registry.counterFn("cache.misses", [] { return uint64_t{7}; });

    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.entries().size(), 2u);
    EXPECT_EQ(snap.u64("cache.hits"), 2u);
    EXPECT_EQ(snap.find("cache.nope"), nullptr);

    // Entries are name-sorted and the JSON form is one flat object.
    EXPECT_EQ(snap.entries()[0].name, "cache.hits");
    const util::Json doc = snap.toJson();
    ASSERT_TRUE(doc.isObject());
    EXPECT_EQ(doc.at("cache.hits").asU64(), 2u);
    EXPECT_EQ(doc.at("cache.misses").asU64(), 7u);
}

TEST(Metrics, AccumulatorAndHistogramExpand)
{
    util::Accumulator acc;
    acc.sample(10.0);
    acc.sample(20.0);
    util::Histogram hist(1.0, 4);
    hist.sample(0.5);

    obs::MetricsRegistry registry;
    registry.accumulator("wait", &acc);
    registry.histogram("lat", &hist);

    const obs::MetricsSnapshot snap = registry.snapshot();
    EXPECT_EQ(snap.u64("wait.count"), 2u);
    EXPECT_DOUBLE_EQ(snap.value("wait.mean"), 15.0);
    EXPECT_EQ(snap.u64("lat.samples"), 1u);
    EXPECT_NE(snap.find("lat.p50"), nullptr);
    EXPECT_NE(snap.find("lat.p90"), nullptr);
    EXPECT_NE(snap.find("lat.p99"), nullptr);
}

TEST(Histogram, PercentileEdges)
{
    util::Histogram empty(1.0, 4);
    EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

    util::Histogram hist(1.0, 4);
    hist.sample(0.5); // bucket [0,1)
    hist.sample(2.5); // bucket [2,3)
    EXPECT_DOUBLE_EQ(hist.percentile(0.0), 1.0); // rank clamps to 1
    EXPECT_DOUBLE_EQ(hist.percentile(0.5), 1.0);
    EXPECT_DOUBLE_EQ(hist.percentile(1.0), 3.0);

    // Overflow samples report the histogram's upper bound.
    hist.sample(100.0);
    EXPECT_DOUBLE_EQ(hist.percentile(1.0), 4.0);
}

// ------------------------------------------------------------- trace

TEST(Trace, ChromeJsonShape)
{
    obs::TraceSink sink;
    const obs::TrackId ch = sink.track("channel.core");
    const obs::TrackId ota = sink.track("ota");
    sink.duration(ch, "read.data", 100, 260, {{"wait", 60}});
    sink.instant(ota, "chunk", 300, {{"offset", 1024}});
    EXPECT_EQ(sink.trackCount(), 2u);
    EXPECT_EQ(sink.eventCount(), 2u);

    // The export must survive a parse round trip and carry the
    // Chrome trace-event fields Perfetto keys on.
    const std::string text = sink.toChromeJson().dump(2);
    const std::optional<util::Json> parsed = test::parseJson(text);
    ASSERT_TRUE(parsed.has_value());
    const util::Json &events = parsed->at("traceEvents");
    ASSERT_TRUE(events.isArray());

    size_t meta = 0, durations = 0, instants = 0;
    for (size_t i = 0; i < events.size(); ++i) {
        const util::Json &event = events[i];
        const std::string &ph = event.at("ph").str();
        EXPECT_NE(event.find("pid"), nullptr);
        if (ph == "M") {
            ++meta;
        } else if (ph == "X") {
            ++durations;
            EXPECT_EQ(event.at("ts").asU64(), 100u);
            EXPECT_EQ(event.at("dur").asU64(), 160u);
            EXPECT_EQ(event.at("args").at("wait").asU64(), 60u);
        } else if (ph == "i") {
            ++instants;
            EXPECT_EQ(event.at("ts").asU64(), 300u);
        }
    }
    // Process name + one thread name per track, then the events.
    EXPECT_EQ(meta, 3u);
    EXPECT_EQ(durations, 1u);
    EXPECT_EQ(instants, 1u);
}

// ------------------------------------- non-perturbation differential

constexpr uint32_t kLine = 128;
constexpr uint64_t kStagingBase = 0x4000'0000;
constexpr uint64_t kSlotSize = 1ull << 20;
constexpr uint64_t kImageBase = 0x0800'0000;
constexpr uint64_t kImageBytes = 32ull << 10;

UpdateBundle
makeBundle(ImageBuilder &vendor, const crypto::RsaPublicKey &processor,
           util::Rng &rng, uint32_t version)
{
    xom::PlainProgram program;
    program.title = "fw";
    program.entry_point = kImageBase;
    xom::PlainProgram::PlainSection text;
    text.name = ".text";
    text.vaddr = kImageBase;
    text.bytes.resize(kImageBytes, static_cast<uint8_t>(version));
    program.sections = {text};

    UpdateSpec spec;
    spec.image_version = version;
    spec.rollback_counter = version;
    spec.cipher = secure::CipherKind::Des;
    return vendor.build(program, spec, processor, rng);
}

/** Everything a traced run could possibly have perturbed. */
struct MiniRunResult
{
    sim::RunStats stats;
    uint64_t finish_cycle = 0;
    uint64_t bg_grants = 0;
    uint64_t bg_forced = 0;
    uint64_t agent_bytes = 0;
    bool install_done = false;
    std::vector<uint8_t> slot_bytes;
    std::string trace_json; ///< "" when untraced
};

/**
 * One deterministic arbiter-paced live install (lossy OTA transport,
 * gcc foreground) with tracing on or off.
 */
MiniRunResult
runMiniInstall(bool traced)
{
    util::Rng rng(0x0B5'0001);
    ImageBuilder vendor(crypto::rsaGenerate(512, rng));
    const crypto::RsaKeyPair processor = crypto::rsaGenerate(512, rng);
    secure::KeyTable keys;
    RollbackStore rollback(64);
    UpdateEngine updater(vendor.publicKey(), processor, keys, rollback,
                         StagingConfig{kStagingBase, kSlotSize});

    const sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload workload(sim::benchmarkProfile("gcc"),
                                    config.l2.line_size);
    sim::System system(config, workload);

    LiveInstallConfig live_config;
    live_config.line_bytes = kLine;
    live_config.pacing = InstallPacing::Arbiter;
    live_config.transport.chunk_bytes = 1024;
    live_config.transport.cycles_per_chunk = 128;
    live_config.transport.loss_rate = 0.05;
    live_config.transport.burst_length = 2.0;
    live_config.transport.retransmit_delay = 4096;
    live_config.transport.seed = 0x0F0A;
    LiveInstall live(live_config, system, updater, 1);

    obs::TraceSink trace;
    if (traced)
        system.setTraceSink(&trace);
    system.attachAgent(&live);

    const UpdateBundle bundle =
        makeBundle(vendor, processor.pub, rng, 1);
    system.beginMeasurement();
    live.start(bundle, 0);
    for (int chunk = 0; chunk < 600 && !live.done(); ++chunk)
        system.run(25'000);

    MiniRunResult result;
    result.stats = system.stats();
    result.finish_cycle = system.core().cycles();
    result.bg_grants = system.channel().backgroundGrants();
    result.bg_forced = system.channel().backgroundForcedGrants();
    result.agent_bytes = system.channel().agentBytes(live.agent());
    result.install_done = live.phase() == LiveInstallPhase::Done;
    if (result.install_done) {
        result.slot_bytes.resize(live.stagedBytesWritten());
        system.mainMemory().read(
            updater.slotBase(updater.activeSlot()),
            result.slot_bytes.data(), result.slot_bytes.size());
    }
    if (traced)
        result.trace_json = trace.toChromeJson().dump();
    return result;
}

TEST(Trace, TracedRunIsBitIdenticalToUntraced)
{
    const MiniRunResult traced = runMiniInstall(true);
    const MiniRunResult plain = runMiniInstall(false);

    ASSERT_TRUE(traced.install_done);
    ASSERT_TRUE(plain.install_done);
    EXPECT_EQ(traced.finish_cycle, plain.finish_cycle);
    EXPECT_EQ(traced.bg_grants, plain.bg_grants);
    EXPECT_EQ(traced.bg_forced, plain.bg_forced);
    EXPECT_EQ(traced.agent_bytes, plain.agent_bytes);
    EXPECT_EQ(traced.slot_bytes, plain.slot_bytes);

    EXPECT_EQ(traced.stats.instructions, plain.stats.instructions);
    EXPECT_EQ(traced.stats.cycles, plain.stats.cycles);
    EXPECT_EQ(traced.stats.l2_misses, plain.stats.l2_misses);
    EXPECT_EQ(traced.stats.l2_accesses, plain.stats.l2_accesses);
    EXPECT_EQ(traced.stats.data_bytes, plain.stats.data_bytes);
    EXPECT_EQ(traced.stats.seqnum_bytes, plain.stats.seqnum_bytes);
    EXPECT_EQ(traced.stats.fast_fills, plain.stats.fast_fills);
    EXPECT_EQ(traced.stats.slow_fills, plain.stats.slow_fills);
    EXPECT_EQ(traced.stats.snc_query_misses,
              plain.stats.snc_query_misses);

    // The traced run did actually record the unified plane.
    EXPECT_FALSE(traced.trace_json.empty());
}

TEST(Trace, TwoTracedRunsExportByteIdentically)
{
    const MiniRunResult first = runMiniInstall(true);
    const MiniRunResult second = runMiniInstall(true);
    ASSERT_FALSE(first.trace_json.empty());
    EXPECT_EQ(first.trace_json, second.trace_json);
}

TEST(Trace, ForegroundOnlyRunUnperturbed)
{
    auto run = [](bool traced) {
        const sim::SystemConfig config =
            sim::paperConfig(secure::SecurityModel::OtpSnc);
        sim::SyntheticWorkload workload(sim::benchmarkProfile("mcf"),
                                        config.l2.line_size);
        sim::System system(config, workload);
        obs::TraceSink trace;
        if (traced)
            system.setTraceSink(&trace);
        system.run(20'000);
        system.beginMeasurement();
        system.run(50'000);
        return system.stats();
    };
    const sim::RunStats traced = run(true);
    const sim::RunStats plain = run(false);
    EXPECT_EQ(traced.cycles, plain.cycles);
    EXPECT_EQ(traced.instructions, plain.instructions);
    EXPECT_EQ(traced.l2_misses, plain.l2_misses);
    EXPECT_EQ(traced.data_bytes, plain.data_bytes);
    EXPECT_EQ(traced.seqnum_bytes, plain.seqnum_bytes);
}

// --------------------------------------------- System-level registry

TEST(Metrics, SystemStatsMatchRegistrySnapshot)
{
    const sim::SystemConfig config =
        sim::paperConfig(secure::SecurityModel::OtpSnc);
    sim::SyntheticWorkload workload(sim::benchmarkProfile("gcc"),
                                    config.l2.line_size);
    sim::System system(config, workload);
    system.run(20'000);
    system.beginMeasurement();
    const obs::MetricsSnapshot base = system.metrics().snapshot();
    system.run(50'000);

    const sim::RunStats stats = system.stats();
    const obs::MetricsSnapshot window =
        system.metrics().snapshot().delta(base);
    EXPECT_EQ(stats.cycles, window.u64("core.cycles"));
    EXPECT_EQ(stats.instructions, window.u64("core.instructions"));
    EXPECT_EQ(stats.l2_misses, window.u64("l2.misses"));
    EXPECT_EQ(stats.l2_accesses, window.u64("l2.accesses"));
    EXPECT_EQ(stats.data_bytes, window.u64("channel.data_bytes"));
    EXPECT_EQ(stats.seqnum_bytes, window.u64("channel.seqnum_bytes"));
}

/**
 * The whole dumpStats() text of the paper's four machines on two
 * benchmarks, pinned by its SHA-256: a metric renamed, dropped, added
 * or valued differently by a change to how components register their
 * counters shows up here. Run lengths are fixed in the test, not read
 * from SECPROC_WARMUP/SECPROC_MEASURE, so every build pins one text.
 */
TEST(Metrics, SystemDumpIsPinned)
{
    struct Pin
    {
        const char *bench;
        const char *machine;
        const char *sha256;
    };
    static const Pin kPins[] = {
        {"gcc", "baseline",
         "642a7fb95b30a84d9ead78ce765a57c6306932b2aaa975760b61cbf5b94b267e"},
        {"gcc", "xom",
         "be7f09874931849e9fafc2693b635222639a20bb08dfd431b4602d1e221cbe36"},
        {"gcc", "otp",
         "0159e614f1f5033bb8165e3be133adda113ec3e58cc1180b892214e7cbc2a86e"},
        {"gcc", "otp-norepl",
         "a49b0a0114ae46ede6b0e71ea035b8ee38b054e4fe750c7216d9f73339c18f02"},
        {"mcf", "baseline",
         "94d8230c5b94bce9b46a39c73054397cbe0a734e1da9ea14cc64e5aabf4497c9"},
        {"mcf", "xom",
         "a0f9bb601e2cc0ca7599b9014abc4d40eb6b6be217ab604ad2e60c0012d2e502"},
        {"mcf", "otp",
         "632d7682e1b8427c9f034bf768c2096b2426dce29da82769f12710b311cc99cc"},
        {"mcf", "otp-norepl",
         "fcc23f70ce9ffb1fe61adb42af01792669d3920974e65492f0420e6830f11816"},
    };
    for (const Pin &pin : kPins) {
        const std::string machine = pin.machine;
        sim::SystemConfig config = sim::paperConfig(
            machine == "baseline" ? secure::SecurityModel::Baseline
            : machine == "xom"    ? secure::SecurityModel::Xom
                                  : secure::SecurityModel::OtpSnc);
        config.protection.snc.allow_replacement = machine != "otp-norepl";
        sim::SyntheticWorkload workload(sim::benchmarkProfile(pin.bench),
                                        config.l2.line_size);
        sim::System system(config, workload);
        system.run(20'000);
        system.beginMeasurement();
        system.run(60'000);

        std::ostringstream dump;
        system.dumpStats(dump);
        const std::string text = dump.str();
        const auto digest = crypto::Sha256::digest(
            reinterpret_cast<const uint8_t *>(text.data()), text.size());
        EXPECT_EQ(util::toHex(digest.data(), digest.size()), pin.sha256)
            << pin.bench << " on " << machine << " dumped:\n"
            << text;
    }
}

} // namespace
