/**
 * @file
 * RSA throughput grid: key size x operation x engine, on the
 * declarative experiment API. The "fast" engine is the production
 * path (windowed CIOS Montgomery modExp with the per-key cached
 * MontgomeryCtx); the "schoolbook" engine is the retained
 * pre-optimization reference (schoolbook multiply, bit-at-a-time
 * division, binary square-and-multiply). Cells report operations per
 * second; synthetic "speedup-<bits>" cells carry the fast/schoolbook
 * ratio per operation, which is what the CI perf gate tracks (the
 * ratio transfers across machines, absolute ops/s does not).
 *
 * Emits BENCH_rsa_throughput.json via the standard Report path.
 */

#include <chrono>
#include <iostream>
#include <map>

#include "crypto/rsa.hh"
#include "exp/cli.hh"
#include "util/logging.hh"

using namespace secproc;
using namespace secproc::crypto;

namespace
{

constexpr unsigned kKeyBits[] = {512, 1024, 2048};

/**
 * Time box per cell: every cell runs the full window (no iteration
 * cap) so fast and slow engines get equally stable rates — the CI
 * perf gate consumes the fast/schoolbook ratios.
 */
constexpr double kMinSeconds = 0.2;

/** Deterministic per-key-size fixture, built once before the grid. */
struct Fixture
{
    RsaKeyPair pair;
    std::vector<uint8_t> digest;
    std::vector<uint8_t> signature; ///< fast-path signature of digest
    std::vector<uint8_t> capsule;   ///< wrapped 16-byte payload
    BigInt sign_block;   ///< the padded block rsaSignDigest signs
    BigInt signature_int;
    BigInt capsule_int;

    explicit Fixture(unsigned bits)
    {
        util::Rng rng(0xC0FFEE + bits);
        pair = rsaGenerate(bits, rng);
        digest.assign(32, 0);
        for (size_t i = 0; i < digest.size(); ++i)
            digest[i] = static_cast<uint8_t>(rng.next64());
        signature = rsaSignDigest(pair.priv, digest);
        const std::vector<uint8_t> payload(16, 0x5A);
        capsule = rsaWrap(pair.pub, payload, rng);

        // The big-integer views the schoolbook engine exponentiates
        // (identical inputs to the fast path, minus byte shuffling).
        const size_t modulus_bytes = (pair.pub.n.bitLength() + 7) / 8;
        const std::vector<uint8_t> block =
            rsaType01Block(digest, modulus_bytes);
        sign_block = BigInt::fromBytes(block.data(), block.size());
        signature_int =
            BigInt::fromBytes(signature.data(), signature.size());
        capsule_int =
            BigInt::fromBytes(capsule.data(), capsule.size());

        // Prime the per-key Montgomery caches outside the timed
        // region (and outside the worker pool).
        pair.pub.montCtx();
        pair.priv.montCtx();
    }
};

/** Run @p op repeatedly and report rate + latency. */
exp::CellOutput
timeOp(const std::function<void()> &op)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    int iters = 0;
    double elapsed = 0.0;
    do {
        op();
        ++iters;
        elapsed = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    } while (elapsed < kMinSeconds);

    exp::CellOutput out;
    out.measured = iters / elapsed;
    out.extras.emplace_back("ms_per_op", 1e3 * elapsed / iters);
    out.extras.emplace_back("iterations", iters);
    return out;
}

exp::CellOutput
runFast(const Fixture &fx, const std::string &op)
{
    if (op == "sign") {
        return timeOp([&fx] {
            const auto sig = rsaSignDigest(fx.pair.priv, fx.digest);
            fatal_if(sig != fx.signature, "fast sign diverged");
        });
    }
    if (op == "verify") {
        return timeOp([&fx] {
            fatal_if(!rsaVerifyDigest(fx.pair.pub, fx.digest,
                                      fx.signature),
                     "fast verify rejected a good signature");
        });
    }
    if (op == "unwrap") {
        return timeOp([&fx] {
            fatal_if(!rsaUnwrap(fx.pair.priv, fx.capsule).has_value(),
                     "fast unwrap rejected a good capsule");
        });
    }
    fatal("unknown rsa_throughput operation '", op, "'");
}

exp::CellOutput
runSchoolbook(const Fixture &fx, const std::string &op)
{
    const BigInt &n = fx.pair.pub.n;
    if (op == "sign") {
        return timeOp([&fx, &n] {
            const BigInt sig =
                fx.sign_block.modExpSchoolbook(fx.pair.priv.d, n);
            fatal_if(sig != fx.signature_int,
                     "schoolbook sign diverged");
        });
    }
    if (op == "verify") {
        return timeOp([&fx, &n] {
            const BigInt block = fx.signature_int.modExpSchoolbook(
                fx.pair.pub.e, n);
            fatal_if(block != fx.sign_block,
                     "schoolbook verify diverged");
        });
    }
    if (op == "unwrap") {
        return timeOp([&fx, &n] {
            const BigInt block = fx.capsule_int.modExpSchoolbook(
                fx.pair.priv.d, n);
            fatal_if(block.isZero(), "schoolbook unwrap diverged");
        });
    }
    fatal("unknown rsa_throughput operation '", op, "'");
}

} // namespace

int
main(int argc, char **argv)
{
    const exp::BenchCli cli = exp::parseBenchCli(argc, argv);

    // Keygen (now Montgomery-accelerated itself) happens up front so
    // the cells time only the operation under test.
    std::map<unsigned, Fixture> fixtures;
    for (unsigned bits : kKeyBits)
        fixtures.emplace(bits, Fixture(bits));

    exp::ExperimentSpec spec;
    spec.name = "rsa_throughput";
    spec.title = "RSA throughput: key size x operation x engine";
    spec.subtitle = "operations per second (higher is better)";
    spec.benchmarks = {"sign", "verify", "unwrap"};
    spec.options = cli.options;

    for (unsigned bits : kKeyBits) {
        const Fixture &fx = fixtures.at(bits);
        spec.addCustom("schoolbook-" + std::to_string(bits),
                       [&fx](const std::string &op,
                             const exp::RunOptions &) {
                           return runSchoolbook(fx, op);
                       });
        spec.addCustom("fast-" + std::to_string(bits),
                       [&fx](const std::string &op,
                             const exp::RunOptions &) {
                           return runFast(fx, op);
                       });
    }

    const exp::Runner runner(cli.runner);
    exp::Report report = runner.run(spec);
    report.printTable(std::cout);

    // Synthesize machine-portable speedup cells (fast over
    // schoolbook, per key size and operation) for the JSON and the
    // CI perf gate.
    std::vector<exp::CellResult> cells = report.cells();
    std::cout << "speedup, fast engine over schoolbook engine:\n";
    for (unsigned bits : kKeyBits) {
        for (const std::string &op : spec.benchmarks) {
            const exp::CellResult *fast = report.find(
                "fast-" + std::to_string(bits), op);
            const exp::CellResult *school = report.find(
                "schoolbook-" + std::to_string(bits), op);
            if (fast == nullptr || school == nullptr ||
                !fast->measured || !school->measured) {
                continue;
            }
            exp::CellResult ratio;
            ratio.variant = "speedup-" + std::to_string(bits);
            ratio.bench = op;
            ratio.measured = *fast->measured / *school->measured;
            std::cout << "  " << bits << "-bit " << op << ": "
                      << *ratio.measured << "x\n";
            cells.push_back(std::move(ratio));
        }
    }
    report.setCells(std::move(cells));

    if (cli.write_json)
        report.writeJson(cli.json_path);
    return 0;
}
