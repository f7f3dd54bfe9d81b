/**
 * @file
 * Pad-prediction unit tests (extension A11): sequential pre-
 * generation of one-time pads, pad-buffer bounds, and the timing
 * win when the crypto engine is slower than memory.
 */

#include <gtest/gtest.h>

#include "mem/memory_channel.hh"
#include "secure/engines.hh"

namespace
{

using namespace secproc;
using namespace secproc::secure;

class PadPrediction : public ::testing::Test
{
  protected:
    PadPrediction()
    {
        std::vector<uint8_t> key(8, 0x42);
        keys_.install(1, CipherKind::Des, key);
    }

    static mem::ChannelConfig
    channelConfig(uint32_t mem_latency)
    {
        mem::ChannelConfig config;
        config.access_latency = mem_latency;
        config.transfer_cycles = 0;
        config.small_transfer_cycles = 0;
        return config;
    }

    static ProtectionConfig
    engineConfig(uint32_t crypto_latency, bool prediction)
    {
        ProtectionConfig config;
        config.model = SecurityModel::OtpSnc;
        config.crypto.latency = crypto_latency;
        config.snc.l2_line_size = 128;
        config.line_size = 128;
        config.pad_prediction = prediction;
        return config;
    }

    KeyTable keys_;
};

TEST_F(PadPrediction, SequentialFillsHitThePadBuffer)
{
    // Memory 40, crypto 100: without prediction every fast-path fill
    // costs max(40, 100) + 1 = 101; with prediction the pad for line
    // X+1 starts during X's fill, so the next sequential fill costs
    // 40 + 1 as long as the gap between fills exceeds the engine's
    // remaining work.
    mem::MemoryChannel channel(channelConfig(40));
    OtpEngine engine(engineConfig(100, true), channel, keys_);

    // Give lines 0..7 sequence numbers (writebacks).
    for (uint64_t i = 0; i < 8; ++i)
        engine.planEvict(0x10000 + i * 128, mem::RegionKind::Protected);

    // Demand-fill them sequentially, 1000 cycles apart.
    uint64_t cycle = 10'000;
    const auto first = engine.lineFill(0x10000, cycle, false,
                                       mem::RegionKind::Protected);
    EXPECT_EQ(first.ready_cycle, cycle + 100 + 1)
        << "first fill has no prediction to use";

    for (uint64_t i = 1; i < 8; ++i) {
        cycle += 1000;
        const auto fill =
            engine.lineFill(0x10000 + i * 128, cycle, false,
                            mem::RegionKind::Protected);
        EXPECT_EQ(fill.ready_cycle, cycle + 40 + 1)
            << "line " << i << ": predicted pad should be ready";
    }
    EXPECT_EQ(engine.padPredictionHits(), 7u);
    EXPECT_GE(engine.padPredictions(), 7u);
}

TEST_F(PadPrediction, DisabledByDefault)
{
    mem::MemoryChannel channel(channelConfig(40));
    OtpEngine engine(engineConfig(100, false), channel, keys_);
    for (uint64_t i = 0; i < 4; ++i)
        engine.planEvict(0x10000 + i * 128, mem::RegionKind::Protected);
    uint64_t cycle = 10'000;
    for (uint64_t i = 0; i < 4; ++i) {
        const auto fill =
            engine.lineFill(0x10000 + i * 128, cycle, false,
                            mem::RegionKind::Protected);
        EXPECT_EQ(fill.ready_cycle, cycle + 100 + 1);
        cycle += 1000;
    }
    EXPECT_EQ(engine.padPredictions(), 0u);
    EXPECT_EQ(engine.padPredictionHits(), 0u);
}

TEST_F(PadPrediction, InstructionStreamsPredict)
{
    // Instruction lines always use seqnum 0, so the next line's seed
    // is always known: a sequential ifetch stream hits from line 2.
    mem::MemoryChannel channel(channelConfig(40));
    OtpEngine engine(engineConfig(100, true), channel, keys_);
    uint64_t cycle = 10'000;
    const auto first = engine.lineFill(0x400000, cycle, true,
                                       mem::RegionKind::Protected);
    EXPECT_EQ(first.ready_cycle, cycle + 101);
    for (int i = 1; i < 5; ++i) {
        cycle += 1000;
        const auto fill =
            engine.lineFill(0x400000 + i * 128, cycle, true,
                            mem::RegionKind::Protected);
        EXPECT_EQ(fill.ready_cycle, cycle + 41) << "line " << i;
    }
}

TEST_F(PadPrediction, NoPredictionWithoutOnChipSeqnum)
{
    // The neighbour's sequence number is off chip (flushed): a
    // prediction would need a metadata fetch, so none is made.
    mem::MemoryChannel channel(channelConfig(40));
    OtpEngine engine(engineConfig(100, true), channel, keys_);
    engine.planEvict(0x10000, mem::RegionKind::Protected);
    engine.planEvict(0x10080, mem::RegionKind::Protected);
    engine.flushSnc(0);

    // Query-miss fill of line 0 (seqnum fetched back): its neighbour
    // is *also* off chip at plan time, so no prediction for it.
    engine.lineFill(0x10000, 10'000, false, mem::RegionKind::Protected);
    EXPECT_EQ(engine.padPredictions(), 0u);
}

TEST_F(PadPrediction, BackToBackFillsExposeEnginePipelining)
{
    // Fills 1 cycle apart: the prediction for line X+1 was issued at
    // X's fill cycle and the engine is pipelined, so the pad is
    // ready only crypto_latency after it started — the win shrinks
    // but never goes negative.
    mem::MemoryChannel channel(channelConfig(40));
    OtpEngine engine(engineConfig(100, true), channel, keys_);
    for (uint64_t i = 0; i < 4; ++i)
        engine.planEvict(0x20000 + i * 128, mem::RegionKind::Protected);

    uint64_t cycle = 10'000;
    uint64_t previous_ready = 0;
    for (uint64_t i = 0; i < 4; ++i) {
        const auto fill =
            engine.lineFill(0x20000 + i * 128, cycle, false,
                            mem::RegionKind::Protected);
        EXPECT_GE(fill.ready_cycle, cycle + 41);
        EXPECT_LE(fill.ready_cycle, cycle + 101);
        EXPECT_GE(fill.ready_cycle, previous_ready);
        previous_ready = fill.ready_cycle;
        cycle += 1;
    }
}

TEST_F(PadPrediction, BufferIsBounded)
{
    mem::MemoryChannel channel(channelConfig(40));
    ProtectionConfig config = engineConfig(100, true);
    config.pad_buffer_entries = 4;
    OtpEngine engine(config, channel, keys_);

    for (uint64_t i = 0; i < 64; ++i)
        engine.planEvict(0x30000 + i * 128, mem::RegionKind::Protected);
    // 64 scattered fills, each predicting its neighbour: the buffer
    // holds at most 4 predictions, old ones are forgotten, and the
    // engine never crashes or grows without bound.
    uint64_t cycle = 10'000;
    for (uint64_t i = 0; i < 64; i += 2) {
        engine.lineFill(0x30000 + i * 128, cycle, false,
                        mem::RegionKind::Protected);
        cycle += 500;
    }
    EXPECT_GT(engine.padPredictions(), 0u);
}

TEST_F(PadPrediction, ConsumedPadNeverEvictsItsReprediction)
{
    // A two-entry buffer. Fill 2 consumes line 1's pad and fill 3
    // predicts it again; fill 4 must then displace the oldest live
    // prediction (line 2's, from fill 2), not the re-prediction, so
    // fill 5 hits.
    mem::MemoryChannel channel(channelConfig(40));
    ProtectionConfig config = engineConfig(100, true);
    config.pad_buffer_entries = 2;
    OtpEngine engine(config, channel, keys_);
    for (uint64_t i = 0; i < 8; ++i)
        engine.planEvict(0x50000 + i * 128, mem::RegionKind::Protected);

    uint64_t cycle = 10'000;
    for (uint64_t line : {0, 1, 0, 4, 1}) {
        engine.lineFill(0x50000 + line * 128, cycle, false,
                        mem::RegionKind::Protected);
        cycle += 1000;
    }
    EXPECT_EQ(engine.padPredictionHits(), 2u);
}

TEST_F(PadPrediction, PredictionNeverChangesFunctionalBytes)
{
    // applyFill is driven purely by (line, seqnum): identical plans
    // must decrypt identically whether or not prediction is on.
    mem::MemoryChannel channel_a(channelConfig(40));
    mem::MemoryChannel channel_b(channelConfig(40));
    OtpEngine with(engineConfig(100, true), channel_a, keys_);
    OtpEngine without(engineConfig(100, false), channel_b, keys_);

    for (OtpEngine *engine : {&with, &without})
        engine->planEvict(0x40000, mem::RegionKind::Protected);

    FillPlan plan_a = with.planFill(0x40000, false,
                                    mem::RegionKind::Protected);
    FillPlan plan_b = without.planFill(0x40000, false,
                                       mem::RegionKind::Protected);
    std::vector<uint8_t> bytes_a(128, 0x5A);
    std::vector<uint8_t> bytes_b(128, 0x5A);
    with.applyFill(plan_a, bytes_a);
    without.applyFill(plan_b, bytes_b);
    EXPECT_EQ(bytes_a, bytes_b);
}

} // namespace
