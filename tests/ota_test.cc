/**
 * @file
 * Tests for the OTA transport model: deterministic scheduling,
 * bandwidth capping, loss + retransmission, reordering — and the
 * invariant that matters to the install planes: every payload byte
 * arrives exactly once, whatever the link does.
 */

#include <gtest/gtest.h>

#include <limits>

#include "ota/transport.hh"

namespace
{

using namespace secproc::ota;

std::vector<uint8_t>
payload(size_t size)
{
    std::vector<uint8_t> bytes(size);
    for (size_t i = 0; i < size; ++i)
        bytes[i] = static_cast<uint8_t>(i * 131 + 7);
    return bytes;
}

/** Drain the whole stream, checking byte-exact reassembly. */
std::vector<Transport::Chunk>
drain(Transport &transport, const std::vector<uint8_t> &sent)
{
    std::vector<Transport::Chunk> all;
    std::vector<uint8_t> got(sent.size(), 0);
    std::vector<bool> seen(sent.size(), false);
    uint64_t cycle = 0;
    while (!transport.complete()) {
        cycle += 1000;
        for (auto &chunk : transport.poll(cycle)) {
            for (size_t i = 0; i < chunk.bytes.size(); ++i) {
                const size_t at = chunk.offset + i;
                EXPECT_FALSE(seen.at(at)) << "byte " << at
                                          << " delivered twice";
                seen[at] = true;
                got[at] = chunk.bytes[i];
            }
            all.push_back(std::move(chunk));
        }
        if (cycle >= (1u << 30)) {
            ADD_FAILURE() << "stream never completed";
            break;
        }
    }
    EXPECT_EQ(got, sent) << "reassembled payload differs";
    return all;
}

TEST(Transport, LosslessArrivesInOrderAtTheBandwidthCap)
{
    TransportConfig config;
    config.chunk_bytes = 256;
    config.cycles_per_chunk = 100;
    Transport transport(config);
    const auto sent = payload(1000); // 4 chunks, last one short
    transport.send(sent, 50);

    EXPECT_TRUE(transport.poll(149).empty()) << "nothing before "
                                                "the first chunk time";
    const auto all = drain(transport, sent);
    ASSERT_EQ(all.size(), 4u);
    for (size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].offset, i * 256);
        EXPECT_EQ(all[i].arrival_cycle, 50 + (i + 1) * 100u)
            << "one chunk per 100 cycles";
    }
    EXPECT_EQ(all.back().bytes.size(), 1000u - 3 * 256u);
    EXPECT_EQ(transport.chunksSent(), 4u);
    EXPECT_EQ(transport.chunksLost(), 0u);
    EXPECT_EQ(transport.retransmitPasses(), 0u);
    EXPECT_EQ(transport.completionCycle(), 450u);
}

TEST(Transport, SameSeedSameSchedule)
{
    TransportConfig config;
    config.loss_rate = 0.2;
    config.reorder_rate = 0.3;
    config.seed = 99;
    const auto sent = payload(64 * 1024);

    auto arrivals = [&](uint64_t seed) {
        TransportConfig c = config;
        c.seed = seed;
        Transport transport(c);
        transport.send(sent, 0);
        std::vector<std::pair<uint64_t, uint64_t>> out;
        for (const auto &chunk : drain(transport, sent))
            out.emplace_back(chunk.offset, chunk.arrival_cycle);
        return out;
    };

    EXPECT_EQ(arrivals(99), arrivals(99));
    EXPECT_NE(arrivals(99), arrivals(100))
        << "a different seed must shuffle the schedule";
}

TEST(Transport, LossRetransmitsEverythingEventually)
{
    TransportConfig config;
    config.chunk_bytes = 512;
    config.loss_rate = 0.25;
    config.burst_length = 3.0;
    config.seed = 7;
    Transport transport(config);
    const auto sent = payload(256 * 1024);
    transport.send(sent, 0);

    drain(transport, sent); // asserts byte-exact, exactly-once
    EXPECT_GT(transport.chunksLost(), 0u) << "25% loss must bite";
    EXPECT_GE(transport.retransmitPasses(), 1u);
    EXPECT_EQ(transport.chunksSent(),
              sent.size() / 512 + transport.chunksLost());
    // A lossy stream takes strictly longer than a lossless one.
    TransportConfig clean = config;
    clean.loss_rate = 0.0;
    Transport lossless(clean);
    lossless.send(sent, 0);
    drain(lossless, sent);
    EXPECT_GT(transport.completionCycle(),
              lossless.completionCycle());
}

TEST(Transport, ReorderingJittersButLosesNothing)
{
    TransportConfig config;
    config.chunk_bytes = 256;
    config.reorder_rate = 0.5;
    config.reorder_window = 8;
    config.seed = 21;
    Transport transport(config);
    const auto sent = payload(64 * 1024);
    transport.send(sent, 0);

    const auto all = drain(transport, sent);
    EXPECT_GT(transport.chunksReordered(), 0u);
    EXPECT_EQ(transport.chunksLost(), 0u);
    // Arrival order must genuinely differ from offset order.
    bool out_of_order = false;
    for (size_t i = 1; i < all.size(); ++i)
        out_of_order |= all[i].offset < all[i - 1].offset;
    EXPECT_TRUE(out_of_order);
    // And poll() must return chunks in arrival order regardless.
    for (size_t i = 1; i < all.size(); ++i)
        EXPECT_GE(all[i].arrival_cycle, all[i - 1].arrival_cycle);
}

TEST(Transport, EmptyPayloadIsALegalDegenerateStream)
{
    // Regression: completionCycle() used to panic after send({}) —
    // it asserted a non-empty schedule instead of falling back to
    // the send cycle. An empty stream completes at the send instant.
    TransportConfig config;
    config.chunk_bytes = 256;
    config.cycles_per_chunk = 100;
    Transport transport(config);
    transport.send({}, 777);

    EXPECT_TRUE(transport.complete());
    EXPECT_TRUE(transport.poll(1'000'000).empty());
    EXPECT_EQ(transport.completionCycle(), 777u);
    EXPECT_EQ(transport.chunksSent(), 0u);
    EXPECT_EQ(transport.nextArrivalCycle(), UINT64_MAX);

    // A fresh stream on the same transport still works after the
    // degenerate one.
    const auto sent = payload(600);
    transport.send(sent, 1000);
    EXPECT_FALSE(transport.complete());
    drain(transport, sent);
    EXPECT_EQ(transport.completionCycle(), 1000u + 3 * 100u);
}

TEST(Transport, SubChunkPayloadIsOneShortChunk)
{
    TransportConfig config;
    config.chunk_bytes = 1024;
    config.cycles_per_chunk = 50;
    Transport transport(config);
    const auto sent = payload(100); // well under one chunk
    transport.send(sent, 0);

    const auto all = drain(transport, sent);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].offset, 0u);
    EXPECT_EQ(all[0].bytes.size(), 100u);
    EXPECT_EQ(transport.chunksSent(), 1u);
    EXPECT_EQ(transport.completionCycle(), 50u);
}

TEST(Transport, HeldChunksAreNeverRetransmitted)
{
    // The resume path: chunks the receiver already staged before a
    // power cut are NACKed away — not transmitted, not delivered.
    TransportConfig config;
    config.chunk_bytes = 256;
    config.cycles_per_chunk = 100;
    Transport transport(config);
    const auto sent = payload(1024); // 4 chunks
    std::vector<bool> held = {true, false, true, false};
    transport.send(sent, 0, held);

    std::vector<Transport::Chunk> all;
    uint64_t cycle = 0;
    while (!transport.complete()) {
        cycle += 100;
        for (auto &chunk : transport.poll(cycle))
            all.push_back(std::move(chunk));
        ASSERT_LT(cycle, 1u << 20);
    }
    ASSERT_EQ(all.size(), 2u);
    EXPECT_EQ(all[0].offset, 256u);
    EXPECT_EQ(all[1].offset, 768u);
    EXPECT_EQ(transport.chunksSkipped(), 2u);
    EXPECT_EQ(transport.chunksSent(), 2u);
    // Two transmissions at the cap: done at 200, not 400.
    EXPECT_EQ(transport.completionCycle(), 200u);

    // Everything held: nothing to send, complete at the send cycle.
    Transport resumed(config);
    resumed.send(sent, 42, std::vector<bool>(4, true));
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.completionCycle(), 42u);
    EXPECT_EQ(resumed.chunksSkipped(), 4u);

    // A short held map treats the tail as missing.
    Transport partial(config);
    partial.send(sent, 0, {true});
    EXPECT_EQ(partial.chunksSkipped(), 1u);
    EXPECT_FALSE(partial.complete());
}

TEST(TransportDeath, RejectsBrokenConfigs)
{
    TransportConfig config;
    config.chunk_bytes = 0;
    EXPECT_DEATH_IF_SUPPORTED(
        { Transport transport(config); (void)transport; },
        "chunk size");
    TransportConfig full_loss;
    full_loss.loss_rate = 1.0;
    EXPECT_DEATH_IF_SUPPORTED(
        { Transport transport(full_loss); (void)transport; },
        "loss rate");

    // NaN fails every range, and the reorder rate and burst length
    // have both bounds checked.
    const double nan = std::numeric_limits<double>::quiet_NaN();
    TransportConfig nan_loss;
    nan_loss.loss_rate = nan;
    EXPECT_DEATH_IF_SUPPORTED(
        { Transport transport(nan_loss); (void)transport; },
        "loss rate");
    for (const double burst : {nan, 1e30}) {
        TransportConfig bursty;
        bursty.loss_rate = 0.5;
        bursty.burst_length = burst;
        EXPECT_DEATH_IF_SUPPORTED(
            { Transport transport(bursty); (void)transport; },
            "loss burst")
            << burst;
    }
    for (const double rate : {-0.1, 1.5, nan}) {
        TransportConfig reorder;
        reorder.reorder_rate = rate;
        EXPECT_DEATH_IF_SUPPORTED(
            { Transport transport(reorder); (void)transport; },
            "reorder rate")
            << rate;
    }
}

} // namespace
