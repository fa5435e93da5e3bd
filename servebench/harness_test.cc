/**
 * @file
 * Tests of the benchmark's own code: seeded inputs, the tail
 * percentile rule, the open-loop driver's sojourn accounting, the span
 * ledger's self time, and the correctness gate.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "harness.h"
#include "workloads.h"

namespace servebench {
namespace {

TEST(Inputs, SameSeedSameInputsAndMissRatio)
{
    const Inputs a = makeInputs("tenant_churn_open", 7);
    const Inputs b = makeInputs("tenant_churn_open", 7);
    ASSERT_EQ(a.addrs, b.addrs);
    ASSERT_EQ(a.measured.size(), b.measured.size());
    for (size_t i = 0; i < a.measured.size(); ++i) {
        EXPECT_EQ(a.measured[i].n, b.measured[i].n);
        EXPECT_EQ(a.measured[i].part, b.measured[i].part);
    }
    Gate gate;
    const Pass pa = closedLoop("tenant_churn_open", a, &threadCpuNs, gate);
    const Pass pb = closedLoop("tenant_churn_open", b, &threadCpuNs, gate);
    EXPECT_TRUE(gate.ok());
    EXPECT_EQ(missRatio(a, pa.hits), missRatio(b, pb.hits));
}

TEST(Inputs, DifferentSeedDifferentInputs)
{
    for (const std::string& w : kWorkloads) {
        const Inputs a = makeInputs(w, 1);
        const Inputs b = makeInputs(w, 2);
        EXPECT_EQ(a.addrs.size(), b.addrs.size()) << w;
        EXPECT_NE(a.addrs, b.addrs) << w;
    }
}

TEST(Inputs, BatchesCoverEveryAddressOnce)
{
    for (const std::string& w : kWorkloads) {
        const Inputs in = makeInputs(w, 3);
        uint64_t n = 0, measured = 0;
        for (const Batch& b : in.warm)
            n += b.n;
        for (const Batch& b : in.measured)
            measured += b.n;
        EXPECT_EQ(n + measured, in.addrs.size()) << w;
        EXPECT_EQ(measured, in.measuredAccesses) << w;
        // A per-pass p99 needs >= 1000 batches to be supported.
        EXPECT_GE(in.measured.size(), 1000u) << w;
    }
}

TEST(Percentile, NamesOnlyQuantilesWithTenSamplesBeyond)
{
    EXPECT_EQ(supportedQuantile(1000, 0.99), 0.99);
    EXPECT_EQ(supportedQuantile(999, 0.99), 0.95);
    EXPECT_EQ(supportedQuantile(10000, 0.999), 0.999);
    EXPECT_EQ(supportedQuantile(10000, 0.99), 0.99);
    EXPECT_EQ(supportedQuantile(19, 0.99), 0.0);
    for (size_t n = 20; n <= 5000; ++n) {
        const double q = supportedQuantile(n, 0.99);
        ASSERT_GT(q, 0.0) << n;
        const size_t rank =
            static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
        EXPECT_GE(n - rank, 10u) << "n=" << n << " q=" << q;
    }
}

TEST(Percentile, SummarizeReportsTheSupportedTail)
{
    std::vector<double> v(500);
    for (size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<double>(i + 1);
    const Tail t = summarize(v);
    EXPECT_EQ(t.n, 500u);
    EXPECT_EQ(t.q, 0.95);
    EXPECT_EQ(t.tail, 475.0);
    EXPECT_EQ(t.p50, 250.0);
}

TEST(PerBatchFastest, TakesEachBatchsFastestTimeOverPasses)
{
    // Three passes over the same four batches; the host slowed a
    // different batch in each pass.
    const std::vector<std::vector<double>> passes = {
        {10, 90, 30, 40}, {50, 20, 30, 40}, {10, 20, 70, 45}};
    EXPECT_EQ(perBatchFastest(passes), (std::vector<double>{10, 20, 30, 40}));
    EXPECT_TRUE(perBatchFastest({}).empty());
}

TEST(FifoQueue, SojournCountsQueueingBehindASlowBatch)
{
    // One 1000-access batch due every 100 us at 1e7 acc/s.
    std::vector<Batch> batches(6, Batch{nullptr, 1000, 0});
    const std::vector<double> service = {50e3, 50e3, 350e3,
                                         50e3, 50e3, 50e3};
    const Queue q = fifoQueue(batches, 1e7, service, 1e6);
    // Batch 2 ends at 550 us; batch 3, due at 300 us, starts then.
    EXPECT_EQ(q.sojournNs,
              (std::vector<double>{50e3, 50e3, 350e3, 300e3, 250e3,
                                   200e3}));
    EXPECT_FALSE(q.backlogGrew);
    // Served slower than they arrive: the queue never drains.
    batches.resize(20, batches.front());
    const Queue over = fifoQueue(batches, 1e8,
                                 std::vector<double>(20, 50e3), 1e3);
    EXPECT_TRUE(over.backlogGrew);
}

/** Spins for @p ns on the calling thread, as a stalled engine would. */
void
spinFor(int64_t ns)
{
    const int64_t end = nowNs() + ns;
    while (nowNs() < end) {
    }
}

void
expectStallShowsInLaterBatches(ClockFn clock)
{
    std::vector<Batch> batches(120, Batch{nullptr, 1000, 0});
    const double rate = 1e7; // one 1000-access batch every 100 us
    constexpr int64_t kStall = 5'000'000;
    size_t served = 0;
    const OpenLoopResult r =
        runOpenLoop(batches, rate, 1e6, [&](const Batch&) {
            if (served++ == 3)
                spinFor(kStall);
            return uint64_t{1};
        }, clock);
    ASSERT_EQ(r.sojournNs.size(), batches.size());
    ASSERT_EQ(r.serviceNs.size(), batches.size());
    EXPECT_EQ(r.hits, batches.size());
    EXPECT_EQ(r.batchHits, std::vector<uint64_t>(batches.size(), 1));
    EXPECT_LT(r.sojournNs[2], 1e6);
    EXPECT_GE(r.sojournNs[3], 0.9 * kStall);
    // Batch 4 was due 100 us after batch 3 and waited for it: its
    // sojourn counts the stall, from its own scheduled arrival.
    EXPECT_GE(r.sojournNs[4], 0.9 * kStall - 1e5);
    EXPECT_GE(r.sojournNs[10], 0.9 * kStall - 7e5);
    // The server caught up 5 ms after the stall began.
    EXPECT_LT(r.sojournNs[100], 1e6);
    EXPECT_FALSE(r.backlogGrew);
}

TEST(OpenLoop, StallShowsInLaterBatchesWallClock)
{
    expectStallShowsInLaterBatches(&nowNs);
}

TEST(OpenLoop, StallShowsInLaterBatchesCpuClock)
{
    expectStallShowsInLaterBatches(&threadCpuNs);
}

TEST(OpenLoop, OverloadGrowsTheBacklog)
{
    std::vector<Batch> batches(200, Batch{nullptr, 1000, 0});
    // Due every 10 us, served in 50 us: the queue never drains.
    const OpenLoopResult r = runOpenLoop(
        batches, 1e8, 1e6,
        [](const Batch&) {
            spinFor(50'000);
            return uint64_t{0};
        },
        &nowNs);
    EXPECT_TRUE(r.backlogGrew);
    EXPECT_GT(r.sojournNs.back(), r.sojournNs.front());
}

TEST(SpanLog, SelfTimeSubtractsChildren)
{
    SpanLog log({"parent", "child"});
    const int32_t p = log.add(0, 0, 100, 200);
    log.add(1, 0, 110, 130, p);
    log.add(1, 0, 140, 150, p);
    log.add(0, 1, 300, 310);
    EXPECT_EQ(log.total(0), 110.0);
    EXPECT_EQ(log.selfTotal(0), 80.0);
    EXPECT_EQ(log.selfTotal(1), 30.0);
}

TEST(Gate, FailsOnAHitCountOffByOne)
{
    const Inputs in = makeInputs("scan_storm", 5);
    std::unique_ptr<Engine> e = makeEngine("scan_storm");
    uint64_t hits = warmUp(*e, in);
    for (const Batch& b : in.measured)
        hits += e->serve(b);

    Gate good;
    checkAccounting(good, *e, in, hits);
    EXPECT_TRUE(good.ok());

    Gate bad;
    checkAccounting(bad, *e, in, hits + 1);
    EXPECT_FALSE(bad.ok());
    ASSERT_EQ(bad.failures().size(), 1u);
    EXPECT_NE(bad.failures()[0].find("hits"), std::string::npos);
}

TEST(Gate, FailsOnLostAccessesAndOnTalusWorseThanLru)
{
    Gate g;
    EXPECT_TRUE(g.accounted(100, 100));
    EXPECT_TRUE(g.notWorseThanLru(0.07, 0.12));
    EXPECT_TRUE(g.ok());
    EXPECT_FALSE(g.accounted(100, 99));
    EXPECT_FALSE(g.notWorseThanLru(0.13, 0.12));
    EXPECT_FALSE(g.sameHits("repeat", 41, 42));
    EXPECT_EQ(g.failures().size(), 3u);
}

} // namespace
} // namespace servebench
