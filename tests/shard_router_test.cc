/**
 * @file
 * ShardRouter: seeded determinism, range, scatter order preservation,
 * buffer reuse, and rough balance of the H3-based mapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "shard/shard_router.h"
#include "util/rng.h"

namespace talus {
namespace {

std::vector<Addr>
uniformAddrs(uint64_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> addrs(n);
    for (Addr& a : addrs)
        a = rng.below(1ull << 40);
    return addrs;
}

TEST(ShardRouter, RoutesInRangeAndDeterministically)
{
    const ShardRouter router(5, 0xABCD);
    const ShardRouter twin(5, 0xABCD);
    for (Addr a : uniformAddrs(10'000, 1)) {
        const uint32_t shard = router.route(a);
        EXPECT_LT(shard, 5u);
        EXPECT_EQ(twin.route(a), shard);
    }
}

TEST(ShardRouter, SeedChangesTheMapping)
{
    const ShardRouter a(8, 1);
    const ShardRouter b(8, 2);
    uint32_t differing = 0;
    for (Addr addr : uniformAddrs(1'000, 3))
        differing += a.route(addr) != b.route(addr);
    // Two independent H3 functions agree on ~1/8 of addresses.
    EXPECT_GT(differing, 500u);
}

TEST(ShardRouter, SingleShardRoutesEverythingToZero)
{
    const ShardRouter router(1, 99);
    for (Addr a : uniformAddrs(1'000, 5))
        EXPECT_EQ(router.route(a), 0u);
}

TEST(ShardRouter, ScatterPartitionsAndPreservesOrder)
{
    const ShardRouter router(4, 0x50C4);
    const std::vector<Addr> addrs = uniformAddrs(20'000, 7);
    ScatterPlan plan;
    router.scatterFlat(Span<const Addr>(addrs), plan);

    ASSERT_EQ(plan.numShards(), 4u);
    EXPECT_EQ(plan.total(), addrs.size());
    uint64_t total = 0;
    for (uint32_t s = 0; s < 4; ++s) {
        total += plan.count(s);
        for (Addr a : plan.shardSpan(s))
            EXPECT_EQ(router.route(a), s);
    }
    EXPECT_EQ(total, addrs.size());

    // Replaying the original stream and popping each address from the
    // front of its shard's sub-stream must consume every sub-stream
    // in order.
    std::vector<uint64_t> next(4, 0);
    for (Addr a : addrs) {
        const uint32_t s = router.route(a);
        ASSERT_LT(next[s], plan.count(s));
        EXPECT_EQ(plan.shardSpan(s)[next[s]], a);
        next[s]++;
    }
}

TEST(ShardRouter, ScatterReusesBuffersWithoutAccumulating)
{
    const ShardRouter router(3, 11);
    const std::vector<Addr> first = uniformAddrs(900, 13);
    const std::vector<Addr> second = uniformAddrs(300, 17);

    ScatterPlan plan;
    router.scatterFlat(Span<const Addr>(first), plan);
    router.scatterFlat(Span<const Addr>(second), plan);
    EXPECT_EQ(plan.total(), second.size());
    uint64_t total = 0;
    for (uint32_t s = 0; s < plan.numShards(); ++s) {
        total += plan.count(s);
        // The second scatter alone: every sub-stream is second's.
        for (Addr a : plan.shardSpan(s))
            EXPECT_NE(std::find(second.begin(), second.end(), a),
                      second.end());
    }
    EXPECT_EQ(total, second.size());
}

TEST(ShardRouter, RoughlyBalancesUniformTraffic)
{
    const uint32_t shards = 8;
    const uint64_t n = 100'000;
    const ShardRouter router(shards, 0xBA1A);
    std::vector<uint64_t> counts(shards, 0);
    for (Addr a : uniformAddrs(n, 19))
        counts[router.route(a)]++;
    const double mean = static_cast<double>(n) / shards;
    for (uint32_t s = 0; s < shards; ++s) {
        EXPECT_GT(counts[s], mean * 0.9) << "shard " << s;
        EXPECT_LT(counts[s], mean * 1.1) << "shard " << s;
    }
}

} // namespace
} // namespace talus
