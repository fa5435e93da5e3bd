#include "shard/shard_router.h"

#include "util/log.h"

namespace talus {

ShardRouter::ShardRouter(uint32_t num_shards, uint64_t seed)
    : numShards_(num_shards), seed_(seed), hash_(32, seed)
{
    talus_assert(num_shards >= 1, "a router needs at least one shard");
}

void
ShardRouter::scatterFlat(Span<const Addr> addrs, ScatterPlan& plan) const
{
    const size_t n = addrs.size();
    // Pass 1: route once per address (cache the result — H3 plus the
    // multiply-shift is the expensive part) and count per shard.
    plan.counts_.assign(numShards_, 0);
    plan.routes_.resize(n);
    for (size_t i = 0; i < n; ++i) {
        const uint32_t s = route(addrs[i]);
        plan.routes_[i] = s;
        plan.counts_[s]++;
    }
    // Prefix-sum the counts into per-shard base offsets.
    plan.offsets_.resize(numShards_);
    plan.cursors_.resize(numShards_);
    uint64_t off = 0;
    for (uint32_t s = 0; s < numShards_; ++s) {
        plan.offsets_[s] = off;
        plan.cursors_[s] = off;
        off += plan.counts_[s];
    }
    // Pass 2: place each address at its shard's cursor. Ascending i
    // keeps stream order within every shard.
    plan.buf_.resize(n);
    for (size_t i = 0; i < n; ++i)
        plan.buf_[plan.cursors_[plan.routes_[i]]++] = addrs[i];
}

} // namespace talus
