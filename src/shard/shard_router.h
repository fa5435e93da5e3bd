/**
 * @file
 * ShardRouter: seeded, deterministic address -> shard mapping.
 *
 * A serving deployment scales Talus horizontally by hash-partitioning
 * the key space into independent shards, each running its own
 * self-managing TalusCache (the paper's cheap-deployability pitch,
 * Fig. 7, applied per shard). The router is the only piece the shards
 * share, so it must be stateless, seeded, and bit-stable: the same
 * (seed, numShards) must route the same address to the same shard on
 * every run, which is what makes sharded execution reproducible and
 * lets tests replay one shard's sub-stream through a stand-alone
 * TalusCache.
 *
 * Routing reuses the H3 family (util/h3_hash.h) that Talus already
 * specifies for its sampling hardware: a full-width 32-bit H3 hash is
 * reduced to [0, numShards) with a multiply-shift, so shard counts
 * need not be powers of two and no modulo sits on the hot path.
 */

#ifndef TALUS_SHARD_SHARD_ROUTER_H
#define TALUS_SHARD_SHARD_ROUTER_H

#include <cstdint>
#include <vector>

#include "util/h3_hash.h"
#include "util/span.h"
#include "util/types.h"

namespace talus {

/**
 * Reusable output of a flat count-then-offset scatter: every
 * sub-stream lives in ONE contiguous buffer, grouped by shard, with a
 * prefix-sum offset table — no nested vector-of-vectors, so a batch
 * in the steady state allocates nothing (all buffers only ever grow)
 * and shard sub-streams are handed to workers as (pointer, count)
 * views into the flat buffer.
 */
class ScatterPlan
{
  public:
    /** Shards the last scatter was split across. */
    uint32_t numShards() const
    {
        return static_cast<uint32_t>(counts_.size());
    }

    /** Addresses routed to @p shard in the last scatter. */
    uint64_t count(uint32_t shard) const { return counts_[shard]; }

    /** Base of @p shard's sub-stream (stream order preserved). */
    const Addr* shardData(uint32_t shard) const
    {
        return buf_.data() + offsets_[shard];
    }

    /** @p shard's sub-stream as a span. */
    Span<const Addr> shardSpan(uint32_t shard) const
    {
        return Span<const Addr>(shardData(shard), count(shard));
    }

    /** Total addresses in the last scatter. */
    uint64_t total() const { return buf_.size(); }

  private:
    friend class ShardRouter;

    std::vector<Addr> buf_;         //!< All addresses, grouped by shard.
    std::vector<uint64_t> counts_;  //!< [shard] sub-stream length.
    std::vector<uint64_t> offsets_; //!< [shard] start index into buf_.
    std::vector<uint64_t> cursors_; //!< Pass-2 write cursors.
    std::vector<uint32_t> routes_;  //!< [i] cached route of addrs[i],
                                    //!< so pass 2 never re-hashes.
};

/** Deterministic H3-based address -> shard mapping. */
class ShardRouter
{
  public:
    /**
     * Builds a router over @p num_shards shards.
     *
     * @param num_shards Number of shards (>= 1).
     * @param seed Seed for the H3 masks; same seed, same mapping.
     */
    explicit ShardRouter(uint32_t num_shards, uint64_t seed = 0x5A4D);

    /** The shard @p addr belongs to, in [0, numShards()). */
    uint32_t route(Addr addr) const
    {
        if (numShards_ == 1)
            return 0;
        // Multiply-shift reduction of the 32-bit H3 output: cheaper
        // than modulo and works for any shard count.
        return static_cast<uint32_t>(
            (static_cast<uint64_t>(hash_.hash(addr)) * numShards_) >>
            32);
    }

    /**
     * Flat count-then-offset scatter — the serving hot path. Pass 1
     * routes every address once (caching the route) and counts per
     * shard; pass 2 places each address at its shard's cursor in one
     * contiguous buffer. Stream order is preserved within each shard:
     * shard s receives exactly the addresses with route(addr) == s,
     * in stream order. @p plan's buffers are reused across calls, so
     * the steady state allocates nothing.
     */
    void scatterFlat(Span<const Addr> addrs, ScatterPlan& plan) const;

    /** Number of shards routed across. */
    uint32_t numShards() const { return numShards_; }

    /** The seed the H3 masks were built from. */
    uint64_t seed() const { return seed_; }

  private:
    uint32_t numShards_;
    uint64_t seed_;
    H3Hash hash_; //!< 32 output bits; reduced by multiply-shift.
};

} // namespace talus

#endif // TALUS_SHARD_SHARD_ROUTER_H
