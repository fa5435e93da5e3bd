/**
 * @file
 * Differential oracle for the fused Vantage+LRU access kernel.
 *
 * A SchemePartitionedCache over LRU + VantageScheme runs its fused,
 * devirtualized kernel (fingerprint probe, mask-derived victim
 * selection, AVX2 row scans where available). A bare SetAssocCache
 * with the same policy and scheme runs the generic virtual path:
 * full-tag probe, VantageScheme::selectVictim, LruPolicy hooks. The
 * generic path is the specification, so the two are driven in
 * lockstep across the geometry space and every divergence is caught
 * at the access (or batch) where it first appears:
 *
 *  - every single access compares hit/miss; every batch compares its
 *    hit count and the per-partition access/hit counters;
 *  - every few hundred accesses the full line state (tag, valid,
 *    owner, LRU stamp), per-partition occupancy, the unmanaged-line
 *    count and the eviction count are compared.
 *
 * The sweep covers associativities on and off the 16-way vector path
 * (up to the kernel's 64-way mask limit), power-of-two and odd set
 * counts down to a single set, 1-32 partitions, hashed and unhashed
 * set indexing, zero / under-committed / fully committed targets,
 * batch sizes below, at and above the prefetch lookahead, mid-stream
 * re-targeting and invalidations, and a trace whose neighbouring
 * addresses collide in the 32-bit probe fingerprint (low32 ^ high32).
 * Everything is seeded; the run is deterministic.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/set_assoc_cache.h"
#include "partition/partitioned_cache.h"
#include "partition/vantage.h"
#include "policy/lru.h"
#include "util/rng.h"

namespace talus {
namespace {

/** One cache geometry under test. */
struct Geometry
{
    uint32_t sets;
    uint32_t ways;
    uint32_t parts;
    bool hashed;
};

std::string
describe(const Geometry& g)
{
    return "sets=" + std::to_string(g.sets) +
           " ways=" + std::to_string(g.ways) +
           " parts=" + std::to_string(g.parts) +
           (g.hashed ? " hashed" : " unhashed");
}

SetAssocCache::Config
cacheConfig(const Geometry& g)
{
    SetAssocCache::Config c;
    c.numSets = g.sets;
    c.numWays = g.ways;
    c.hashSetIndex = g.hashed;
    c.hashSeed = 0x5EED ^ g.sets;
    return c;
}

/** Batch sizes: single, odd, around the prefetch lookahead, a full
 *  facade chunk. */
constexpr uint64_t kBatchSizes[] = {1, 3, 7, 8, 4096};

/** The fused cache and its generic oracle, driven in lockstep. */
class Lockstep
{
  public:
    explicit Lockstep(const Geometry& g)
        : geo_(g),
          fused_(cacheConfig(g), std::make_unique<LruPolicy>(),
                 std::make_unique<VantageScheme>(g.parts)),
          oracle_(cacheConfig(g), std::make_unique<LruPolicy>(),
                  std::make_unique<VantageScheme>(g.parts))
    {
    }

    /** One access through SchemePartitionedCache::access(). */
    void access(Addr a, PartId p)
    {
        const bool hit = fused_.access(a, p);
        const bool want = oracle_.access(a, p);
        ASSERT_EQ(hit, want) << where() << ": single access to 0x"
                             << std::hex << a << std::dec << " part "
                             << p;
        accesses_++;
    }

    /** A block through accessBatchRouted (@p parts per address) or,
     *  when @p parts is null, accessBatchUniform(@p upart). */
    void batch(const std::vector<Addr>& addrs, const PartId* parts,
               PartId upart)
    {
        const uint64_t n = addrs.size();
        const uint64_t hits =
            parts != nullptr
                ? fused_.accessBatchRouted(addrs.data(), parts, n)
                : fused_.accessBatchUniform(addrs.data(), n, upart);
        uint64_t want = 0;
        for (uint64_t i = 0; i < n; ++i)
            want += oracle_.access(addrs[i],
                                   parts != nullptr ? parts[i] : upart);
        ASSERT_EQ(hits, want)
            << where() << ": " << (parts ? "routed" : "uniform")
            << " batch of " << n;
        const CacheStats& fs = fused_.stats();
        const CacheStats& os = oracle_.stats();
        for (PartId q = 0; q < geo_.parts; ++q) {
            ASSERT_EQ(fs.accesses(q), os.accesses(q)) << where();
            ASSERT_EQ(fs.hits(q), os.hits(q)) << where();
        }
        accesses_ += n;
    }

    void setTargets(const std::vector<uint64_t>& t)
    {
        fused_.setTargets(t);
        oracle_.setTargets(t);
    }

    void invalidateLine(uint32_t line)
    {
        fused_.cache().invalidateLine(line);
        oracle_.invalidateLine(line);
    }

    void invalidateAll()
    {
        fused_.cache().invalidateAll();
        oracle_.invalidateAll();
    }

    /** Full-state comparison: every line, every counter. */
    void expectSameState()
    {
        SetAssocCache& fc = fused_.cache();
        const auto& flru = static_cast<const LruPolicy&>(fc.policy());
        const auto& olru =
            static_cast<const LruPolicy&>(oracle_.policy());
        for (uint32_t l = 0; l < oracle_.numLines(); ++l) {
            ASSERT_EQ(fc.lineValid(l), oracle_.lineValid(l))
                << where() << ": valid of line " << l;
            ASSERT_EQ(fc.lineTag(l), oracle_.lineTag(l))
                << where() << ": tag of line " << l;
            ASSERT_EQ(fc.linePart(l), oracle_.linePart(l))
                << where() << ": owner of line " << l;
            if (oracle_.lineValid(l)) {
                ASSERT_EQ(flru.stamp(l), olru.stamp(l))
                    << where() << ": LRU stamp of line " << l;
            }
        }
        for (PartId q = 0; q < geo_.parts; ++q) {
            ASSERT_EQ(fused_.occupancy(q),
                      oracle_.scheme()->occupancy(q))
                << where() << ": occupancy of part " << q;
            ASSERT_EQ(fused_.occupancy(q), oracle_.countLines(q))
                << where() << ": occupancy counter vs lines, part " << q;
        }
        const auto* fv = static_cast<const VantageScheme*>(fc.scheme());
        const auto* ov =
            static_cast<const VantageScheme*>(oracle_.scheme());
        ASSERT_EQ(fv->unmanagedLines(), ov->unmanagedLines()) << where();
        ASSERT_EQ(fused_.stats().evictions(), oracle_.stats().evictions())
            << where();
        ASSERT_EQ(fused_.stats().totalHits(), oracle_.stats().totalHits())
            << where();
    }

    uint64_t capacity() const { return oracle_.numLines(); }
    uint64_t accesses() const { return accesses_; }

  private:
    std::string where() const
    {
        return describe(geo_) + " after " + std::to_string(accesses_) +
               " accesses";
    }

    Geometry geo_;
    SchemePartitionedCache fused_;
    SetAssocCache oracle_;
    uint64_t accesses_ = 0;
};

/**
 * Targets in one of four regimes: all zero; some partitions zero,
 * the rest under-committed; under-committed (leaving an unmanaged
 * region); fully committed (targets sum to the whole capacity, so
 * the partitions overrun their share of every set and Vantage must
 * evict from the most over-target partition).
 */
std::vector<uint64_t>
drawTargets(Rng& rng, uint32_t parts, uint64_t capacity)
{
    std::vector<uint64_t> t(parts, 0);
    const uint64_t mode = rng.below(4);
    if (mode == 0)
        return t;
    const uint64_t budget =
        mode == 3 ? capacity : capacity * (30 + rng.below(61)) / 100;
    std::vector<uint64_t> weight(parts);
    uint64_t wsum = 0;
    for (uint32_t p = 0; p < parts; ++p) {
        weight[p] = (mode == 1 && rng.chance(0.4)) ? 0 : 1 + rng.below(8);
        wsum += weight[p];
    }
    if (wsum == 0)
        return t;
    uint64_t given = 0;
    for (uint32_t p = 0; p < parts; ++p) {
        t[p] = budget * weight[p] / wsum;
        given += t[p];
    }
    // Hand rounding leftovers to the first weighted partition keeps a
    // fully committed budget exact.
    for (uint32_t p = 0; p < parts && given < budget; ++p)
        if (weight[p] != 0) {
            t[p] += budget - given;
            given = budget;
        }
    return t;
}

/**
 * An address stream with reuse: a hot half-capacity region, a cold
 * region twice the capacity, and (with @p collide) every other
 * address paired with its predecessor under a fingerprint collision:
 * flipping bits 0 and 32 together keeps low32 ^ high32 while
 * changing the tag.
 */
class AddrSource
{
  public:
    AddrSource(uint64_t seed, uint64_t capacity, bool collide)
        : rng_(seed), hot_(capacity / 2 + 1), cold_(2 * capacity + 8),
          collide_(collide)
    {
    }

    Addr next()
    {
        Addr a;
        if (collide_ && (count_++ & 1) != 0)
            a = last_ ^ 0x1'0000'0001ull;
        else if (rng_.chance(0.6))
            a = rng_.below(hot_);
        else
            a = hot_ + rng_.below(cold_);
        last_ = a;
        return a;
    }

  private:
    Rng rng_;
    uint64_t hot_;
    uint64_t cold_;
    bool collide_;
    uint64_t count_ = 0;
    Addr last_ = 0;
};

/** Drives @p accesses accesses of mixed batch shapes and mid-stream
 *  events through one geometry, checking state periodically. */
void
runLockstep(const Geometry& g, uint64_t accesses, uint64_t seed,
            bool collide)
{
    SCOPED_TRACE(describe(g));
    Lockstep ls(g);
    Rng rng(seed);
    AddrSource src(seed * 7 + 1, ls.capacity(), collide);
    constexpr uint64_t kCheckEvery = 300;
    uint64_t next_check = kCheckEvery;

    ls.setTargets(drawTargets(rng, g.parts, ls.capacity()));
    std::vector<Addr> addrs;
    std::vector<PartId> parts;
    while (ls.accesses() < accesses) {
        // Mid-stream events, each a few times per run.
        const uint64_t ev = rng.below(64);
        if (ev == 0)
            ls.setTargets(drawTargets(rng, g.parts, ls.capacity()));
        else if (ev == 1)
            ls.invalidateLine(
                static_cast<uint32_t>(rng.below(ls.capacity())));
        else if (ev == 2 && rng.chance(0.2))
            ls.invalidateAll();

        const uint64_t shape = rng.below(16);
        if (shape < 6) {
            ls.access(src.next(),
                      static_cast<PartId>(rng.below(g.parts)));
        } else {
            // The 4096-access block is rarer so small geometries still
            // see many events between full-chunk batches.
            uint64_t n = kBatchSizes[rng.below(4)];
            if (rng.chance(0.02))
                n = kBatchSizes[4];
            addrs.resize(n);
            parts.resize(n);
            for (uint64_t i = 0; i < n; ++i) {
                addrs[i] = src.next();
                parts[i] = static_cast<PartId>(rng.below(g.parts));
            }
            ls.batch(addrs, shape < 11 ? parts.data() : nullptr,
                     static_cast<PartId>(rng.below(g.parts)));
        }
        if (::testing::Test::HasFatalFailure())
            return;
        if (ls.accesses() >= next_check) {
            ls.expectSameState();
            if (::testing::Test::HasFatalFailure())
                return;
            next_check = ls.accesses() + kCheckEvery;
        }
    }
    ls.expectSameState();
}

constexpr uint32_t kWays[] = {2, 3, 7, 16, 17, 32, 64};
constexpr uint32_t kSets[] = {1, 6, 8, 13, 64};

TEST(KernelOracle, GeometrySweepMatchesGenericPath)
{
    // Partition count and set hashing rotate through the sweep so
    // every associativity meets every set count under a different
    // (parts, hashed) pair.
    constexpr struct
    {
        uint32_t parts;
        bool hashed;
    } kMix[] = {{1, false}, {2, true}, {5, false}, {32, true}};
    uint64_t seed = 101;
    uint32_t mix = 0;
    for (const uint32_t ways : kWays)
        for (const uint32_t sets : kSets) {
            const auto m = kMix[mix++ % 4];
            runLockstep({sets, ways, m.parts, m.hashed}, 15000, seed++,
                        false);
            if (HasFatalFailure())
                return;
        }
}

TEST(KernelOracle, PartitionCountSweepMatchesGenericPath)
{
    uint64_t seed = 501;
    for (uint32_t parts = 1; parts <= 32; parts += (parts < 4 ? 1 : 7))
        for (const bool hashed : {false, true}) {
            runLockstep({16, 16, parts, hashed}, 20000, seed++, false);
            if (HasFatalFailure())
                return;
        }
}

TEST(KernelOracle, FingerprintCollisionsMatchFullTagProbe)
{
    // Half the addresses share a probe fingerprint with a distinct
    // neighbour, so fingerprint matches that fail the tag check are
    // constant; the generic full-tag probe is the oracle for them.
    uint64_t seed = 901;
    for (const uint32_t ways : {16u, 17u, 64u})
        for (const bool hashed : {false, true}) {
            runLockstep({8, ways, 2, hashed}, 40000, seed++, true);
            if (HasFatalFailure())
                return;
        }
}

} // namespace
} // namespace talus
