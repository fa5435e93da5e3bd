/**
 * @file
 * Uniform interface over partitioned caches.
 *
 * The Talus controller, the partitioning algorithms, and the
 * simulation engines all talk to a PartitionedCacheBase: a cache with
 * N software-visible partitions whose sizes can be re-targeted at
 * runtime. Two implementations exist:
 *
 *  - SchemePartitionedCache: a SetAssocCache plus a PartitionScheme
 *    (way / set / Vantage / unpartitioned).
 *  - IdealPartitionedCache (partition/ideal_partition.h): one exact
 *    fully-associative LRU per partition ("idealized partitioning",
 *    Talus+I in Fig. 8).
 */

#ifndef TALUS_PARTITION_PARTITIONED_CACHE_H
#define TALUS_PARTITION_PARTITIONED_CACHE_H

#include <memory>
#include <string>
#include <vector>

#include "cache/cache_stats.h"
#include "cache/set_assoc_cache.h"
#include "util/aligned.h"
#include "util/bits.h"
#include "util/log.h"
#include "util/types.h"

namespace talus {

class VantageScheme;
class LruPolicy;

/** Abstract partitioned cache with runtime-resizable partitions. */
class PartitionedCacheBase
{
  public:
    virtual ~PartitionedCacheBase() = default;

    /** One access by partition @p part; returns true on hit. */
    virtual bool access(Addr addr, PartId part) = 0;

    /**
     * A block of accesses with a per-address partition array (the
     * Talus controller's routed path). Bit-exact with calling
     * access() per element; implementations may fuse the per-access
     * virtual dispatch away. @return Number of hits.
     */
    virtual uint64_t accessBatchRouted(const Addr* addrs,
                                       const PartId* parts, uint64_t n)
    {
        uint64_t hits = 0;
        for (uint64_t i = 0; i < n; ++i)
            hits += access(addrs[i], parts[i]);
        return hits;
    }

    /**
     * A block of accesses all by partition @p part (the plain
     * facade path). Bit-exact with calling access() per element.
     * @return Number of hits.
     */
    virtual uint64_t accessBatchUniform(const Addr* addrs, uint64_t n,
                                        PartId part)
    {
        uint64_t hits = 0;
        for (uint64_t i = 0; i < n; ++i)
            hits += access(addrs[i], part);
        return hits;
    }

    /** Re-targets partition sizes (lines, one entry per partition). */
    virtual void setTargets(const std::vector<uint64_t>& lines) = 0;

    /** Number of software-visible partitions. */
    virtual uint32_t numPartitions() const = 0;

    /** Total capacity in lines. */
    virtual uint64_t capacityLines() const = 0;

    /** Actual lines held by @p part. */
    virtual uint64_t occupancy(PartId part) const = 0;

    /**
     * Effective (post-coarsening) target of @p part in lines. For way
     * partitioning this is the way-granular size, which Talus uses to
     * recompute its sampling rate (Sec. VI-B).
     */
    virtual uint64_t targetOf(PartId part) const = 0;

    /** Shared statistics (per-PartId). */
    virtual CacheStats& stats() = 0;
    virtual const CacheStats& stats() const = 0;

    /** Scheme name for reporting. */
    virtual const char* schemeName() const = 0;

    /** Periodic hook forwarded to policies that recompute state. */
    virtual void nextInterval() {}
};

/** Helpers of the fused Vantage+LRU kernel (SchemePartitionedCache). */
namespace fused {

/** 32-bit fold of a line address: the kernel's probe fingerprint. */
inline uint32_t
tagFingerprint(Addr a)
{
    return static_cast<uint32_t>(a) ^ static_cast<uint32_t>(a >> 32);
}

#if TALUS_AVX2
// AVX2 forms of the kernel's two 16-way row scans, behind the
// kHaveAvx2 branch (util/bits.h). Both are bit-exact with the scalar
// loops: the probe is pure lane-wise equality, and the argmin reduces
// unique keys, so the minimum is order-independent.

/** 16-lane fingerprint-equality mask over one 64-byte row. */
__attribute__((target("avx2"))) inline uint64_t
probeRow16(const uint32_t* row, uint32_t fp)
{
    const __m256i needle = _mm256_set1_epi32(static_cast<int>(fp));
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row));
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + 8));
    const uint32_t mlo = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(lo, needle))));
    const uint32_t mhi = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_cmpeq_epi32(hi, needle))));
    return mlo | (mhi << 8);
}

/**
 * Way of the minimum packed key ((stamp << 6) | way, excluded ways
 * saturated to all-ones) over a 16-way stamp row; @p m != 0. AVX2 has
 * no unsigned 64-bit min, so lanes are compared with the sign bit
 * flipped (signed greater-than over biased values == unsigned).
 */
__attribute__((target("avx2"))) inline uint32_t
argminRow16(const uint64_t* srow, uint64_t m)
{
    const __m256i one = _mm256_set1_epi64x(1);
    const __m256i mv = _mm256_set1_epi64x(static_cast<long long>(m));
    const __m256i sgn =
        _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
    __m256i best = _mm256_set1_epi64x(-1);
    for (uint32_t g = 0; g < 4; ++g) {
        const __m256i widx =
            _mm256_setr_epi64x(g * 4, g * 4 + 1, g * 4 + 2, g * 4 + 3);
        // excl = (bit set ? 0 : ~0), as (bit & 1) - 1.
        const __m256i bit =
            _mm256_and_si256(_mm256_srlv_epi64(mv, widx), one);
        const __m256i excl = _mm256_sub_epi64(bit, one);
        const __m256i st = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(srow + g * 4));
        const __m256i key = _mm256_or_si256(
            _mm256_or_si256(_mm256_slli_epi64(st, 6), widx), excl);
        const __m256i gt = _mm256_cmpgt_epi64(
            _mm256_xor_si256(best, sgn), _mm256_xor_si256(key, sgn));
        best = _mm256_blendv_epi8(best, key, gt);
    }
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), best);
    uint64_t k = lanes[0];
    k = lanes[1] < k ? lanes[1] : k;
    k = lanes[2] < k ? lanes[2] : k;
    k = lanes[3] < k ? lanes[3] : k;
    return static_cast<uint32_t>(k & 63);
}
#endif

} // namespace fused

/**
 * A SetAssocCache driven through a PartitionScheme.
 *
 * Every access has one semantics, the generic path's:
 * SetAssocCache::access() with its scheme and policy hooks. For the
 * configuration every Talus experiment and serving workload runs —
 * VantageScheme over exactly LruPolicy, at most 64 ways — the class
 * runs a fused, devirtualized kernel instead, which replicates that
 * path bit for bit. The kernel has one single-access body
 * (fusedAccessOne: fingerprint probe, LRU argmin, victim selection and
 * demotion over per-set way masks) and one loop over it
 * (accessRoutedBy), which adds only a set-index precompute and a
 * prefetch lookahead. Every entry point is that loop: access() at
 * n == 1, the batched entries at any n, and TalusController's routed
 * blocks, which pass their shadow router as the loop's routing
 * function. Every other configuration (other policies and schemes,
 * wider sets) takes the generic path through the same loop; it is
 * also the test oracle for the kernel (tests/kernel_oracle_test.cc).
 */
class SchemePartitionedCache : public PartitionedCacheBase
{
  public:
    /**
     * @param config Cache geometry.
     * @param policy Replacement policy (owned).
     * @param scheme Partitioning scheme (owned, required).
     */
    SchemePartitionedCache(const SetAssocCache::Config& config,
                           std::unique_ptr<ReplPolicy> policy,
                           std::unique_ptr<PartitionScheme> scheme);

    bool access(Addr addr, PartId part) override;
    uint64_t accessBatchRouted(const Addr* addrs, const PartId* parts,
                               uint64_t n) override;
    uint64_t accessBatchUniform(const Addr* addrs, uint64_t n,
                                PartId part) override;
    void setTargets(const std::vector<uint64_t>& lines) override;
    uint32_t numPartitions() const override;
    uint64_t capacityLines() const override;
    uint64_t occupancy(PartId part) const override;
    uint64_t targetOf(PartId part) const override;
    CacheStats& stats() override { return cache_.stats(); }
    const CacheStats& stats() const override { return cache_.stats(); }
    const char* schemeName() const override;
    void nextInterval() override { cache_.policy().nextInterval(); }

    /** Underlying cache, for tests and monitors. */
    SetAssocCache& cache() { return cache_; }

    /**
     * The access loop behind every entry point: @p n accesses, access
     * i by partition @p route(i, addrs[i]). Bit-exact with calling
     * access() per element. Inline, so a caller that routes per
     * access (TalusController) runs the whole kernel in its own frame.
     * @return Number of hits.
     */
    template <class Route>
    uint64_t accessRoutedBy(const Addr* addrs, uint64_t n, Route route);

  private:
    /** The loop over an optional partition array: access i by
     *  @p route[i], or by @p upart when @p route is null. The single
     *  out-of-line instance behind the virtual entry points. */
    uint64_t accessArray(const Addr* addrs, const PartId* route,
                         uint64_t n, PartId upart);

    /** The fused kernel's single-access body; @p set is the set index
     *  of @p addr. */
    bool fusedAccessOne(Addr addr, PartId part, uint32_t set);

    /** Set index of @p addr, as SetAssocCache::defaultSetIndex. */
    uint32_t fusedSetOf(Addr addr) const;

    /** Rebuilds the per-set masks and fingerprints from the line
     *  arrays, recaptures the kernel context, and records the cache's
     *  mutation epoch. Called lazily by the kernel when someone
     *  mutated lines (or targets) behind its back. */
    void rebuildMasks();

    SetAssocCache cache_;
    VantageScheme* fusedVantage_ = nullptr; //!< Set iff kernel usable.
    LruPolicy* fusedLru_ = nullptr;         //!< Set iff kernel usable.

    /**
     * Per-set way bitmaps mirroring the line arrays, so the kernel
     * finds invalid ways, owners and victim candidates without
     * scanning lines (bit order == way order, preserving the generic
     * scan order exactly). unmanagedMask_[s] has bit w set iff line
     * s*ways+w is valid and unmanaged; partMask_[s*nparts+p] iff it is
     * valid and owned by p. Invalid lines appear in neither. Valid
     * only while maskEpoch_ matches cache_.mutationEpoch().
     */
    CacheAlignedVec<uint64_t> unmanagedMask_;
    CacheAlignedVec<uint64_t> partMask_;

    /**
     * Per-line 32-bit fingerprint (low32 ^ high32) of the tag array,
     * indexed like the tags: a whole 16-way row fits one cache line,
     * so the probe touches half the lines the tag row would. A match
     * is verified against the canonical tag, so a collision costs a
     * load, never correctness. Fingerprints of invalid lines are the
     * fold of kInvalidTag, which is harmless for the same reason.
     */
    CacheAlignedVec<uint32_t> fpTags_;
    uint64_t maskEpoch_ = ~0ull; //!< Forces the initial rebuild.
    std::vector<uint32_t> setScratch_; //!< Precomputed set indices.

    /**
     * Kernel context captured at rebuildMasks() time: every pointer
     * and geometry field the kernel needs, packed so an access reads
     * one struct instead of chasing through four objects. All
     * pointers are stable between rebuilds — the paths that could
     * reseat them (generic access, invalidation, setTargets) bump the
     * mutation epoch or invalidate maskEpoch_ directly.
     */
    struct FusedCtx
    {
        Addr* tags;
        uint8_t* valid;
        PartId* lparts;
        uint64_t* stamps;
        uint64_t* clock;
        uint64_t* occ;
        const uint64_t* targets;
        uint64_t* unmanaged;
        uint64_t* umk;
        uint64_t* pmk;
        uint32_t* fpt;
        uint64_t* accRaw;
        uint64_t* hitRaw;
        uint64_t hashSeed;
        uint32_t ways;
        uint32_t sets;
        uint32_t setMask;
        uint32_t nparts;
        bool setsPow2;
        bool hashed;
    };
    FusedCtx ctx_{};
};

inline uint32_t
SchemePartitionedCache::fusedSetOf(Addr addr) const
{
    const FusedCtx& c = ctx_;
    const uint64_t h = c.hashed ? mix64(addr ^ c.hashSeed) : addr;
    return c.setsPow2 ? static_cast<uint32_t>(h & c.setMask)
                      : static_cast<uint32_t>(h % c.sets);
}

// The whole single-access body, in the generic path's operation order
// (probe -> stats -> stamp -> promote or victim -> evict bookkeeping
// -> insert -> demote). Every counter the generic path's virtual
// hooks would touch is updated inline, so the state after any prefix
// of a block is bit-identical to SetAssocCache::access() over
// VantageScheme + LruPolicy.
//
// Ownership comes from the per-set masks rather than lparts/valid: a
// hit way is unmanaged iff its umk bit is set, a victim's owner is
// implied by the mask that selected it, and an invalid-way victim
// needs no eviction bookkeeping at all. The canonical line arrays are
// still written on every mutation, so external readers (the generic
// path, tests, invalidation) always see the same state.
//
// always_inline: accessRoutedBy() is its only caller, and inlining
// keeps the probe, LRU touch and miss path in one register state.
__attribute__((always_inline)) inline bool
SchemePartitionedCache::fusedAccessOne(Addr addr, PartId part,
                                       uint32_t set)
{
    const FusedCtx& c = ctx_;
    const uint32_t ways = c.ways;
    const uint32_t nparts = c.nparts;
    talus_assert(part < nparts, "bad partition id ", part);
    talus_assert(addr != SetAssocCache::kInvalidTag,
                 "address aliases the invalid-tag sentinel");
    const uint32_t base = set * ways;
    Addr* tags = c.tags;
    uint64_t* stamps = c.stamps;
    uint64_t* umk = c.umk;
    uint64_t* pmk = c.pmk + static_cast<size_t>(set) * nparts;
    uint32_t* fpt = c.fpt;

    // Touch the stamp row and masks before the probe resolves: every
    // access writes a stamp (hit promotion or insert) and reads the
    // set's masks, but those loads sit behind the hit/miss branch, so
    // these prefetches overlap their latency with the probe.
    __builtin_prefetch(&stamps[base], 1);
    __builtin_prefetch(&stamps[base + ways - 1], 1);
    __builtin_prefetch(&umk[set], 1);
    __builtin_prefetch(pmk, 1);

    // Probe the fingerprint row. A fingerprint match is only a
    // candidate, verified against the canonical tag; no match is a
    // definite miss (the fold is a function of the address), and then
    // the tag row is never read. Tags are unique per set, so the
    // lowest verified way is the generic scan's hit way.
    const uint32_t fp = fused::tagFingerprint(addr);
    uint64_t m_fp = 0;
#if TALUS_AVX2
    if (ways == 16 && kHaveAvx2) {
        m_fp = fused::probeRow16(fpt + base, fp);
    } else
#endif
    {
        for (uint32_t w = 0; w < ways; ++w)
            m_fp |= static_cast<uint64_t>(fpt[base + w] == fp) << w;
    }
    uint64_t m_match = 0;
    while (m_fp != 0) {
        const uint32_t w = static_cast<uint32_t>(__builtin_ctzll(m_fp));
        if (tags[base + w] == addr) {
            m_match = 1ull << w;
            break;
        }
        m_fp &= m_fp - 1;
    }
    c.accRaw[part]++;

    // LRU argmin over the ways selected by mask @p m (m != 0). The LRU
    // clock stamps every touch with a fresh ++clock, so stamps are
    // unique and the minimum needs no way-order tie-break: packing
    // (stamp << 6) | way turns the walk into a pure min-reduction.
    // Excluded ways get an all-ones key above any real one (stamps
    // stay far below 2^57 for any feasible run).
    const auto argminStamp = [&](uint64_t m) -> uint32_t {
#if TALUS_AVX2
        if (ways == 16 && kHaveAvx2)
            return base + fused::argminRow16(stamps + base, m);
#endif
        uint64_t best = ~0ull;
        for (uint32_t w = 0; w < ways; ++w) {
            const uint64_t excl = -(((m >> w) & 1) ^ 1ull);
            const uint64_t key = ((stamps[base + w] << 6) | w) | excl;
            best = key < best ? key : best;
        }
        return base + static_cast<uint32_t>(best & 63);
    };

    // VantageScheme::demoteIfOverTarget: demote p's LRU line in this
    // set, other than the one just inserted or promoted.
    const auto demote = [&](uint32_t inserted, PartId p) {
        if (c.occ[p] <= c.targets[p] || c.targets[p] == 0)
            return;
        const uint64_t m = pmk[p] & ~(1ull << (inserted - base));
        if (m == 0)
            return; // Cannot demote within this set; converges later.
        const uint32_t demoted = argminStamp(m);
        c.lparts[demoted] = kNoPart;
        c.occ[p]--;
        (*c.unmanaged)++;
        pmk[p] &= ~(1ull << (demoted - base));
        umk[set] |= 1ull << (demoted - base);
    };

    if (m_match != 0) {
        const uint32_t hw = static_cast<uint32_t>(__builtin_ctzll(m_match));
        const uint32_t hit_line = base + hw;
        c.hitRaw[part]++;
        stamps[hit_line] = ++*c.clock;
        if ((umk[set] >> hw) & 1) {
            // Promotion: an unmanaged line that hits rejoins the
            // accessing partition, rebalancing immediately.
            c.lparts[hit_line] = part;
            c.occ[part]++;
            if (*c.unmanaged > 0)
                (*c.unmanaged)--;
            umk[set] &= ~(1ull << hw);
            pmk[part] |= 1ull << hw;
            demote(hit_line, part);
        }
        return true;
    }

    // Miss: invalid way first, else the unmanaged LRU, else the LRU of
    // the most over-target partition present. The masks cover exactly
    // the valid lines, so their complement over the way range is the
    // invalid set, in way order — no tag scan.
    uint64_t m_valid = umk[set];
    for (uint32_t q = 0; q < nparts; ++q)
        m_valid |= pmk[q];
    const uint64_t way_span = ways == 64 ? ~0ull : (1ull << ways) - 1;
    const uint64_t m_inval = ~m_valid & way_span;
    uint32_t victim;
    if (m_inval != 0) {
        victim = base + static_cast<uint32_t>(__builtin_ctzll(m_inval));
    } else if (const uint64_t mu = umk[set]; mu != 0) {
        // A one-bit mask needs no stamp scan.
        victim = (mu & (mu - 1)) == 0
                     ? base + static_cast<uint32_t>(__builtin_ctzll(mu))
                     : argminStamp(mu);
        cache_.stats().addEvictions(1);
        if (*c.unmanaged > 0)
            (*c.unmanaged)--;
        umk[set] &= ~(1ull << (victim - base));
    } else {
        // The rare set-conflict scan. The generic path walks ways in
        // order and keeps the first strictly greater occupancy/target
        // ratio, so among partitions tied at the maximum it picks the
        // one whose first way in this set is earliest; iterating
        // partitions with that explicit tie-break is equivalent.
        PartId worst = kNoPart;
        double worst_ratio = -1.0;
        uint32_t worst_first = 64;
        for (uint32_t q = 0; q < nparts; ++q) {
            if (pmk[q] == 0)
                continue;
            const double ratio =
                c.targets[q] == 0
                    ? 1e18
                    : static_cast<double>(c.occ[q]) /
                          static_cast<double>(c.targets[q]);
            const uint32_t first =
                static_cast<uint32_t>(__builtin_ctzll(pmk[q]));
            if (ratio > worst_ratio ||
                (ratio == worst_ratio && first < worst_first)) {
                worst_ratio = ratio;
                worst = q;
                worst_first = first;
            }
        }
        talus_assert(worst != kNoPart, "set full of foreign lines");
        victim = argminStamp(pmk[worst]);
        cache_.stats().addEvictions(1);
        if (c.occ[worst] > 0)
            c.occ[worst]--;
        pmk[worst] &= ~(1ull << (victim - base));
    }
    tags[victim] = addr;
    fpt[victim] = fp;
    c.valid[victim] = 1;
    c.lparts[victim] = part;
    stamps[victim] = ++*c.clock;
    c.occ[part]++;
    pmk[part] |= 1ull << (victim - base);
    demote(victim, part);
    return false;
}

template <class Route>
__attribute__((always_inline)) inline uint64_t
SchemePartitionedCache::accessRoutedBy(const Addr* addrs, uint64_t n,
                                       Route route)
{
    uint64_t hits = 0;
    if (fusedLru_ == nullptr) {
        for (uint64_t i = 0; i < n; ++i)
            hits += cache_.access(addrs[i], route(i, addrs[i]));
        return hits;
    }
    if (maskEpoch_ != cache_.mutationEpoch())
        rebuildMasks();

    // For real blocks, precompute all set indices in one tight pass;
    // the lookahead then prefetches upcoming rows while earlier
    // accesses resolve. Shorter blocks (a single access) skip both.
    constexpr uint64_t kPf = 8;
    uint32_t* setv = nullptr;
    if (n >= kPf) {
        if (setScratch_.size() < n)
            setScratch_.resize(n);
        setv = setScratch_.data();
        for (uint64_t i = 0; i < n; ++i)
            setv[i] = fusedSetOf(addrs[i]);
    }

    const FusedCtx& c = ctx_;
    for (uint64_t i = 0; i < n; ++i) {
        if (setv != nullptr && i + kPf < n) {
            const uint32_t ps = setv[i + kPf];
            const uint32_t pb = ps * c.ways;
            __builtin_prefetch(&c.fpt[pb], 0);
            __builtin_prefetch(&c.tags[pb], 0);
            __builtin_prefetch(&c.tags[pb + c.ways - 1], 0);
            __builtin_prefetch(&c.stamps[pb], 1);
            __builtin_prefetch(&c.stamps[pb + c.ways - 1], 1);
            __builtin_prefetch(&c.umk[ps], 1);
            __builtin_prefetch(&c.pmk[static_cast<size_t>(ps) * c.nparts],
                               1);
        }
        const Addr a = addrs[i];
        hits += fusedAccessOne(a, route(i, a),
                               setv != nullptr ? setv[i] : fusedSetOf(a));
    }
    return hits;
}

/** Which partitioned-cache construction to use. */
enum class SchemeKind
{
    Unpartitioned,
    Way,
    Set,
    Vantage,
    Futility,
    Ideal,
};

/** Parses a scheme name ("Unpartitioned", "Way", "Set", "Vantage",
 *  "Futility", "Ideal"); fatal on unknown names. */
SchemeKind parseSchemeKind(const std::string& name);

/**
 * The fraction of a partition's allocation Talus can actually rely on
 * under @p kind: 0.9 for Vantage (its unmanaged region gives no
 * capacity guarantees, Sec. VI-B), 1.0 for everything else —
 * including Futility Scaling, which is precisely why the paper
 * suggests it.
 */
double schemeUsableFraction(SchemeKind kind);

/**
 * Builds a partitioned cache.
 *
 * @param kind Scheme kind; Ideal requires policy_name == "LRU".
 * @param capacity_lines Total capacity in lines.
 * @param num_ways Associativity for scheme-based caches.
 * @param policy_name Replacement policy name (see policy_factory.h).
 * @param num_parts Number of software partitions.
 * @param seed Seed for stochastic policy/scheme components.
 */
std::unique_ptr<PartitionedCacheBase>
makePartitionedCache(SchemeKind kind, uint64_t capacity_lines,
                     uint32_t num_ways, const std::string& policy_name,
                     uint32_t num_parts, uint64_t seed = 0xCACE);

} // namespace talus

#endif // TALUS_PARTITION_PARTITIONED_CACHE_H
