/**
 * @file
 * TalusController: the full Talus mechanism around a partitioned
 * cache (Fig. 7 of the paper).
 *
 * The controller owns a physical cache with 2N partitions for N
 * logical (software-visible) partitions: logical p maps to physical
 * 2p (the alpha shadow partition) and 2p+1 (beta). Accesses are
 * routed by per-logical-partition H3 sampling functions.
 *
 * Reconfiguration follows the paper's software flow:
 *  - pre-processing: convexHulls() turns monitored miss curves into
 *    hulls for the system's partitioning algorithm (which can then
 *    safely assume convexity);
 *  - the partitioning algorithm (alloc/) runs on the hulls, producing
 *    logical allocations — the controller does NOT choose them;
 *  - post-processing: configure() converts logical allocations into
 *    shadow partition sizes and sampling rates (Theorem 6 + the 5%
 *    safety margin), handles way-partitioning coarsening by
 *    recomputing rho from the achieved sizes (Sec. VI-B), and scales
 *    targets by the scheme's usable fraction (0.9 for Vantage).
 */

#ifndef TALUS_CORE_TALUS_CONTROLLER_H
#define TALUS_CORE_TALUS_CONTROLLER_H

#include <memory>
#include <vector>

#include "core/convex_hull.h"
#include "core/shadow_router.h"
#include "core/talus_config.h"
#include "partition/partitioned_cache.h"
#include "util/log.h"

namespace talus {

/** Talus wrapped around a physical partitioned cache. */
class TalusController
{
  public:
    /** Controller configuration. */
    struct Config
    {
        uint32_t numLogicalParts = 1; //!< Software-visible partitions.
        double margin = 0.05;         //!< Safety margin on rho.
        uint32_t routerBits = 8;      //!< Sampling hash/limit width.
        double usableFraction = 1.0;  //!< 0.9 under Vantage.
        bool recomputeFromCoarsened = false; //!< Way/set coarsening fix.
        uint64_t seed = 0x7A1C5;
    };

    /**
     * @param phys Physical cache; must expose 2 * numLogicalParts
     *        partitions.
     * @param config Controller configuration.
     */
    TalusController(std::unique_ptr<PartitionedCacheBase> phys,
                    const Config& config);

    /** Routes and performs one access for logical partition @p part. */
    bool access(Addr addr, PartId part);

    /**
     * Routes and performs a whole block of accesses for one logical
     * partition — bit-exact with calling access() per address. Over a
     * SchemePartitionedCache the router runs per access inside the
     * cache's (inline) access loop, so the whole block runs in the
     * caller's frame; other caches get a physical-partition array
     * through their batched entry point.
     *
     * @return Number of hits in the block.
     */
    __attribute__((always_inline)) uint64_t
    accessBlock(const Addr* addrs, uint64_t n, PartId part)
    {
        talus_assert(part < cfg_.numLogicalParts,
                     "bad logical partition ", part);
        if (schemeCache_ == nullptr)
            return accessBlockArray(addrs, n, part);
        // A saturated limit register sends every address to alpha
        // (every partition starts there), so the hash is skipped.
        const ShadowRouter& rt = routers_[part];
        const bool all_alpha = rt.alwaysAlpha();
        const PartId alpha = 2 * part;
        return schemeCache_->accessRoutedBy(
            addrs, n, [&rt, all_alpha, alpha](uint64_t, Addr a) {
                return all_alpha || rt.toAlpha(a) ? alpha : alpha + 1;
            });
    }

    /**
     * Pre-processing: convex hulls of monitored miss curves, in the
     * same order. Partitioning algorithms consume these.
     */
    static std::vector<MissCurve>
    convexHulls(const std::vector<MissCurve>& curves);

    /**
     * Post-processing: applies logical allocations.
     *
     * @param curves Monitored miss curves (one per logical partition,
     *        sizes in lines of the physical cache).
     * @param logical_alloc Lines allocated to each logical partition
     *        by the partitioning algorithm; the sum must not exceed
     *        capacity.
     */
    void configure(const std::vector<MissCurve>& curves,
                   const std::vector<uint64_t>& logical_alloc);

    /** Last applied shadow configuration of logical partition @p p. */
    const TalusConfig& configOf(PartId p) const;

    /** The sampling router of logical partition @p p. */
    const ShadowRouter& router(PartId p) const { return routers_[p]; }

    /** Effective (quantized) routing rate of partition @p p. */
    double routedRho(PartId p) const;

    /** Underlying physical cache. */
    PartitionedCacheBase& cache() { return *phys_; }
    const PartitionedCacheBase& cache() const { return *phys_; }

    /** Number of logical partitions. */
    uint32_t numLogicalParts() const { return cfg_.numLogicalParts; }

    /** Accesses by logical partition (alpha + beta shadows). */
    uint64_t logicalAccesses(PartId p) const;

    /** Misses by logical partition. */
    uint64_t logicalMisses(PartId p) const;

    /** Interval hook forwarded to the physical cache/policy. */
    void nextInterval() { phys_->nextInterval(); }

  private:
    /** accessBlock over a cache other than SchemePartitionedCache:
     *  alpha/beta decisions into a scratch partition array, then the
     *  routed batch entry. */
    uint64_t accessBlockArray(const Addr* addrs, uint64_t n, PartId part);

    Config cfg_;
    std::unique_ptr<PartitionedCacheBase> phys_;
    /** phys_ as a SchemePartitionedCache, or null (Ideal caches). */
    SchemePartitionedCache* schemeCache_ = nullptr;
    std::vector<ShadowRouter> routers_;
    std::vector<TalusConfig> shadowCfg_;
    std::vector<PartId> routeParts_; //!< accessBlock routing scratch.
};

} // namespace talus

#endif // TALUS_CORE_TALUS_CONTROLLER_H
