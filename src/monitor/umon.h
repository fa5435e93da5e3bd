/**
 * @file
 * UMON — utility monitor hardware model (Qureshi & Patt, MICRO'06;
 * Sec. VI-C of the Talus paper).
 *
 * A UMON is a small LRU tag array that samples a pseudo-random subset
 * of the access stream (by address hash). Because LRU obeys the stack
 * property, per-way hit counters give the miss ratio of the modeled
 * cache at every way-granularity size with a single array. A monitor
 * of W ways and S sets sampling a 1-in-F slice of addresses models a
 * cache of W*S*F lines at points spaced S*F lines apart (Theorem 4).
 *
 * UMonArray is the tag array and its counters; the sampling hash
 * belongs to its owner. CombinedUMon feeds two arrays from one H3Pair
 * lookup; UMon adds its own H3Hash for stand-alone use.
 */

#ifndef TALUS_MONITOR_UMON_H
#define TALUS_MONITOR_UMON_H

#include <vector>

#include "core/miss_curve.h"
#include "util/h3_hash.h"
#include "util/types.h"

namespace talus {

/**
 * The sampled LRU tag array and per-way hit counters of one UMON,
 * without a hash. The owner evaluates a 32-bit H3 hash h of each
 * address and calls accessSampled() for the addresses with
 * h < sampleLimit(): one H3 evaluation drives both decisions, the
 * magnitude compare the sampling, the low bits the set index.
 */
class UMonArray
{
  public:
    /** Monitor geometry and target. */
    struct Config
    {
        uint32_t ways = 64;          //!< Associativity (curve points).
        uint32_t sets = 16;          //!< Monitor sets (64x16 = 1K lines).
        uint64_t modeledLines = 1 << 17; //!< Cache size this UMON models.
    };

    explicit UMonArray(const Config& config);

    /**
     * Runs the tag-array update for one sampled address; @p h is its
     * 32-bit hash, already checked h < sampleLimit(). Stack positions
     * are kept by moving tags: the set row is ordered MRU first. An
     * address equal to the empty-slot marker ~0ull matches the first
     * empty slot as a hit; line addresses never reach it in practice.
     */
    void accessSampled(Addr addr, uint32_t h);

    /**
     * The sampling threshold over the 32-bit hash range:
     * ceil(monitor lines / modeled lines * 2^32), capped at 2^32 (all
     * sampled). For an integer hash h, h < ceil(L) <=> h < L, so the
     * integer compare samples exactly the addresses of the real-valued
     * threshold without int->double conversions on the hot path.
     */
    uint64_t sampleLimit() const { return sampleLimit_; }

    /** Accesses that passed the sampling filter. */
    uint64_t sampledAccesses() const { return sampled_; }

    /**
     * Miss-ratio curve: ways+1 points at sizes k * modeledLines/ways,
     * k = 0..ways, each the fraction of sampled accesses missing in a
     * cache of that size.
     */
    MissCurve curve() const;

    /** Halves all counters; called between reconfiguration intervals
     *  so the curve tracks the recent phase (Assumption 1). */
    void decay();

    /** Clears tags and counters. */
    void reset();

    /** Size modeled by this monitor, in lines. */
    uint64_t modeledLines() const { return cfg_.modeledLines; }

  private:
    Config cfg_;
    uint64_t sampleLimit_ = 0;
    // Set selection from the hash's low bits: setMask_ replaces the
    // modulo when sets is a power of two (the common geometry).
    uint32_t setMask_ = 0;
    bool setsArePow2_ = false;

    // tags_[set*ways + pos], pos 0 = MRU. Invalid entries hold
    // kInvalidTag.
    std::vector<Addr> tags_;
    // wayHits_[d]: hits at LRU stack position d. One extra slot,
    // wayHits_[ways], counts misses so the update needs no hit/miss
    // branch; curve() never reads it.
    std::vector<uint64_t> wayHits_;
    uint64_t sampled_ = 0;

    static constexpr Addr kInvalidTag = ~0ull;
};

/** A stand-alone UMON: a UMonArray sampled by its own H3 hash. */
class UMon : public UMonArray
{
  public:
    /** Geometry plus the sampling/set hash seed. */
    struct Config : UMonArray::Config
    {
        uint64_t seed = 0x0707; //!< Sampling/set hash seed.
    };

    explicit UMon(const Config& config)
        : UMonArray(config), hash_(32, config.seed)
    {
    }

    /**
     * Observes one access; samples it when its hash falls below the
     * sampling threshold. Pseudo-random address sampling
     * (Assumption 3) keeps the sampled stream statistically
     * self-similar, so the small array models a proportionally larger
     * cache (Theorem 4).
     */
    void access(Addr addr)
    {
        const uint32_t h = hash_.hash(addr);
        if (h < sampleLimit())
            accessSampled(addr, h);
    }

  private:
    H3Hash hash_;
};

} // namespace talus

#endif // TALUS_MONITOR_UMON_H
