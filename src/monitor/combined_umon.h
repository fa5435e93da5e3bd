/**
 * @file
 * Combined UMON with 4x LLC-size coverage (Sec. VI-C, "Miss curve
 * coverage").
 *
 * A conventional UMON only resolves the miss curve up to the LLC
 * size, so Talus could not trace convex hulls whose beta vertex lies
 * beyond it (e.g., libquantum's 32MB cliff seen from an 8MB LLC).
 * The paper adds a second monitor sampling at 1:16 of the primary's
 * rate: with only 16 ways it models 4x the LLC capacity at LLC/4
 * granularity. This class owns both monitors' tag arrays and the one
 * H3Pair that samples them, feeds them in one pass, and merges their
 * curves.
 */

#ifndef TALUS_MONITOR_COMBINED_UMON_H
#define TALUS_MONITOR_COMBINED_UMON_H

#include <algorithm>

#include "monitor/umon.h"
#include "util/log.h"
#include "util/span.h"

namespace talus {

/** Primary + low-rate-sampled UMON pair with merged miss curves. */
class CombinedUMon
{
  public:
    /** Configuration for the pair. */
    struct Config
    {
        uint64_t llcLines = 1 << 17; //!< LLC size the primary models.
        uint32_t primaryWays = 64;   //!< Primary monitor associativity.
        uint32_t sets = 16;          //!< Sets in both monitors.
        uint32_t sampledWays = 16;   //!< Secondary monitor ways.
        uint32_t coverage = 4;       //!< Secondary models coverage*LLC.
        uint64_t seed = 0x2B0B;
    };

    explicit CombinedUMon(const Config& config);

    /** Observes one access: accessBlock() over a block of one. */
    void access(Addr addr) { accessBlock(Span<const Addr>(&addr, 1)); }

    /**
     * Observes addrs[0], addrs[stride], addrs[2*stride], ... — every
     * @p stride-th address of the block, in order — bit-exact with
     * feeding each to both monitors in turn. One pass: one H3Pair
     * lookup per address yields both monitors' hashes, and the
     * sampled addresses are compacted without branches into two fixed
     * stack buffers, a sub-block of 128 addresses at a time;
     * then each monitor's tag-array update runs over its buffer in
     * stream order. The monitors sample independent slices, so
     * running the primary's updates before the secondary's reaches
     * the state of interleaving them per address. A stride > 1 is the
     * facade's 1-in-N monitor decimation, read in place.
     *
     * Always inline, so a caller with a block of one (access(), the
     * serial facade) compiles to one pair lookup, two compares and a
     * call into a tag array only for a sampled address. Out of line,
     * the call and loop setup took BM_UmonAccess from 9 to 15 ns.
     */
    __attribute__((always_inline)) void
    accessBlock(Span<const Addr> addrs, size_t stride = 1)
    {
        // Sub-block size: big enough to amortize the two update loops,
        // small enough that the buffers (3 KB) stay under one stack
        // page. Each buffer slot is written before it is read: a
        // cursor never passes the sub-block index.
        constexpr size_t kSub = 128;
        Addr primary_addr[kSub];
        uint32_t primary_hash[kSub];
        Addr secondary_addr[kSub];
        uint32_t secondary_hash[kSub];

        const uint64_t primary_limit = primary_.sampleLimit();
        const uint64_t secondary_limit = secondaryLimit_;

        talus_assert(stride >= 1, "monitor stride must be >= 1");
        const Addr* src = addrs.data();
        const size_t n = addrs.size();
        size_t next = 0; // Index of the next observed address.
        while (next < n) {
            const size_t end = std::min(n, next + kSub * stride);
            // Branch-free compaction: every address is written to both
            // buffers, and each cursor advances only past sampled ones.
            size_t np = 0;
            size_t ns = 0;
            for (; next < end; next += stride) {
                const Addr a = src[next];
                const uint64_t h = hash_.hash(a);
                const uint32_t hp = static_cast<uint32_t>(h);
                const uint32_t hs = static_cast<uint32_t>(h >> 32);
                primary_addr[np] = a;
                primary_hash[np] = hp;
                np += hp < primary_limit;
                secondary_addr[ns] = a;
                secondary_hash[ns] = hs;
                ns += hs < secondary_limit;
            }
            for (size_t i = 0; i < np; ++i)
                primary_.accessSampled(primary_addr[i], primary_hash[i]);
            for (size_t i = 0; i < ns; ++i)
                secondary_.accessSampled(secondary_addr[i],
                                         secondary_hash[i]);
        }
    }

    /**
     * Merged miss-ratio curve: primary points up to the LLC size,
     * secondary points beyond it, clamped to be non-increasing so
     * sampling noise cannot fabricate negative-utility regions.
     */
    MissCurve curve() const;

    /** The primary (up to the LLC size) and secondary (coverage)
     *  tag arrays, read-only: per-monitor curves for inspection. */
    const UMonArray& primary() const { return primary_; }
    const UMonArray& secondary() const { return secondary_; }

    /** Accesses sampled by the primary monitor. */
    uint64_t sampledAccesses() const { return primary_.sampledAccesses(); }

    /**
     * The control-plane snapshot hook: an immutable copy of the
     * merged curve at an interval boundary, from which
     * TalusCache::snapshotControl() builds each ControlInput.
     * Read-only — the monitor keeps accumulating; the cache's own
     * interval counters (not the monitor's sampled volume) provide
     * the curve weights.
     */
    MissCurve snapshot() const;

    /** Inter-interval decay of both monitors. */
    void decay();

    /** Clears both monitors. */
    void reset();

    /** Largest size the merged curve covers. */
    uint64_t coveredLines() const;

  private:
    Config cfg_;
    // One pair of H3 functions samples and places both monitors: the
    // low half hashes for the primary, the high half (seed ^
    // 0x5A5A5A5A, an independent 1:16-rate slice) for the secondary.
    H3Pair hash_;
    UMonArray primary_;
    UMonArray secondary_;
    // The secondary's sampling limit, 0 without coverage: a zero
    // limit samples nothing, so the secondary is never fed.
    uint64_t secondaryLimit_;
};

} // namespace talus

#endif // TALUS_MONITOR_COMBINED_UMON_H
