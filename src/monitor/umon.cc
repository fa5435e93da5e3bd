#include "monitor/umon.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/bits.h"
#include "util/log.h"

namespace talus {

UMonArray::UMonArray(const Config& config) : cfg_(config)
{
    talus_assert(cfg_.ways >= 1, "UMON needs at least one way");
    talus_assert(cfg_.sets >= 1, "UMON needs at least one set");
    talus_assert(cfg_.modeledLines >= 1, "UMON must model a real cache");

    // An unsampled monitor models exactly ways*sets lines, so when the
    // modeled cache is smaller than the configured array the array
    // must shrink to match — otherwise the monitor would report the
    // behaviour of a larger cache than it claims to model.
    if (cfg_.modeledLines < static_cast<uint64_t>(cfg_.ways) * cfg_.sets) {
        if (cfg_.modeledLines < cfg_.ways) {
            cfg_.ways = static_cast<uint32_t>(cfg_.modeledLines);
            cfg_.sets = 1;
        } else {
            cfg_.sets = static_cast<uint32_t>(
                std::max<uint64_t>(1, cfg_.modeledLines / cfg_.ways));
        }
    }

    const uint64_t monitor_lines =
        static_cast<uint64_t>(cfg_.ways) * cfg_.sets;
    const double threshold =
        cfg_.modeledLines <= monitor_lines
            ? 1.0
            : static_cast<double>(monitor_lines) /
                  static_cast<double>(cfg_.modeledLines);
    // hash/2^32 < threshold  <=>  hash < threshold*2^32: scaling by a
    // power of two is exact, and the ceil keeps the integer compare
    // exact (see sampleLimit()).
    sampleLimit_ = static_cast<uint64_t>(
        std::ceil(threshold * static_cast<double>(1ull << 32)));
    setsArePow2_ = (cfg_.sets & (cfg_.sets - 1)) == 0;
    setMask_ = cfg_.sets - 1;
    tags_.assign(monitor_lines, kInvalidTag);
    wayHits_.assign(cfg_.ways + 1, 0);
}

namespace {

#if TALUS_AVX2
/** Bit k set iff row[w + k] == needle, k = 0..3. */
__attribute__((target("avx2"))) inline uint32_t
eqLanes(const Addr* row, uint32_t w, __m256i needle)
{
    const __m256i e = _mm256_cmpeq_epi64(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + w)),
        needle);
    return static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(e)));
}

/** findTag's AVX2 form: four 64-bit lanes per compare, 16 ways per
 *  early-out test. The lowest matching way wins, as in the scalar
 *  scan. */
__attribute__((target("avx2"))) uint32_t
findTagAvx2(const Addr* row, uint32_t ways, Addr addr)
{
    const __m256i needle = _mm256_set1_epi64x(static_cast<long long>(addr));
    uint32_t w = 0;
    for (; w + 16 <= ways; w += 16) {
        const uint32_t m = eqLanes(row, w, needle) |
                           (eqLanes(row, w + 4, needle) << 4) |
                           (eqLanes(row, w + 8, needle) << 8) |
                           (eqLanes(row, w + 12, needle) << 12);
        if (m != 0)
            return w + static_cast<uint32_t>(__builtin_ctz(m));
    }
    for (; w + 4 <= ways; w += 4) {
        const uint32_t m = eqLanes(row, w, needle);
        if (m != 0)
            return w + static_cast<uint32_t>(__builtin_ctz(m));
    }
    for (; w < ways; ++w) {
        if (row[w] == addr)
            return w;
    }
    return ways;
}
#endif

/** LRU stack position of @p addr in a set row (the lowest matching
 *  way), or @p ways when it is not resident. */
uint32_t
findTag(const Addr* row, uint32_t ways, Addr addr)
{
#if TALUS_AVX2
    if (kHaveAvx2)
        return findTagAvx2(row, ways, addr);
#endif
    for (uint32_t w = 0; w < ways; ++w) {
        if (row[w] == addr)
            return w;
    }
    return ways;
}

} // namespace

void
UMonArray::accessSampled(Addr addr, uint32_t h)
{
    sampled_++;

    const uint32_t ways = cfg_.ways;
    const uint32_t set = setsArePow2_ ? (h & setMask_) : (h % cfg_.sets);
    Addr* way0 = &tags_[static_cast<size_t>(set) * ways];

    // A hit at stack position pos would hit in any cache of > pos
    // monitor-way-equivalents; a miss (pos == ways) lands in the miss
    // slot. Either way the tags above the hit (or all but the LRU tag
    // on a miss) move down one position and addr becomes MRU.
    const uint32_t pos = findTag(way0, ways, addr);
    wayHits_[pos]++;
    const uint32_t moved = pos < ways ? pos : ways - 1;
    std::memmove(way0 + 1, way0, moved * sizeof(Addr));
    way0[0] = addr;
}

MissCurve
UMonArray::curve() const
{
    const double granularity =
        static_cast<double>(cfg_.modeledLines) / cfg_.ways;
    const double total =
        sampled_ > 0 ? static_cast<double>(sampled_) : 1.0;

    std::vector<CurvePoint> pts;
    pts.reserve(cfg_.ways + 1);
    uint64_t hits = 0;
    pts.push_back({0.0, 1.0});
    for (uint32_t w = 0; w < cfg_.ways; ++w) {
        hits += wayHits_[w];
        pts.push_back({granularity * (w + 1),
                       static_cast<double>(sampled_ - hits) / total});
    }
    return MissCurve(std::move(pts));
}

void
UMonArray::decay()
{
    for (auto& h : wayHits_)
        h /= 2;
    sampled_ /= 2;
}

void
UMonArray::reset()
{
    tags_.assign(tags_.size(), kInvalidTag);
    wayHits_.assign(wayHits_.size(), 0);
    sampled_ = 0;
}

} // namespace talus
