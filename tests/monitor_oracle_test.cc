/**
 * @file
 * Differential oracle for the fused monitor pass.
 *
 * CombinedUMon::accessBlock samples both of its monitors with one
 * H3Pair lookup per address, compacts the sampled addresses without
 * branches, and updates each tag array with a vector probe and one
 * tag move. The specification is the plain form: a scalar
 * shift-array UMON per monitor, sampled by its own H3 function's
 * bit-serial definition (H3Hash::hashReference) against the
 * real-valued threshold. The two are driven in lockstep, and after
 * every block the per-monitor curves, the merged curve and the
 * sampled counts must match exactly.
 *
 * The sweep covers primary associativities {1, 16, 17, 64} (on and
 * off the 16-way vector groups), power-of-two and other set counts
 * including one set, coverage {1, 4, 16}, an unsampled geometry (rate
 * 1) and sampled ones, geometries the monitor must shrink, block
 * sizes {1, 3, 127, 128, 129, 255, 256, 257, 4096} (around one and
 * two compaction sub-blocks), strided (decimated) feeds, mid-stream
 * decay and reset, full-width addresses that set all 8 byte lanes,
 * interleaved address spaces, and the address ~0ull, which equals
 * the empty-slot marker.
 * H3Pair itself is pinned against two H3Hash functions.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "monitor/combined_umon.h"
#include "util/h3_hash.h"
#include "util/rng.h"
#include "workload/access_stream.h"

namespace talus {
namespace {

/** The scalar reference UMON: shift-array LRU stack, bit-serial H3
 *  sampling against the real-valued threshold, modulo set index. */
class RefUMon
{
  public:
    RefUMon(uint32_t ways, uint32_t sets, uint64_t modeled, uint64_t seed)
        : ways_(ways), sets_(sets), modeled_(modeled), hash_(32, seed)
    {
        // The monitor never tracks more lines than it models.
        if (modeled_ < static_cast<uint64_t>(ways_) * sets_) {
            if (modeled_ < ways_) {
                ways_ = static_cast<uint32_t>(modeled_);
                sets_ = 1;
            } else {
                sets_ = static_cast<uint32_t>(
                    std::max<uint64_t>(1, modeled_ / ways_));
            }
        }
        const uint64_t lines = static_cast<uint64_t>(ways_) * sets_;
        threshold_ = modeled_ <= lines ? 1.0
                                       : static_cast<double>(lines) /
                                             static_cast<double>(modeled_);
        tags_.assign(lines, ~0ull);
        hits_.assign(ways_, 0);
    }

    void access(Addr a)
    {
        const uint32_t h = hash_.hashReference(a);
        if (static_cast<double>(h) / 4294967296.0 >= threshold_)
            return;
        sampled_++;
        Addr* row = &tags_[static_cast<size_t>(h % sets_) * ways_];
        uint32_t pos = ways_;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (row[w] == a) {
                pos = w;
                break;
            }
        }
        if (pos < ways_)
            hits_[pos]++;
        for (uint32_t w = std::min(pos, ways_ - 1); w > 0; --w)
            row[w] = row[w - 1];
        row[0] = a;
    }

    MissCurve curve() const
    {
        const double gran = static_cast<double>(modeled_) / ways_;
        const double total = sampled_ > 0 ? static_cast<double>(sampled_)
                                          : 1.0;
        std::vector<CurvePoint> pts{{0.0, 1.0}};
        uint64_t hits = 0;
        for (uint32_t w = 0; w < ways_; ++w) {
            hits += hits_[w];
            pts.push_back({gran * (w + 1),
                           static_cast<double>(sampled_ - hits) / total});
        }
        return MissCurve(std::move(pts));
    }

    void decay()
    {
        for (auto& h : hits_)
            h /= 2;
        sampled_ /= 2;
    }

    void reset()
    {
        std::fill(tags_.begin(), tags_.end(), ~0ull);
        std::fill(hits_.begin(), hits_.end(), 0);
        sampled_ = 0;
    }

    uint64_t sampled() const { return sampled_; }

  private:
    uint32_t ways_;
    uint32_t sets_;
    uint64_t modeled_;
    H3Hash hash_;
    double threshold_ = 1.0;
    std::vector<Addr> tags_;
    std::vector<uint64_t> hits_;
    uint64_t sampled_ = 0;
};

/** Reference CombinedUMon: two RefUMons, merged as the real one. */
class RefCombined
{
  public:
    explicit RefCombined(const CombinedUMon::Config& c)
        : cfg_(c), primary_(c.primaryWays, c.sets, c.llcLines, c.seed),
          secondary_(c.sampledWays, c.sets, c.llcLines * c.coverage,
                     c.seed ^ 0x5A5A5A5A)
    {
    }

    void access(Addr a)
    {
        primary_.access(a);
        if (cfg_.coverage > 1)
            secondary_.access(a);
    }

    MissCurve curve() const
    {
        std::vector<CurvePoint> pts = primary_.curve().points();
        if (cfg_.coverage > 1) {
            const MissCurve coarse = secondary_.curve();
            for (const CurvePoint& p : coarse.points())
                if (p.size > static_cast<double>(cfg_.llcLines))
                    pts.push_back(p);
        }
        return MissCurve(std::move(pts)).monotoneClamped();
    }

    void decay()
    {
        primary_.decay();
        secondary_.decay();
    }

    void reset()
    {
        primary_.reset();
        secondary_.reset();
    }

    const RefUMon& primary() const { return primary_; }
    const RefUMon& secondary() const { return secondary_; }

  private:
    CombinedUMon::Config cfg_;
    RefUMon primary_;
    RefUMon secondary_;
};

void
expectSameCurve(const MissCurve& got, const MissCurve& want,
                const std::string& what)
{
    ASSERT_EQ(got.numPoints(), want.numPoints()) << what;
    for (size_t i = 0; i < got.numPoints(); ++i) {
        ASSERT_EQ(got.point(i).size, want.point(i).size)
            << what << " point " << i;
        ASSERT_EQ(got.point(i).misses, want.point(i).misses)
            << what << " point " << i;
    }
}

void
expectSameState(const CombinedUMon& mon, const RefCombined& ref,
                const std::string& what)
{
    ASSERT_EQ(mon.primary().sampledAccesses(), ref.primary().sampled())
        << what;
    ASSERT_EQ(mon.secondary().sampledAccesses(),
              ref.secondary().sampled())
        << what;
    expectSameCurve(mon.primary().curve(), ref.primary().curve(),
                    what + " primary");
    expectSameCurve(mon.secondary().curve(), ref.secondary().curve(),
                    what + " secondary");
    expectSameCurve(mon.curve(), ref.curve(), what + " merged");
}

/**
 * A reuse-heavy stream over a pool of @p pool addresses: a quarter of
 * the pool is full-width random (all 8 byte lanes set), the rest is
 * small offsets in three interleaved address spaces; the pool also
 * holds 0 and ~0ull (the empty-slot marker). Draws favour the front
 * of the pool so sets see hits at many stack depths.
 */
std::vector<Addr>
mixedStream(size_t n, size_t pool, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Addr> addrs(pool);
    for (size_t i = 0; i < pool; ++i) {
        if (i % 4 == 0) {
            addrs[i] = rng.next64();
        } else {
            const Addr space = 1 + rng.below(3);
            addrs[i] = (space << kAddrSpaceShift) | rng.below(1 << 20);
        }
    }
    addrs[0] = ~0ull;
    addrs[1] = 0;
    std::vector<Addr> out(n);
    for (Addr& a : out) {
        const uint64_t r = rng.below(pool);
        a = addrs[rng.below(2) == 0 ? r : r / 4];
    }
    return out;
}

struct Geometry
{
    uint32_t ways;
    uint32_t sets;
    uint32_t coverage;
    uint32_t rateDiv; //!< llcLines = ways * sets * rateDiv / 8.
};

std::string
describe(const Geometry& g, size_t block, size_t stride)
{
    return "ways=" + std::to_string(g.ways) +
           " sets=" + std::to_string(g.sets) +
           " coverage=" + std::to_string(g.coverage) +
           " rateDiv=" + std::to_string(g.rateDiv) +
           " block=" + std::to_string(block) +
           " stride=" + std::to_string(stride);
}

CombinedUMon::Config
configFor(const Geometry& g, uint64_t seed)
{
    CombinedUMon::Config c;
    c.primaryWays = g.ways;
    c.sampledWays = std::min<uint32_t>(g.ways, 16);
    c.sets = g.sets;
    c.coverage = g.coverage;
    c.llcLines = std::max<uint64_t>(
        1, static_cast<uint64_t>(g.ways) * g.sets * g.rateDiv / 8);
    c.seed = seed;
    return c;
}

/**
 * Feeds @p stream in blocks of @p block addresses, observing every
 * @p stride-th address of each block as the facade's decimated feed
 * does, and compares after every block; a run stops after 500
 * blocks, which bounds the compares for small blocks. Decays once a
 * third of the way in and resets two thirds of the way in.
 */
void
runLockstep(const Geometry& g, const std::vector<Addr>& stream,
            size_t block, size_t stride, uint64_t seed)
{
    const std::string what = describe(g, block, stride);
    const CombinedUMon::Config cfg = configFor(g, seed);
    CombinedUMon mon(cfg);
    RefCombined ref(cfg);
    const size_t n = std::min(stream.size(), block * 500);
    bool decayed = false;
    bool reset = false;
    for (size_t at = 0; at < n; at += block) {
        const size_t len = std::min(block, n - at);
        mon.accessBlock(Span<const Addr>(stream.data() + at, len), stride);
        for (size_t i = 0; i < len; i += stride)
            ref.access(stream[at + i]);
        expectSameState(mon, ref, what + " at=" + std::to_string(at));
        if (::testing::Test::HasFatalFailure())
            return;
        if (!decayed && at >= n / 3) {
            mon.decay();
            ref.decay();
            decayed = true;
        } else if (!reset && at >= 2 * n / 3) {
            mon.reset();
            ref.reset();
            reset = true;
        }
    }
}

TEST(MonitorOracle, H3PairMatchesTwoH3Hashes)
{
    Rng rng(0x9A1B);
    for (int trial = 0; trial < 16; ++trial) {
        const uint64_t lo_seed = rng.next64();
        const uint64_t hi_seed = trial == 0 ? lo_seed : rng.next64();
        const H3Pair pair(lo_seed, hi_seed);
        const H3Hash lo(32, lo_seed);
        const H3Hash hi(32, hi_seed);
        for (int i = 0; i < 2000; ++i) {
            // Full width, then one random byte lane only.
            const Addr a = i % 2 == 0
                               ? rng.next64()
                               : rng.below(256) << (8 * rng.below(8));
            const uint64_t h = pair.hash(a);
            ASSERT_EQ(static_cast<uint32_t>(h), lo.hashReference(a))
                << "seed=" << lo_seed << " addr=" << a;
            ASSERT_EQ(static_cast<uint32_t>(h >> 32), hi.hashReference(a))
                << "seed=" << hi_seed << " addr=" << a;
            ASSERT_EQ(static_cast<uint32_t>(h), lo.hash(a));
        }
        for (const Addr a : {0ull, ~0ull, 1ull << 63, 0xFFull << 56})
            ASSERT_EQ(pair.hash(a),
                      lo.hash(a) |
                          (static_cast<uint64_t>(hi.hash(a)) << 32));
    }
}

TEST(MonitorOracle, GeometrySweepMatchesScalarReference)
{
    const std::vector<Addr> stream = mixedStream(3000, 900, 0x0A11);
    uint64_t seed = 0x2B0B;
    for (const uint32_t ways : {1u, 16u, 17u, 64u}) {
        for (const uint32_t sets : {1u, 6u, 16u}) {
            for (const uint32_t coverage : {1u, 4u, 16u}) {
                // rateDiv 8: unsampled primary; 64: 1-in-8 sampled;
                // 2: smaller than the array, which must shrink.
                for (const uint32_t rate_div : {8u, 64u, 2u}) {
                    runLockstep(Geometry{ways, sets, coverage, rate_div},
                                stream, 255, 1, seed++);
                    if (HasFatalFailure())
                        return;
                }
            }
        }
    }
}

TEST(MonitorOracle, BlockSizesMatchScalarReference)
{
    // Blocks below, at and around one and two of the pass's
    // 128-address sub-blocks, and a whole facade chunk.
    const std::vector<Addr> stream = mixedStream(6000, 1500, 0xB10C);
    const Geometry geometries[] = {
        {64, 16, 4, 8}, {17, 6, 16, 64}, {16, 13, 4, 32}, {1, 1, 1, 8}};
    uint64_t seed = 0x5EED;
    for (const Geometry& g : geometries) {
        for (const size_t block :
             {1, 3, 127, 128, 129, 255, 256, 257, 4096}) {
            runLockstep(g, stream, block, 1, seed++);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(MonitorOracle, DecimatedFeedMatchesScalarReference)
{
    // The facade's 1-in-N monitor decimation reads the chunk in place
    // with a stride; odd block/stride pairs leave partial tails.
    const std::vector<Addr> stream = mixedStream(20000, 4000, 0xDEC1);
    const Geometry g{64, 16, 4, 32};
    for (const size_t stride : {2, 3, 8})
        for (const size_t block : {1, 7, 257, 4096})
            runLockstep(g, stream, block, stride, 0x1111 * stride);
}

TEST(MonitorOracle, ServingGeometryLongMixedStream)
{
    // The facade's default geometry (64+16 ways, 16 sets, 4x coverage)
    // over interleaved address spaces, long enough for the secondary's
    // 1:16-rate slice to fill and hit.
    const std::vector<Addr> stream = mixedStream(200000, 60000, 0x5CA7);
    for (const uint32_t sets : {16u, 13u})
        runLockstep(Geometry{64, sets, 4, 64}, stream, 4096, 1, 0x2B0B);
}

} // namespace
} // namespace talus
