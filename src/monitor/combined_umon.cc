#include "monitor/combined_umon.h"

#include "util/log.h"

namespace talus {

namespace {

UMonArray::Config
primaryConfig(const CombinedUMon::Config& c)
{
    UMonArray::Config pc;
    pc.ways = c.primaryWays;
    pc.sets = c.sets;
    pc.modeledLines = c.llcLines;
    return pc;
}

UMonArray::Config
secondaryConfig(const CombinedUMon::Config& c)
{
    UMonArray::Config sc;
    sc.ways = c.sampledWays;
    sc.sets = c.sets;
    sc.modeledLines = c.llcLines * c.coverage;
    return sc;
}

} // namespace

CombinedUMon::CombinedUMon(const Config& config)
    : cfg_(config), hash_(config.seed, config.seed ^ 0x5A5A5A5A),
      primary_(primaryConfig(config)), secondary_(secondaryConfig(config)),
      secondaryLimit_(config.coverage > 1 ? secondary_.sampleLimit() : 0)
{
    talus_assert(cfg_.coverage >= 1, "coverage must be >= 1");
}

MissCurve
CombinedUMon::curve() const
{
    const MissCurve fine = primary_.curve();
    std::vector<CurvePoint> pts = fine.points();
    if (cfg_.coverage > 1) {
        const MissCurve coarse = secondary_.curve();
        for (const CurvePoint& p : coarse.points()) {
            if (p.size > static_cast<double>(cfg_.llcLines))
                pts.push_back(p);
        }
    }
    return MissCurve(std::move(pts)).monotoneClamped();
}

MissCurve
CombinedUMon::snapshot() const
{
    return curve();
}

void
CombinedUMon::decay()
{
    primary_.decay();
    secondary_.decay();
}

void
CombinedUMon::reset()
{
    primary_.reset();
    secondary_.reset();
}

uint64_t
CombinedUMon::coveredLines() const
{
    return cfg_.llcLines * (cfg_.coverage > 1 ? cfg_.coverage : 1);
}

} // namespace talus
