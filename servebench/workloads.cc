/**
 * @file
 * Workload inputs, engines and the closed-loop pass (see workloads.h).
 */

#include "workloads.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>

#include "util/bits.h"
#include "util/log.h"
#include "workload/access_stream.h"
#include "workload/scenarios.h"
#include "workload/zipf_stream.h"

namespace servebench {

using talus::Addr;
using talus::MetricRegistry;
using talus::ShardedTalusCache;
using talus::TalusCache;

namespace {

/** Resident set size in bytes. */
double
rssBytes()
{
    long pages = 0, resident = 0;
    FILE* f = std::fopen("/proc/self/statm", "r");
    if (f != nullptr) {
        if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2)
            resident = 0;
        std::fclose(f);
    }
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE));
}

// ---- workload layer: inputs ---------------------------------------------

/** Draws @p n addresses from @p s, timing the generator. */
std::vector<Addr>
draw(talus::AccessStream& s, uint64_t n, double& nsPerAcc)
{
    std::vector<Addr> out(n);
    const int64_t t0 = nowNs();
    for (uint64_t i = 0; i < n; i += 4096)
        s.nextBlock(out.data() + i, std::min<uint64_t>(4096, n - i));
    nsPerAcc = static_cast<double>(nowNs() - t0) / static_cast<double>(n);
    return out;
}

/** Cuts in.addrs into @p batch-sized batches of partition 0; the
 *  first @p warm addresses are warm-up. */
void
cutFixed(Inputs& in, uint64_t warm, uint64_t batch)
{
    for (uint64_t i = 0; i < in.addrs.size(); i += batch) {
        const Batch b{in.addrs.data() + i, static_cast<uint32_t>(batch), 0};
        (i < warm ? in.warm : in.measured).push_back(b);
        if (i >= warm)
            in.measuredAccesses += b.n;
    }
}

uint64_t
workloadSeed(uint64_t seed, uint64_t salt)
{
    return talus::mix64(seed * 0x9E3779B97F4A7C15ull + salt);
}

// zipf_sharded: Zipf(0.9) over 65,536 keys, 4x the 16,384-line engine.
constexpr uint64_t kZipfBatch = 8192;
constexpr uint64_t kZipfWarm = 128 * kZipfBatch;
constexpr uint64_t kZipfMeasured = 1024 * kZipfBatch;

Inputs
zipfInputs(uint64_t seed)
{
    talus::ZipfStream s(65536, 0.9, 0, workloadSeed(seed, 1));
    Inputs in;
    in.addrs = draw(s, kZipfWarm + kZipfMeasured, in.genNsPerAcc);
    cutFixed(in, kZipfWarm, kZipfBatch);
    return in;
}

// scan_storm: makeScanStormStream defaults (4096-line Zipf base, then
// an 8192-line scan at 50% of traffic for 200k of every 600k
// accesses); control runs every 5 batches.
constexpr uint64_t kScanBatch = 4096;
constexpr uint64_t kScanWarm = 30 * kScanControlEvery;
constexpr uint64_t kScanMeasured = 440 * kScanControlEvery;

Inputs
scanInputs(uint64_t seed)
{
    talus::ScanStormSpec spec;
    spec.seed = workloadSeed(seed, 2);
    auto s = talus::makeScanStormStream(spec);
    Inputs in;
    in.addrs = draw(*s, kScanWarm + kScanMeasured, in.genNsPerAcc);
    cutFixed(in, kScanWarm, kScanBatch);
    return in;
}

// tenant_churn_open: 3 tenants of 8192 lines on a 16,384-line engine;
// 300k-access roster phases cycle every 900k accesses.
constexpr uint64_t kChurnBlock = 4096;
constexpr uint64_t kChurnWarm = 225 * kChurnBlock;
constexpr uint64_t kChurnMeasured = 440 * kChurnBlock;
constexpr uint32_t kTenants = 3;

Inputs
churnInputs(uint64_t seed)
{
    talus::TenantChurnSpec spec;
    spec.tenantLines = 8192;
    spec.seed = workloadSeed(seed, 3);
    auto s = talus::makeTenantChurnStream(spec);
    Inputs in;
    const std::vector<Addr> raw =
        draw(*s, kChurnWarm + kChurnMeasured, in.genNsPerAcc);
    // Each block splits, in stream order, into one batch per tenant
    // present in it; the tenant is the key's address space. Batches
    // point into addrs, which is sized once and never reallocates.
    in.addrs.reserve(raw.size());
    for (uint64_t b = 0; b < raw.size(); b += kChurnBlock) {
        for (uint32_t t = 0; t < kTenants; ++t) {
            const size_t start = in.addrs.size();
            for (uint64_t i = b; i < b + kChurnBlock; ++i)
                if ((raw[i] >> talus::kAddrSpaceShift) == t)
                    in.addrs.push_back(raw[i]);
            const auto n = static_cast<uint32_t>(in.addrs.size() - start);
            if (n == 0)
                continue;
            (b < kChurnWarm ? in.warm : in.measured)
                .push_back({in.addrs.data() + start, n, t});
            if (b >= kChurnWarm)
                in.measuredAccesses += n;
        }
    }
    return in;
}

// ---- engines ----------------------------------------------------------------

ShardedTalusCache::Config
shardedConfig(uint32_t threads, uint32_t parts)
{
    ShardedTalusCache::Config c;
    c.numShards = 4;
    c.threads = threads;
    c.shard.llcLines = 4096;
    c.shard.ways = 16;
    c.shard.numParts = parts;
    c.shard.allocatorName = "HillClimb";
    c.shard.reconfigInterval = 50'000;
    c.shard.monitorSamplePeriod = 8;
    return c;
}

} // namespace

Inputs
makeInputs(const std::string& workload, uint64_t seed)
{
    if (workload == "zipf_sharded")
        return zipfInputs(seed);
    if (workload == "scan_storm")
        return scanInputs(seed);
    talus_assert(workload == "tenant_churn_open", "unknown workload ",
                 workload);
    return churnInputs(seed);
}

uint64_t
ShardedEngine::counted() const
{
    uint64_t n = 0;
    for (uint32_t s = 0; s < e_.numShards(); ++s)
        for (uint32_t p = 0; p < e_.numParts(); ++p)
            n += e_.shardStats(s, p).accesses;
    return n;
}

uint64_t
ShardedEngine::misses() const
{
    uint64_t n = 0;
    for (uint32_t p = 0; p < e_.numParts(); ++p)
        n += e_.stats(p).misses;
    return n;
}

TalusCache::Config
ScanEngine::config(bool talusOn)
{
    TalusCache::Config c;
    c.llcLines = 8192;
    c.ways = 16;
    c.allocatorName = "HillClimb";
    c.monitorSamplePeriod = 1;
    c.talus = talusOn;
    return c;
}

std::unique_ptr<Engine>
makeEngine(const std::string& workload, MetricRegistry* reg, bool talusOn)
{
    if (workload == "scan_storm") {
        TalusCache::Config c = ScanEngine::config(talusOn);
        c.metricsEnabled = reg != nullptr;
        c.metrics = reg;
        return std::make_unique<ScanEngine>(c);
    }
    ShardedTalusCache::Config c = workload == "zipf_sharded"
                                      ? shardedConfig(2, 1)
                                      : shardedConfig(0, kTenants);
    c.shard.metricsEnabled = reg != nullptr;
    c.shard.metrics = reg;
    return std::make_unique<ShardedEngine>(c);
}

ClockFn
serviceClock(const std::string& workload)
{
    return workload == "zipf_sharded" ? &nowNs : &threadCpuNs;
}

uint64_t
warmUp(Engine& e, const Inputs& in)
{
    uint64_t hits = 0;
    for (const Batch& b : in.warm)
        hits += e.serve(b);
    return hits;
}

void
checkAccounting(Gate& gate, const Engine& e, const Inputs& in,
                uint64_t servedHits)
{
    const uint64_t submitted = in.addrs.size();
    gate.accounted(submitted, e.counted());
    gate.sameHits("returned hits vs stats misses", submitted - e.misses(),
                  servedHits);
}

double
missRatio(const Inputs& in, uint64_t hits)
{
    return 1.0 - static_cast<double>(hits) /
                     static_cast<double>(in.measuredAccesses);
}

// ---- sim layer: closed-loop driver -------------------------------------------

Pass
closedLoop(const std::string& workload, const Inputs& in, ClockFn clock,
           Gate& gate, bool talusOn)
{
    Pass p;
    malloc_trim(0);
    const double rss0 = rssBytes();
    const int64_t t0 = nowNs();
    std::unique_ptr<Engine> e = makeEngine(workload, nullptr, talusOn);
    const uint64_t warmHits = warmUp(*e, in);
    p.setupS = static_cast<double>(nowNs() - t0) * 1e-9;
    p.batchNs.reserve(in.measured.size());
    p.batchHits.reserve(in.measured.size());
    p.sojournNs.reserve(in.measured.size());
    const int64_t w0 = nowNs();
    int64_t prevEnd = clock();
    for (const Batch& b : in.measured) {
        const int64_t c0 = clock();
        p.batchHits.push_back(e->serve(b));
        const int64_t c1 = clock();
        p.hits += p.batchHits.back();
        p.batchNs.push_back(static_cast<double>(c1 - c0));
        p.sojournNs.push_back(static_cast<double>(c1 - prevEnd));
        p.engineNs += static_cast<double>(c1 - c0);
        prevEnd = c1;
    }
    p.windowNs = static_cast<double>(nowNs() - w0);
    p.rssGrowthB = rssBytes() - rss0;
    checkAccounting(gate, *e, in, warmHits + p.hits);
    return p;
}

} // namespace servebench
