/**
 * @file
 * servebench: the repository's end-to-end benchmark.
 *
 *   servebench --workload NAME --seed N --seconds S --trace 0|1
 *              [--rates R1,R2,R3] [--spans PATH]
 *
 * Three workloads drive the public engine API (ShardedTalusCache,
 * TalusCache) with inputs generated up front from --seed:
 *
 *  - zipf_sharded: 4 shards on 2 pinned workers, Zipf(0.9) keys at 4x
 *    capacity, 8192-access batches. Scatter, ring/wake, gather and the
 *    kernel hit path do the work.
 *  - scan_storm: one TalusCache with exact monitoring on the paper's
 *    Fig. 1 scan cliff; the benchmark drives the control step. The
 *    kernel miss path, the monitor and control do the work; no shard
 *    layer runs.
 *  - tenant_churn_open: 4 inline shards, 3 tenants (partitions)
 *    arriving and departing, per-tenant batches. Reconfiguration runs
 *    inline on the request path.
 *
 * A run repeats passes until --seconds elapse. One pass builds a
 * fresh engine, warms it, and serves the measured batches closed loop
 * (back to back). On tenant_churn_open it then serves them open loop
 * on a fresh engine at each of the three fixed offered rates
 * (--rates, Macc/s, ascending; the middle one is the reported
 * operating point).
 *
 * zipf_sharded's engine calls span threads and are timed on the wall
 * clock; its figures are medians over passes, or over the pooled
 * batches for batch medians, so the stalls its workers hit count.
 * The two inline workloads run entirely on the calling thread and are
 * timed on its CPU clock. Every pass does identical work on identical
 * inputs, yet on a shared host the same pass runs up to 1.7x slower
 * when other guests load the machine, and that load drifts over
 * seconds to minutes. Their figures therefore come from each batch's
 * fastest service time over every time the run served it, closed or
 * open loop: throughput is the measured accesses over the sum of
 * those times, batch and closed-loop sojourn medians are taken over
 * them, and each fixed open-loop rate is replayed as a FIFO queue
 * over them. Per-pass and wall-clock figures stay in the info.
 *
 * Every pass serves identical inputs, so hit counts must repeat
 * exactly, batch by batch: a batch whose hits differ from the first
 * pass's is a failed operation. A lost access, a hit-count mismatch
 * or a Talus result worse than LRU makes the run incorrect and the
 * exit status 1.
 *
 * --trace 1 alternates untraced reference passes with traced passes
 * that wrap each public call into a layer in a span, decompose the
 * sharded engine inline, replay the same addresses through
 * stand-alone monitors and routers, and read the engine's metric
 * registry; it prints the per-layer ledger instead of the end-to-end
 * metrics and writes the last traced pass's spans to --spans.
 *
 * The last stdout line is one JSON object: workload, correct,
 * failures, attempted, failed, metrics {name: {value, unit}}, info
 * (diagnostic figures) and series (the per-pass values).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "monitor/combined_umon.h"
#include "obs/registry.h"
#include "workloads.h"

namespace servebench {
namespace {

using talus::Addr;
using talus::MetricRegistry;
using talus::MetricsSnapshot;
using talus::ShardedTalusCache;
using talus::TalusCache;

constexpr double kSloNs = 1e6; //!< p99 sojourn limit: 1 ms.

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::vector<double> rates; //!< Offered Macc/s, ascending.
    std::string spans;
};

/** Ordered metrics and free-form info of one run. */
struct Report
{
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;
    std::vector<std::pair<std::string, double>> info;
    /** Per-pass values behind the figures, kept in the result file. */
    std::vector<std::pair<std::string, std::vector<double>>> series;
    uint64_t attempted = 0;
    uint64_t failed = 0;

    void set(const std::string& name, double v, const std::string& unit)
    {
        metrics.push_back({name, {v, unit}});
    }
    void note(const std::string& k, double v) { info.push_back({k, v}); }
};

// ---- end-to-end run -----------------------------------------------------

/** Share of @p sojournNs within the latency limit. */
double
withinLimit(const std::vector<double>& sojournNs)
{
    size_t n = 0;
    for (double s : sojournNs)
        n += s <= kSloNs;
    return static_cast<double>(n) / static_cast<double>(sojournNs.size());
}

void
runEndToEnd(const Args& a, const Inputs& in, Gate& gate, Report& r)
{
    const ClockFn clock = serviceClock(a.workload);
    // The inline workloads report each batch's fastest service time
    // over every serving of it (see the file comment); zipf_sharded
    // reports what each pass saw, stalls included.
    const bool fastest = clock == &threadCpuNs;
    // tenant_churn_open is also served open loop at each fixed rate; a
    // closed loop's one operating point is its own throughput.
    const bool open = a.workload == "tenant_churn_open";
    const size_t points = open ? a.rates.size() : 1;
    const double acc = static_cast<double>(in.measuredAccesses);
    const int64_t deadline = nowNs() + static_cast<int64_t>(a.seconds * 1e9);
    std::vector<double> setups, thru, wallThru, goodput, batchP99;
    // Every timed serving of the measured batches, closed and open
    // loop: the engine state and inputs are the same each time.
    std::vector<std::vector<double>> batchNs, sojournNs, lag(points);
    std::vector<uint64_t> firstBatchHits;
    double rssB = 0.0;
    uint64_t firstHits = 0, served = 0, wrong = 0;
    uint32_t passes = 0;
    // A batch failed when its hits differ from the first pass's hits
    // for the same batch: every pass serves identical inputs.
    auto countWrong = [&](const std::vector<uint64_t>& hits) {
        served += hits.size();
        for (size_t i = 0; i < hits.size(); ++i)
            wrong += hits[i] != firstBatchHits[i];
    };
    do {
        const Pass p = closedLoop(a.workload, in, clock, gate);
        if (passes == 0) {
            firstHits = p.hits;
            firstBatchHits = p.batchHits;
            rssB = p.rssGrowthB;
        }
        gate.sameHits("hits repeat across passes", p.hits, firstHits);
        countWrong(p.batchHits);
        setups.push_back(p.setupS);
        thru.push_back(acc / p.engineNs * 1e3);
        wallThru.push_back(acc / p.windowNs * 1e3);
        goodput.push_back(thru.back() * withinLimit(p.sojournNs));
        batchP99.push_back(summarize(p.batchNs).tail);
        batchNs.push_back(p.batchNs);
        sojournNs.push_back(p.sojournNs);
        for (size_t k = 0; open && k < points; ++k) {
            const int64_t t0 = nowNs();
            std::unique_ptr<Engine> e = makeEngine(a.workload);
            const uint64_t warmHits = warmUp(*e, in);
            setups.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
            const OpenLoopResult o = runOpenLoop(
                in.measured, a.rates[k] * 1e6, kSloNs,
                [&](const Batch& b) { return e->serve(b); }, clock);
            checkAccounting(gate, *e, in, warmHits + o.hits);
            gate.sameHits("open-loop hits vs closed-loop hits", o.hits,
                          firstHits);
            countWrong(o.batchHits);
            batchNs.push_back(o.serviceNs);
            lag[k].insert(lag[k].end(), o.wallLagNs.begin(),
                          o.wallLagNs.end());
        }
        ++passes;
    } while (passes < 3 || nowNs() < deadline);
    r.attempted = served;
    r.failed = wrong;

    // Per-batch figures: each batch's fastest time over every serving
    // of it, or every pass's times pooled.
    std::vector<double> batch, sojourn;
    double throughput = median(thru), sloRate = 0.0;
    if (fastest) {
        batch = perBatchFastest(batchNs);
        sojourn = perBatchFastest(sojournNs);
        double engineNs = 0.0;
        for (double ns : batch)
            engineNs += ns;
        throughput = acc / engineNs * 1e3;
    } else {
        for (size_t p = 0; p < batchNs.size(); ++p) {
            batch.insert(batch.end(), batchNs[p].begin(), batchNs[p].end());
            sojourn.insert(sojourn.end(), sojournNs[p].begin(),
                           sojournNs[p].end());
        }
    }
    const Tail bt = summarize(batch);
    // Every setup builds the same engine and serves the same warm-up
    // batches, so, as with the batches, the fastest one is the figure
    // least moved by the host's load. Their median moved by 0.28
    // between two ten-seed sets of the same code.
    r.set("setup_s", *std::min_element(setups.begin(), setups.end()), "s");
    r.note("setup_median_s", median(setups));
    r.set("throughput_macc_s", throughput, "Macc/s");
    r.set("batch_p50_us", bt.p50 * 1e-3, "us");
    // Tails stay diagnostics: on a shared host the threaded workload's
    // p99 follows the hypervisor's pauses.
    r.note("batch_p99_us", median(batchP99) * 1e-3);
    r.note(fastest ? "fastest_batch_p99_us" : "pooled_batch_p99_us",
           bt.tail * 1e-3);
    r.note("tail_quantile", bt.q);
    r.note("passes", passes);
    r.note("setup_samples", static_cast<double>(setups.size()));
    r.note("batch_samples", static_cast<double>(bt.n));
    r.note("pass_throughput_macc_s", median(thru));
    r.note("wall_throughput_macc_s", median(wallThru));
    r.note("cpu_clock", fastest);
    r.series = {{"setup_s", setups},
                {"pass_throughput_macc_s", thru},
                {"wall_throughput_macc_s", wallThru},
                {"batch_p99_ns", batchP99}};

    if (!open) {
        // A closed loop offers no rate: the SLO rate is the rate of
        // accesses served in batches within the limit.
        sloRate = fastest ? throughput * withinLimit(sojourn)
                          : median(goodput);
        const Tail st = summarize(sojourn);
        r.set("sojourn_p50_us", st.p50 * 1e-3, "us");
        r.note("closed_sojourn_p99_us", st.tail * 1e-3);
        r.note("closed_over_limit_frac", 1.0 - withinLimit(sojourn));
    }
    // Each fixed rate is replayed through a FIFO queue over each
    // batch's fastest service time. The SLO rate is the highest rate
    // whose p99 sojourn meets the limit without a growing backlog.
    for (size_t k = 0; open && k < points; ++k) {
        const Queue q =
            fifoQueue(in.measured, a.rates[k] * 1e6, batch, kSloNs);
        const Tail st = summarize(q.sojournNs);
        const bool meets = st.tail <= kSloNs && !q.backlogGrew;
        if (meets)
            sloRate = a.rates[k];
        if (k == points / 2)
            r.set("sojourn_p50_us", st.p50 * 1e-3, "us");
        const std::string key = "rate" + std::to_string(k);
        r.note(key + "_macc_s", a.rates[k]);
        r.note(key + "_sojourn_p50_us", st.p50 * 1e-3);
        r.note(key + "_sojourn_p99_us", st.tail * 1e-3);
        r.note(key + "_over_limit_frac", 1.0 - withinLimit(q.sojournNs));
        r.note(key + "_backlog_grew", q.backlogGrew);
        r.note(key + "_meets_slo", meets);
        r.note(key + "_wall_lag_p99_us", summarize(lag[k]).tail * 1e-3);
    }
    r.set("slo_rate_macc_s", sloRate, "Macc/s");
    r.set("miss_ratio", missRatio(in, firstHits), "ratio");
    r.set("engine_rss_mb", rssB / (1 << 20), "MB");

    if (a.workload == "scan_storm") {
        // The paper's guarantee on the same inputs; LRU runs untimed.
        const Pass lru = closedLoop(a.workload, in, clock, gate, false);
        gate.notWorseThanLru(missRatio(in, firstHits),
                             missRatio(in, lru.hits));
        r.note("lru_miss_ratio", missRatio(in, lru.hits));
    }
}

// ---- traced run: the per-layer ledger -------------------------------------

/** Span names, in SpanLog index order. */
enum SpanName : uint32_t
{
    kEngine,   //!< ShardedTalusCache::accessBatch (engine A).
    kApiBatch, //!< TalusCache::accessBatch on scan_storm.
    kPrepare,  //!< TalusCache::prepareReconfigure.
    kApply,    //!< TalusCache::applyReconfigure.
    kInline,   //!< One batch of the inline decomposition (engine B).
    kScatter,  //!< ShardRouter::scatterFlat, child of kInline.
    kDrain,    //!< shard(s).accessBatch(sub-stream), child of kInline.
    kMonitor,  //!< Stand-alone CombinedUMon::accessBlock replay.
    kRoute,    //!< Stand-alone ShadowRouter::toAlpha replay.
    // The replays run after the facade call they stand for, and are
    // recorded as its children: the call's self time is the kernel.
};

const std::vector<std::string> kSpanNames = {
    "shard.engine",  "api.batch",    "control.prepare",
    "control.apply", "shard.inline", "shard.scatter",
    "shard.drain",   "monitor.replay", "core.route",
};

/** Stand-alone monitors and decimation phases mirroring one cache's
 *  per-partition CombinedUMons (same geometry and seeds). */
struct MonitorReplay
{
    std::vector<talus::CombinedUMon> mons;
    std::vector<uint32_t> phase;
    uint32_t period = 1;
    std::vector<Addr> scratch;

    explicit MonitorReplay(const TalusCache::Config& c)
        : phase(c.numParts, 0), period(c.monitorSamplePeriod)
    {
        for (uint32_t p = 0; p < c.numParts; ++p) {
            talus::CombinedUMon::Config mc;
            mc.llcLines = c.llcLines;
            mc.coverage = c.umonCoverage;
            mc.seed = c.seed ^ (0x1111ull * (p + 1));
            mons.emplace_back(mc);
        }
    }

    /** Feeds @p n addresses of partition @p part, timing only the
     *  monitor call on the sampled addresses as a child of @p parent. */
    void feed(SpanLog& log, uint32_t batch, int32_t parent, uint32_t part,
              const Addr* a, uint64_t n)
    {
        scratch.clear();
        uint32_t ph = phase[part];
        for (uint64_t i = 0; i < n; ++i) {
            if (ph == 0)
                scratch.push_back(a[i]);
            ph = ph + 1 == period ? 0 : ph + 1;
        }
        phase[part] = ph;
        const int32_t id = log.begin(kMonitor, batch, parent);
        mons[part].accessBlock(talus::Span<const Addr>(scratch));
        log.end(id);
    }
};

/** Consumes replay results so the replay loops cannot be elided. */
volatile uint64_t g_sink = 0;

/** Times @p rt's toAlpha over @p n addresses as a child of @p parent,
 *  as the facade does (skipped when every address routes to alpha);
 *  returns the number routed to alpha. */
uint64_t
routeReplay(SpanLog& log, uint32_t batch, int32_t parent,
            const talus::ShadowRouter& rt, const Addr* a, uint64_t n)
{
    if (rt.alwaysAlpha())
        return n;
    const int32_t id = log.begin(kRoute, batch, parent);
    uint64_t alpha = 0;
    for (uint64_t i = 0; i < n; ++i)
        alpha += rt.toAlpha(a[i]);
    log.end(id);
    return alpha;
}

/** Adds @p h's buckets into @p into. */
void
mergeHistogram(talus::HistogramData& into, const talus::HistogramData& h)
{
    std::map<uint32_t, uint64_t> b(into.buckets.begin(), into.buckets.end());
    for (const auto& [idx, c] : h.buckets)
        b[idx] += c;
    into.buckets.assign(b.begin(), b.end());
    into.count += h.count;
    into.sum += h.sum;
    into.max = std::max(into.max, h.max);
    into.scale = h.scale;
}

/** Sums over every traced pass. */
struct Ledger
{
    uint32_t passes = 0;
    uint64_t accesses = 0;
    uint64_t batches = 0;
    uint64_t hits = 0;
    double criticalDrain = 0.0; //!< Per batch, the busiest worker's drains.
    double kernel = 0.0; //!< Self time of the facade calls.
    double controlSteps = 0.0;
    double parks = 0.0, wakes = 0.0, ringHwm = 0.0;
    double samples = 0.0, evictions = 0.0, rho = 0.0;
    double applyAge = 0.0, reconfigs = 0.0, imbalance = 0.0;
    std::vector<double> engineBatchNs; //!< Engine time of each batch.
    std::vector<double> spanTotal = std::vector<double>(kSpanNames.size());
    talus::HistogramData compute; //!< Control compute seconds.

    /** Registry figures of one traced window @p d. */
    void addRegistry(const MetricsSnapshot& d)
    {
        parks += static_cast<double>(d.counterTotal("talus_worker_parks_total"));
        wakes += static_cast<double>(d.counterTotal("talus_worker_wakes_total"));
        samples +=
            static_cast<double>(d.counterTotal("talus_monitor_samples_total"));
        evictions +=
            static_cast<double>(d.counterTotal("talus_cache_evictions_total"));
        double rhoSum = 0.0, ageSum = 0.0;
        int rhoN = 0, ageN = 0;
        for (const auto& m : d.metrics) {
            if (m.name == "talus_worker_ring_depth_hwm")
                ringHwm = std::max(ringHwm, m.gauge);
            else if (m.name == "talus_cache_rho")
                rhoSum += m.gauge, ++rhoN;
            else if (m.name == "talus_control_apply_age_accesses")
                ageSum += m.gauge, ++ageN;
            else if (m.name == "talus_control_compute_seconds")
                mergeHistogram(compute, m.histogram);
        }
        rho += rhoN ? rhoSum / rhoN : 0.0;
        applyAge += ageN ? ageSum / ageN : 0.0;
    }

    void addSpans(const SpanLog& log, SpanName facade)
    {
        for (uint32_t n = 0; n < kSpanNames.size(); ++n)
            spanTotal[n] += log.total(n);
        kernel += log.selfTotal(facade);
    }

    double total(SpanName n) const { return spanTotal[n]; }
};

/** One traced pass of a sharded workload: engine A (the configured
 *  engine, metrics on) serves each batch under a shard.engine span;
 *  engine B, an inline replica, serves the same batch decomposed into
 *  its public calls (scatter, then one TalusCache::accessBatch per
 *  shard), and B's monitors and routers are replayed stand-alone. */
void
tracedShardedPass(const std::string& workload, const Inputs& in,
                  SpanLog& log, Ledger& L, Gate& gate)
{
    MetricRegistry reg;
    std::unique_ptr<Engine> ea = makeEngine(workload, &reg);
    ShardedTalusCache& a = static_cast<ShardedEngine&>(*ea).cache();
    ShardedTalusCache::Config bc = a.config();
    bc.threads = 0;
    bc.shard.metricsEnabled = false;
    bc.shard.metrics = nullptr;
    ShardedTalusCache b(bc);
    const uint32_t shards = a.numShards();
    const uint32_t workers = std::max<uint32_t>(1, a.threads());
    std::vector<MonitorReplay> mons;
    for (uint32_t s = 0; s < shards; ++s)
        mons.emplace_back(ShardedTalusCache::shardConfig(bc, s));
    talus::ScatterPlan plan;
    std::vector<double> perWorker(workers);
    std::vector<int32_t> drainSpan(shards);
    uint64_t sink = 0;

    auto inlineBatch = [&](const Batch& bt, uint32_t id, bool traced) {
        const int32_t root = traced ? log.begin(kInline, id) : -1;
        const int32_t sp = traced ? log.begin(kScatter, id, root) : -1;
        b.router().scatterFlat(talus::Span<const Addr>(bt.data, bt.n), plan);
        if (traced)
            log.end(sp);
        std::fill(perWorker.begin(), perWorker.end(), 0.0);
        uint64_t hits = 0;
        for (uint32_t s = 0; s < shards; ++s) {
            if (plan.count(s) == 0)
                continue;
            const int64_t t0 = nowNs();
            hits += b.shard(s).accessBatch(plan.shardSpan(s), bt.part);
            const int64_t t1 = nowNs();
            if (traced) {
                drainSpan[s] = log.add(kDrain, id, t0, t1, root);
                perWorker[s % workers] += static_cast<double>(t1 - t0);
            }
        }
        if (!traced)
            return hits;
        log.end(root);
        L.criticalDrain +=
            *std::max_element(perWorker.begin(), perWorker.end());
        for (uint32_t s = 0; s < shards; ++s) {
            if (plan.count(s) == 0)
                continue;
            const Addr* d = plan.shardData(s);
            mons[s].feed(log, id, drainSpan[s], bt.part, d, plan.count(s));
            sink += routeReplay(log, id, drainSpan[s],
                                b.shard(s).controller()->router(bt.part), d,
                                plan.count(s));
        }
        return hits;
    };

    uint64_t warmA = 0, warmB = 0;
    for (const Batch& bt : in.warm) {
        warmA += ea->serve(bt);
        warmB += inlineBatch(bt, 0, false);
    }
    gate.sameHits("warm-up hits vs inline decomposition", warmA, warmB);
    // Engine A serves the window back to back, as in the untraced run;
    // the decomposition runs after it, so A's workers see the same
    // arrival pattern as untraced.
    const uint64_t reconf0 = a.reconfigurations();
    const MetricsSnapshot s0 = reg.snapshot();
    std::vector<uint64_t> batchHits;
    batchHits.reserve(in.measured.size());
    uint64_t hitsA = 0, mismatches = 0;
    for (uint32_t id = 0; id < in.measured.size(); ++id) {
        const int32_t sp = log.begin(kEngine, id);
        batchHits.push_back(ea->serve(in.measured[id]));
        log.end(sp);
        const auto& s = log.spans()[static_cast<size_t>(sp)];
        L.engineBatchNs.push_back(static_cast<double>(s.end - s.start));
        hitsA += batchHits.back();
    }
    L.addRegistry(talus::metricsDelta(s0, reg.snapshot()));
    for (uint32_t id = 0; id < in.measured.size(); ++id)
        mismatches += inlineBatch(in.measured[id], id, true) != batchHits[id];
    gate.expect(mismatches == 0, std::to_string(mismatches) +
                                     " batches' hits differ between the "
                                     "engine and its inline decomposition");
    checkAccounting(gate, *ea, in, warmA + hitsA);

    L.accesses += in.measuredAccesses;
    L.batches += in.measured.size();
    L.hits += hitsA;
    L.reconfigs += static_cast<double>(a.reconfigurations() - reconf0);
    double mx = 0.0, sum = 0.0;
    for (uint32_t s = 0; s < shards; ++s) {
        double n = 0.0;
        for (uint32_t p = 0; p < a.numParts(); ++p)
            n += static_cast<double>(a.shardStats(s, p).accesses);
        mx = std::max(mx, n);
        sum += n;
    }
    L.imbalance += mx / (sum / shards);
    g_sink = g_sink + sink;
}

/** One traced pass of scan_storm: each public call on the engine
 *  gets its own span; the monitor and router are replayed
 *  stand-alone on the same addresses. */
void
tracedScanPass(const Inputs& in, SpanLog& log, Ledger& L, Gate& gate)
{
    MetricRegistry reg;
    std::unique_ptr<Engine> ep = makeEngine("scan_storm", &reg);
    auto& eng = static_cast<ScanEngine&>(*ep);
    TalusCache& cache = eng.cache();
    MonitorReplay mon(cache.config());
    const uint64_t warmHits = warmUp(eng, in);
    const uint64_t reconf0 = cache.reconfigurations();
    const MetricsSnapshot s0 = reg.snapshot();
    uint64_t hits = 0, sink = 0;
    uint32_t id = 0;
    for (const Batch& b : in.measured) {
        const int64_t t0 = nowNs();
        hits += cache.accessBatch(talus::Span<const Addr>(b.data, b.n));
        const int32_t api = log.add(kApiBatch, id, t0, nowNs());
        if (eng.controlDue(b.n)) {
            int32_t sp = log.begin(kPrepare, id);
            cache.prepareReconfigure();
            log.end(sp);
            sp = log.begin(kApply, id);
            cache.applyReconfigure();
            log.end(sp);
            L.controlSteps += 1;
        }
        L.engineBatchNs.push_back(static_cast<double>(nowNs() - t0));
        mon.feed(log, id, api, 0, b.data, b.n);
        sink += routeReplay(log, id, api, cache.controller()->router(0),
                            b.data, b.n);
        ++id;
    }
    L.addRegistry(talus::metricsDelta(s0, reg.snapshot()));
    checkAccounting(gate, eng, in, warmHits + hits);
    L.accesses += in.measuredAccesses;
    L.batches += in.measured.size();
    L.hits += hits;
    L.reconfigs += static_cast<double>(cache.reconfigurations() - reconf0);
    g_sink = g_sink + sink;
}

void
runTraced(const Args& a, const Inputs& in, Gate& gate, Report& r)
{
    const bool scan = a.workload == "scan_storm";
    const int64_t deadline = nowNs() + static_cast<int64_t>(a.seconds * 1e9);
    const double acc = static_cast<double>(in.measuredAccesses);
    // Each traced pass is compared with the untraced pass just before
    // it, so the host's drift between passes cancels.
    std::vector<double> refEngine, refDriver, refBatchP99, overhead, residual;
    Ledger L;
    std::unique_ptr<SpanLog> last;
    do {
        // Untraced reference on the wall clock, like the spans: the
        // end-to-end figure the layers must add up to.
        const Pass p = closedLoop(a.workload, in, &nowNs, gate);
        const double ref = p.engineNs / acc;
        refEngine.push_back(ref);
        refDriver.push_back((p.windowNs - p.engineNs) / acc);
        refBatchP99.push_back(summarize(p.batchNs).tail);

        auto log = std::make_unique<SpanLog>(kSpanNames);
        const double critical0 = L.criticalDrain;
        if (scan)
            tracedScanPass(in, *log, L, gate);
        else
            tracedShardedPass(a.workload, in, *log, L, gate);
        L.addSpans(*log, scan ? kApiBatch : kDrain);
        const double control = log->total(kPrepare) + log->total(kApply);
        const double engine =
            (log->total(kEngine) + log->total(kApiBatch) + control) / acc;
        // Layer self times that should add up to the engine time: the
        // scatter plus the critical drain behind the shard layer or,
        // without shards, the facade call (monitor + route + kernel)
        // plus the control step.
        const double layers =
            (scan ? log->total(kApiBatch) + control
                  : log->total(kScatter) + L.criticalDrain - critical0) /
            acc;
        overhead.push_back(engine / ref - 1.0);
        residual.push_back((ref - layers) / ref);
        last = std::move(log);
        ++L.passes;
    } while (L.passes < 2 || nowNs() < deadline);

    const double perAcc = 1.0 / static_cast<double>(L.accesses);
    const double passes = L.passes;
    const double batches = static_cast<double>(L.batches);
    const double engineNs = L.total(kEngine) + L.total(kApiBatch) +
                            L.total(kPrepare) + L.total(kApply);
    const double engine = engineNs * perAcc;
    // The facade batch call: the drains of the inline decomposition on
    // sharded workloads, the engine's own batch call on scan_storm. Its
    // self time, less the monitor and router replays, is the kernel.
    const double api = (scan ? L.total(kApiBatch) : L.total(kDrain)) * perAcc;
    const double scatter = L.total(kScatter) * perAcc;
    const double critical = L.criticalDrain * perAcc;
    const double med = median(L.engineBatchNs);
    double stalls = 0.0;
    for (double ns : L.engineBatchNs)
        stalls += ns > 4 * med;
    const double steps = std::max(1.0, L.controlSteps);

    r.set("workload.gen_ns_per_acc", in.genNsPerAcc, "ns/acc");
    r.set("sim.driver_ns_per_acc", median(refDriver), "ns/acc");
    r.set("sim.batch_p99_us", median(refBatchP99) * 1e-3, "us");
    r.set("shard.engine_ns_per_acc", scan ? 0.0 : engine, "ns/acc");
    r.set("shard.scatter_ns_per_acc", scatter, "ns/acc");
    r.set("shard.drain_ns_per_acc", scan ? 0.0 : api, "ns/acc");
    r.set("shard.critical_drain_ns_per_acc", critical, "ns/acc");
    r.set("shard.dispatch_ns_per_acc", scan ? 0.0 : engine - scatter - critical,
          "ns/acc");
    r.set("shard.parks_per_batch", L.parks / batches, "1/batch");
    r.set("shard.wakes_per_batch", L.wakes / batches, "1/batch");
    r.set("shard.ring_depth_hwm", L.ringHwm, "tasks");
    r.set("shard.stall_batch_frac", stalls / batches, "fraction");
    r.set("shard.imbalance", scan ? 0.0 : L.imbalance / passes, "ratio");
    r.set("api.batch_ns_per_acc", api, "ns/acc");
    r.set("monitor.ns_per_acc", L.total(kMonitor) * perAcc, "ns/acc");
    r.set("monitor.samples_per_acc", L.samples * perAcc, "1/acc");
    r.set("core.route_ns_per_acc", L.total(kRoute) * perAcc, "ns/acc");
    r.set("core.rho", L.rho / passes, "ratio");
    r.set("partition.kernel_ns_per_acc", L.kernel * perAcc, "ns/acc");
    r.set("partition.hit_ratio", static_cast<double>(L.hits) * perAcc,
          "ratio");
    r.set("partition.evictions_per_acc", L.evictions * perAcc, "1/acc");
    r.set("control.prepare_us", L.total(kPrepare) / steps * 1e-3, "us");
    r.set("control.apply_us", L.total(kApply) / steps * 1e-3, "us");
    r.set("control.reconfigs", L.reconfigs / passes, "count");
    r.set("control.compute_us_p50", L.compute.quantile(0.5) * 1e6, "us");
    r.set("control.compute_us_p99",
          L.compute.quantile(supportedQuantile(L.compute.count, 0.99)) * 1e6,
          "us");
    r.set("control.apply_age_accesses", L.applyAge / passes, "accesses");
    r.set("control.time_share",
          L.compute.scale * static_cast<double>(L.compute.sum) * 1e9 /
              engineNs,
          "fraction");
    r.set("obs.trace_overhead_frac", median(overhead), "fraction");
    r.set("ledger.residual_frac", median(residual), "fraction");
    r.attempted = L.batches;
    r.note("passes", passes);
    r.note("untraced_engine_ns_per_acc", median(refEngine));
    r.note("traced_engine_ns_per_acc", engine);
    r.note("control_compute_samples", static_cast<double>(L.compute.count));
    r.note("spans_last_pass", static_cast<double>(last->spans().size()));
    r.series = {{"untraced_engine_ns_per_acc", refEngine},
                {"trace_overhead_frac", overhead},
                {"ledger_residual_frac", residual}};
    if (!a.spans.empty())
        gate.expect(last->write(a.spans), "cannot write spans to " + a.spans);
}

std::string
jsonEscape(const std::string& s)
{
    std::string o;
    for (char c : s) {
        if (c == '"' || c == '\\')
            o += '\\';
        o += c;
    }
    return o;
}

void
printResult(const Args& a, const Gate& gate, const Report& r)
{
    std::printf("{\"workload\": \"%s\", \"correct\": %s, \"failures\": [",
                a.workload.c_str(), gate.ok() ? "true" : "false");
    for (size_t i = 0; i < gate.failures().size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "",
                    jsonEscape(gate.failures()[i]).c_str());
    std::printf("], \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    for (size_t i = 0; i < r.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i ? ", " : "", r.metrics[i].first.c_str(),
                    r.metrics[i].second.first,
                    r.metrics[i].second.second.c_str());
    std::printf("}, \"info\": {");
    for (size_t i = 0; i < r.info.size(); ++i)
        std::printf("%s\"%s\": %.10g", i ? ", " : "",
                    r.info[i].first.c_str(), r.info[i].second);
    std::printf("}, \"series\": {");
    for (size_t i = 0; i < r.series.size(); ++i) {
        std::printf("%s\"%s\": [", i ? ", " : "", r.series[i].first.c_str());
        const std::vector<double>& v = r.series[i].second;
        for (size_t j = 0; j < v.size(); ++j)
            std::printf("%s%.6g", j ? ", " : "", v[j]);
        std::printf("]");
    }
    std::printf("}}\n");
}

/** Parses "R1,R2,R3"; false unless three ascending positive rates. */
bool
parseRates(const std::string& v, std::vector<double>& out)
{
    const char* p = v.c_str();
    while (*p != '\0') {
        char* end = nullptr;
        const double x = std::strtod(p, &end);
        if (end == p || !(x > 0) || (*end != ',' && *end != '\0'))
            return false;
        out.push_back(x);
        p = *end == ',' ? end + 1 : end;
    }
    return out.size() == 3 && std::is_sorted(out.begin(), out.end());
}

} // namespace
} // namespace servebench

int
main(int argc, char** argv)
{
    using namespace servebench;
    Args a;
    bool ratesOk = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string k = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "servebench: %s needs a value\n", k.c_str());
            return 2;
        }
        const std::string v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            a.trace = v == "1";
        else if (k == "--spans")
            a.spans = v;
        else if (k == "--rates")
            ratesOk = parseRates(v, a.rates);
        else {
            std::fprintf(stderr, "servebench: unknown flag %s\n", k.c_str());
            return 2;
        }
    }
    if (a.workload == "tenant_churn_open" && !a.trace && !ratesOk) {
        std::fprintf(stderr, "servebench: --rates needs three ascending "
                             "positive Macc/s values\n");
        return 2;
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), a.workload) ==
        kWorkloads.end()) {
        std::fprintf(stderr, "servebench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    const Inputs in = makeInputs(a.workload, a.seed);

    Gate gate;
    Report r;
    if (a.trace)
        runTraced(a, in, gate, r);
    else
        runEndToEnd(a, in, gate, r);
    for (const auto& [name, m] : r.metrics)
        gate.expect(std::isfinite(m.first), name + " is not finite");
    printResult(a, gate, r);
    return gate.ok() ? 0 : 1;
}
