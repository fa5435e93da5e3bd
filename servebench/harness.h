/**
 * @file
 * The benchmark's own machinery, kept apart from the workloads so its
 * tests can drive it with fake engines: tail-percentile selection,
 * per-batch fastest times, the FIFO queue and open-loop driver, the
 * in-memory span log, and the correctness gate.
 */

#ifndef SERVEBENCH_HARNESS_H
#define SERVEBENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <string>
#include <vector>

#include "util/types.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary fixed origin (steady clock). */
inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

/**
 * CPU time the calling thread has run, in ns. Unlike the wall clock
 * it stops while the hypervisor has taken the vCPU away, so an engine
 * call that runs entirely on the calling thread is timed without the
 * host's scheduling stalls.
 */
inline int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

/** Median of @p v (mean of the middle pair when even); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Nearest-rank quantile of an ascending @p sorted sample. */
inline double
nearestRank(const std::vector<double>& sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

/**
 * The highest quantile, at most @p want, from the ladder
 * 0.999/0.99/0.95/0.9/0.75/0.5 that leaves at least ten of @p n
 * samples strictly beyond its nearest rank. A tail figure from a
 * sample too small to support it would rest on one or two outliers.
 * Returns 0 when even the median is unsupported (n < 20).
 */
inline double
supportedQuantile(size_t n, double want)
{
    static constexpr double kLadder[] = {0.999, 0.99, 0.95,
                                         0.9,   0.75, 0.5};
    for (double q : kLadder) {
        if (q > want)
            continue;
        const size_t rank = static_cast<size_t>(
            std::ceil(q * static_cast<double>(n)));
        if (n >= rank + 10)
            return q;
    }
    return 0.0;
}

/**
 * Each batch's fastest time across passes: element i is the least of
 * batch i's times over the passes in @p perPass, which all time the
 * same batches in the same order. Every pass does identical work on
 * identical inputs, so what varies between a batch's times is the
 * host, and interference only ever adds time.
 */
inline std::vector<double>
perBatchFastest(const std::vector<std::vector<double>>& perPass)
{
    std::vector<double> out;
    if (perPass.empty())
        return out;
    out = perPass.front();
    for (const std::vector<double>& pass : perPass)
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = std::min(out[i], pass[i]);
    return out;
}

/** A latency sample summarised as median and supported tail. */
struct Tail
{
    size_t n = 0;       //!< Samples.
    double p50 = 0.0;   //!< Median.
    double q = 0.0;     //!< Tail quantile actually reported.
    double tail = 0.0;  //!< Value at q.
};

/** Median and the highest supported quantile up to p99. */
inline Tail
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Tail t;
    t.n = samples.size();
    t.p50 = nearestRank(samples, 0.5);
    t.q = supportedQuantile(samples.size(), 0.99);
    t.tail = t.q > 0 ? nearestRank(samples, t.q) : t.p50;
    return t;
}

/** One request the drivers submit: a run of addresses for one
 *  logical partition. */
struct Batch
{
    const talus::Addr* data = nullptr;
    uint32_t n = 0;
    uint32_t part = 0;
};

/** A FIFO server's view of one sequence of batches. */
struct Queue
{
    std::vector<double> sojournNs; //!< Completion - scheduled arrival.
    bool backlogGrew = false;
};

/**
 * One FIFO server fed on a fixed schedule: batch i is due at
 * (accesses before i) / @p accPerSec, starts at max(due_i,
 * finish_{i-1}) and takes @p serviceNs[i]. Sojourn is measured from
 * the *scheduled* arrival, so a stall in one batch shows up in every
 * batch queued behind it. The backlog grew when, over the last tenth
 * of the batches, batches started on average more than @p limitNs
 * after they were due.
 */
inline Queue
fifoQueue(const std::vector<Batch>& batches, double accPerSec,
          const std::vector<double>& serviceNs, double limitNs)
{
    Queue q;
    q.sojournNs.reserve(batches.size());
    const double nsPerAcc = 1e9 / accPerSec;
    const size_t tailFrom = batches.size() - batches.size() / 10;
    uint64_t accesses = 0;
    double free = 0.0; // when the server finishes its queue
    double tailLag = 0.0;
    for (size_t i = 0; i < batches.size(); ++i) {
        const double due = static_cast<double>(accesses) * nsPerAcc;
        const double start = std::max(due, free);
        free = start + serviceNs[i];
        q.sojournNs.push_back(free - due);
        if (i >= tailFrom)
            tailLag += start - due;
        accesses += batches[i].n;
    }
    const size_t tail = batches.size() - tailFrom;
    q.backlogGrew = tail > 0 && tailLag / static_cast<double>(tail) > limitNs;
    return q;
}

/** What one open-loop run measured. */
struct OpenLoopResult
{
    std::vector<double> serviceNs; //!< Each batch's timed engine call.
    std::vector<uint64_t> batchHits;
    std::vector<double> sojournNs; //!< Completion - scheduled arrival.
    std::vector<double> wallLagNs; //!< Wall-clock start - scheduled
                                   //!< arrival: how late the generator
                                   //!< ran.
    uint64_t accesses = 0;
    uint64_t hits = 0;
    bool backlogGrew = false;
};

/**
 * Open-loop driver: batch i is due at t0 + (accesses before i) /
 * @p accPerSec, whether or not earlier batches have finished. The
 * driver spins until a batch is due (so wake-up jitter does not
 * pollute the figure), serves it through @p serve
 * (`uint64_t(const Batch&)`, returns hits), and times the call with
 * @p clock (`int64_t()`, ns). Sojourn and backlog are fifoQueue's
 * over the measured service times. With the wall clock the sojourn
 * is the observed completion time; with a thread CPU clock, time the
 * hypervisor took the vCPU away is left out.
 */
template <class Serve, class ServiceClock>
OpenLoopResult
runOpenLoop(const std::vector<Batch>& batches, double accPerSec,
            double limitNs, Serve&& serve, ServiceClock&& clock)
{
    OpenLoopResult r;
    r.serviceNs.reserve(batches.size());
    r.batchHits.reserve(batches.size());
    r.wallLagNs.reserve(batches.size());
    const double nsPerAcc = 1e9 / accPerSec;
    const int64_t t0 = nowNs();
    for (const Batch& b : batches) {
        const double due = static_cast<double>(r.accesses) * nsPerAcc;
        int64_t now = nowNs();
        while (static_cast<double>(now - t0) < due)
            now = nowNs();
        r.wallLagNs.push_back(static_cast<double>(now - t0) - due);
        const int64_t c0 = clock();
        r.batchHits.push_back(serve(b));
        r.serviceNs.push_back(static_cast<double>(clock() - c0));
        r.hits += r.batchHits.back();
        r.accesses += b.n;
    }
    Queue q = fifoQueue(batches, accPerSec, r.serviceNs, limitNs);
    r.sojournNs = std::move(q.sojournNs);
    r.backlogGrew = q.backlogGrew;
    return r;
}

/**
 * In-memory span log. Each span names a layer call the benchmark
 * made, when it started and ended, the span that caused it, and the
 * batch it served. Spans are written out only when the run ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        uint32_t name = 0;   //!< Index into names().
        int32_t parent = -1; //!< Enclosing span; -1 = root.
        uint32_t batch = 0;
        int64_t start = 0;
        int64_t end = 0;
    };

    explicit SpanLog(std::vector<std::string> names)
        : names_(std::move(names))
    {
    }

    /** Opens a span; close it with end(). */
    int32_t begin(uint32_t name, uint32_t batch, int32_t parent = -1)
    {
        spans_.push_back({name, parent, batch, nowNs(), 0});
        return static_cast<int32_t>(spans_.size() - 1);
    }

    void end(int32_t id) { spans_[static_cast<size_t>(id)].end = nowNs(); }

    /** Records an already-timed span. */
    int32_t add(uint32_t name, uint32_t batch, int64_t start,
                int64_t end, int32_t parent = -1)
    {
        spans_.push_back({name, parent, batch, start, end});
        return static_cast<int32_t>(spans_.size() - 1);
    }

    const std::vector<Span>& spans() const { return spans_; }
    const std::vector<std::string>& names() const { return names_; }

    /** Total duration of every span named @p name, in ns. */
    double total(uint32_t name) const
    {
        double s = 0.0;
        for (const Span& sp : spans_)
            if (sp.name == name)
                s += static_cast<double>(sp.end - sp.start);
        return s;
    }

    /**
     * Total self time of every span named @p name: each span's
     * duration minus the durations of its direct children. Children
     * of one span run one after another, so their durations do not
     * overlap.
     */
    double selfTotal(uint32_t name) const
    {
        std::vector<double> child(spans_.size(), 0.0);
        for (const Span& sp : spans_)
            if (sp.parent >= 0)
                child[static_cast<size_t>(sp.parent)] +=
                    static_cast<double>(sp.end - sp.start);
        double s = 0.0;
        for (size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name)
                s += static_cast<double>(spans_[i].end -
                                         spans_[i].start) -
                     child[i];
        return s;
    }

    /** Writes every span as CSV (name,parent,batch,start_ns,end_ns);
     *  false when the file cannot be written. */
    bool write(const std::string& path) const
    {
        FILE* f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        std::fprintf(f, "id,name,parent,batch,start_ns,end_ns\n");
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& sp = spans_[i];
            std::fprintf(f, "%zu,%s,%d,%u,%lld,%lld\n", i,
                         names_[sp.name].c_str(), sp.parent, sp.batch,
                         static_cast<long long>(sp.start),
                         static_cast<long long>(sp.end));
        }
        return std::fclose(f) == 0;
    }

  private:
    std::vector<std::string> names_;
    std::vector<Span> spans_;
};

/** Collects correctness failures; the run is correct when none. */
class Gate
{
  public:
    /** Records @p what as a failure unless @p ok. */
    bool expect(bool ok, const std::string& what)
    {
        if (!ok)
            failures_.push_back(what);
        return ok;
    }

    /** Every access submitted was counted by the engine's stats. */
    bool accounted(uint64_t submitted, uint64_t counted)
    {
        return expect(submitted == counted,
                      "accounting: submitted " + std::to_string(submitted) +
                          " but stats count " + std::to_string(counted));
    }

    /** Two executions that must be bit-exact agree on hits. */
    bool sameHits(const std::string& what, uint64_t a, uint64_t b)
    {
        return expect(a == b, what + ": " + std::to_string(a) +
                                  " != " + std::to_string(b));
    }

    /** Talus is never worse than LRU on the same inputs. */
    bool notWorseThanLru(double talusMiss, double lruMiss)
    {
        return expect(talusMiss <= lruMiss,
                      "talus miss ratio " + std::to_string(talusMiss) +
                          " exceeds LRU " + std::to_string(lruMiss));
    }

    bool ok() const { return failures_.empty(); }
    const std::vector<std::string>& failures() const { return failures_; }

  private:
    std::vector<std::string> failures_;
};

} // namespace servebench

#endif // SERVEBENCH_HARNESS_H
