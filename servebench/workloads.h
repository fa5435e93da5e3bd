/**
 * @file
 * The three workloads: their inputs (generated from the workload seed
 * before any timing), their engines behind one serving call, and the
 * closed-loop pass that every run and test builds on.
 */

#ifndef SERVEBENCH_WORKLOADS_H
#define SERVEBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/talus.h"
#include "harness.h"
#include "obs/registry.h"
#include "shard/sharded_cache.h"

namespace servebench {

/** The workload names, in BENCHMARK.json order. */
inline const std::vector<std::string> kWorkloads = {
    "zipf_sharded", "scan_storm", "tenant_churn_open"};

/** scan_storm runs a control step every this many accesses. */
constexpr uint64_t kScanControlEvery = 5 * 4096;

/** Pre-generated inputs: warm-up batches, then measured batches. */
struct Inputs
{
    std::vector<talus::Addr> addrs; //!< Backing store of every batch.
    std::vector<Batch> warm;
    std::vector<Batch> measured;
    uint64_t measuredAccesses = 0;
    double genNsPerAcc = 0.0; //!< AccessStream::nextBlock cost.
};

/** @p workload's inputs for @p seed; the same seed gives the same
 *  inputs. Fatal for an unknown workload. */
Inputs makeInputs(const std::string& workload, uint64_t seed);

/** One engine under test behind the call the drivers make. */
class Engine
{
  public:
    virtual ~Engine() = default;

    /** Serves one batch; returns its hits. */
    virtual uint64_t serve(const Batch& b) = 0;

    /** Accesses the engine's own stats counted. */
    virtual uint64_t counted() const = 0;

    /** Misses the engine's own stats counted. */
    virtual uint64_t misses() const = 0;
};

/** zipf_sharded's and tenant_churn_open's engine. */
class ShardedEngine final : public Engine
{
  public:
    explicit ShardedEngine(const talus::ShardedTalusCache::Config& c)
        : e_(c)
    {
    }

    uint64_t serve(const Batch& b) override
    {
        return e_.accessBatch(talus::Span<const talus::Addr>(b.data, b.n),
                              b.part);
    }

    uint64_t counted() const override;
    uint64_t misses() const override;

    talus::ShardedTalusCache& cache() { return e_; }

  private:
    talus::ShardedTalusCache e_;
};

/** scan_storm's engine: a TalusCache whose control step (prepare +
 *  apply) the serving loop runs every kScanControlEvery accesses. */
class ScanEngine final : public Engine
{
  public:
    /** The cache; @p talusOn false gives the LRU baseline. */
    static talus::TalusCache::Config config(bool talusOn);

    explicit ScanEngine(const talus::TalusCache::Config& c) : cache_(c) {}

    uint64_t serve(const Batch& b) override
    {
        const uint64_t hits = cache_.accessBatch(
            talus::Span<const talus::Addr>(b.data, b.n));
        if (controlDue(b.n)) {
            cache_.prepareReconfigure();
            cache_.applyReconfigure();
        }
        return hits;
    }

    /** Counts @p n served accesses; true when a control step is due. */
    bool controlDue(uint64_t n)
    {
        since_ += n;
        if (since_ < kScanControlEvery)
            return false;
        since_ = 0;
        return true;
    }

    uint64_t counted() const override { return cache_.stats(0).accesses; }
    uint64_t misses() const override { return cache_.stats(0).misses; }

    talus::TalusCache& cache() { return cache_; }

  private:
    talus::TalusCache cache_;
    uint64_t since_ = 0;
};

/** Builds @p workload's engine; @p reg non-null turns its metrics on;
 *  @p talusOn false gives plain LRU (scan_storm's baseline). */
std::unique_ptr<Engine> makeEngine(const std::string& workload,
                                   talus::MetricRegistry* reg = nullptr,
                                   bool talusOn = true);

/** A clock in ns: nowNs or threadCpuNs. */
using ClockFn = int64_t (*)();

/** The clock @p workload's engine calls are timed with: the thread
 *  CPU clock for the inline workloads, the wall clock for
 *  zipf_sharded, whose work spans threads. */
ClockFn serviceClock(const std::string& workload);

/** Serves the warm-up batches; returns their hits. */
uint64_t warmUp(Engine& e, const Inputs& in);

/** Checks that every access of warm-up plus window was counted and
 *  that the engine's misses agree with @p servedHits, the hits its
 *  calls returned. */
void checkAccounting(Gate& gate, const Engine& e, const Inputs& in,
                     uint64_t servedHits);

/** The measured window's miss ratio for @p hits. */
double missRatio(const Inputs& in, uint64_t hits);

/** What one closed-loop pass measured. */
struct Pass
{
    double setupS = 0.0;   //!< Construction + warm-up, wall clock.
    double engineNs = 0.0; //!< Sum of timed engine calls.
    double windowNs = 0.0; //!< The whole measured loop, wall clock.
    uint64_t hits = 0;
    double rssGrowthB = 0.0; //!< RSS growth from before construction.
    std::vector<double> batchNs;
    std::vector<uint64_t> batchHits;
    /** A closed-loop batch is due when the previous one completes:
     *  previous completion to this completion. */
    std::vector<double> sojournNs;
};

/** Builds @p workload's engine, warms it, serves the measured batches
 *  back to back timing each call with @p clock, and checks the
 *  engine's accounting into @p gate. */
Pass closedLoop(const std::string& workload, const Inputs& in,
                ClockFn clock, Gate& gate, bool talusOn = true);

} // namespace servebench

#endif // SERVEBENCH_WORKLOADS_H
