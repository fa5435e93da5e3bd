#include "shard/sharded_cache.h"

#include <sstream>

#include "obs/registry.h"
#include "util/log.h"

namespace talus {

namespace {

// Shard-seed derivation: odd multiplier so consecutive shards get
// well-separated seeds; XOR keeps shard 0 distinct from the base.
constexpr uint64_t kShardSeedSalt = 0x9E37'79B9'7F4A'7C15ull;

// Router-seed derivation when Config::routerSeed is unset. Distinct
// from every per-shard seed so the router never reuses a shard's H3
// masks (routing and intra-shard sampling must stay independent).
constexpr uint64_t kRouterSeedSalt = 0x5A4D'0C11ull;

// The registry the engine's shards and workers publish into when
// metrics are on: the config's registry, or the process-global one.
MetricRegistry*
resolveRegistry(const TalusCache::Config& shard)
{
    if (!shard.metricsEnabled)
        return nullptr;
    return shard.metrics != nullptr ? shard.metrics
                                    : &globalMetricRegistry();
}

// Validation gate for the member-initializer list: the router and
// the pinned workers are constructed before the constructor body
// runs, so an invalid config must throw before either sees it.
const ShardedTalusCache::Config&
validated(const ShardedTalusCache::Config& config)
{
    const std::string err = config.validate();
    if (!err.empty())
        throw ConfigError("ShardedTalusCache::Config: " + err);
    return config;
}

} // namespace

std::string
ShardedTalusCache::Config::validate() const
{
    std::ostringstream err;
    if (numShards < 1 || numShards > kMaxShards)
        err << "numShards must be in [1, " << kMaxShards << "] (got "
            << numShards << ")";
    else if (threads > kMaxShards)
        err << "threads must be <= " << kMaxShards << " (got "
            << threads << "); a batch has at most numShards <= "
            << kMaxShards << " independent tasks, so more workers "
            << "can never help";
    else {
        const std::string shard_err = shard.validate();
        if (!shard_err.empty())
            err << "per-shard config: " << shard_err;
    }
    return err.str();
}

TalusCache::Config
ShardedTalusCache::shardConfig(const Config& config, uint32_t shard)
{
    TalusCache::Config cfg = config.shard;
    cfg.seed = config.shard.seed ^ (kShardSeedSalt * (shard + 1));
    // An explicit per-shard routerSeed is kept as-is: shards are
    // independent caches, so sharing the sampling seed is harmless.
    // Each shard publishes its metrics under a shard="s" label (on
    // top of any caller scope), so per-shard series stay distinct in
    // a shared registry.
    if (cfg.metricsEnabled)
        cfg.metricsScope = joinLabels(config.shard.metricsScope,
                                      labelPair("shard", shard));
    return cfg;
}

ShardedTalusCache::ShardedTalusCache(const Config& config)
    : cfg_(validated(config)),
      router_(cfg_.numShards,
              cfg_.routerSeed.value_or(cfg_.shard.seed ^
                                       kRouterSeedSalt)),
      // The executor runs on the shard's pinned worker thread or on
      // the caller; each shard writes only its own padded hit slot,
      // so per-batch outputs never contend for a cache line.
      workers_(
          cfg_.threads, cfg_.numShards,
          [this](const ShardTask& t) {
              TalusCache& shard = *shards_[t.shard];
              switch (t.op) {
              case ShardTask::Op::Access:
                  shardHits_[t.shard].value = shard.accessBatch(
                      Span<const Addr>(t.data, t.count), t.part);
                  break;
              case ShardTask::Op::Reconfigure:
                  shard.reconfigure();
                  break;
              case ShardTask::Op::ReconfigureAtEpoch:
                  shard.prepareReconfigure();
                  shard.applyReconfigureAtEpoch(t.count);
                  break;
              }
          },
          resolveRegistry(cfg_.shard), cfg_.shard.metricsScope)
{
    shards_.reserve(cfg_.numShards);
    for (uint32_t s = 0; s < cfg_.numShards; ++s)
        shards_.push_back(
            std::make_unique<TalusCache>(shardConfig(cfg_, s)));
    tasks_.reserve(cfg_.numShards);
    shardHits_.resize(cfg_.numShards);
}

bool
ShardedTalusCache::access(Addr addr, PartId part)
{
    return shards_[router_.route(addr)]->access(addr, part);
}

uint64_t
ShardedTalusCache::accessBatch(Span<const Addr> addrs, PartId part)
{
    if (addrs.empty())
        return 0;
    // Flat scatter, then one ShardTask per non-empty shard. Skipping
    // empty shards is bit-exact (TalusCache::accessBatch on an empty
    // span is a no-op) and matters on skewed traces, where small
    // batches leave most shards without work.
    router_.scatterFlat(addrs, plan_);
    tasks_.clear();
    for (uint32_t s = 0; s < cfg_.numShards; ++s) {
        const uint64_t n = plan_.count(s);
        if (n != 0)
            tasks_.push_back(ShardTask{s, ShardTask::Op::Access, part,
                                       plan_.shardData(s), n});
    }
    workers_.dispatch(tasks_.data(),
                      static_cast<uint32_t>(tasks_.size()));
    // Gather exactly the slots this dispatch wrote.
    uint64_t hits = 0;
    for (const ShardTask& t : tasks_)
        hits += shardHits_[t.shard].value;
    return hits;
}

void
ShardedTalusCache::dispatchControl(ShardTask::Op op, uint64_t epochLen)
{
    // One control step per shard on the data-path dispatcher: the
    // shard's owner or the caller runs it. Each task touches only its
    // own shard's monitors, control plane, and cache, and the caller
    // serializes against accessBatch, so the steps are race-free by
    // construction.
    tasks_.clear();
    for (uint32_t s = 0; s < cfg_.numShards; ++s)
        tasks_.push_back(ShardTask{s, op, 0, nullptr, epochLen});
    workers_.dispatch(tasks_.data(), cfg_.numShards);
}

void
ShardedTalusCache::reconfigureAll()
{
    dispatchControl(ShardTask::Op::Reconfigure, 0);
}

void
ShardedTalusCache::reconfigureAllAtEpoch(uint64_t epochLen)
{
    dispatchControl(ShardTask::Op::ReconfigureAtEpoch, epochLen);
}

TalusCache::PartStats
ShardedTalusCache::stats(PartId part) const
{
    TalusCache::PartStats agg;
    double rho_weighted = 0.0;
    for (const auto& shard : shards_) {
        const TalusCache::PartStats s = shard->stats(part);
        agg.accesses += s.accesses;
        agg.misses += s.misses;
        agg.targetLines += s.targetLines;
        rho_weighted += s.rho * static_cast<double>(s.accesses);
    }
    agg.rho = agg.accesses > 0
                  ? rho_weighted / static_cast<double>(agg.accesses)
                  : 1.0;
    return agg;
}

TalusCache::PartStats
ShardedTalusCache::shardStats(uint32_t shard, PartId part) const
{
    talus_assert(shard < shards_.size(), "bad shard ", shard);
    return shards_[shard]->stats(part);
}

MissCurve
ShardedTalusCache::shardCurve(uint32_t shard, PartId part) const
{
    talus_assert(shard < shards_.size(), "bad shard ", shard);
    return shards_[shard]->curve(part);
}

double
ShardedTalusCache::missRatio() const
{
    // Aggregate the same PartStats snapshots stats() serves (which in
    // turn aggregate each shard's stats()), instead of reaching into
    // raw CacheStats: missRatio(), stats(), and shardStats() now all
    // describe the same resetStats() window by construction.
    uint64_t accesses = 0;
    uint64_t misses = 0;
    for (PartId p = 0; p < cfg_.shard.numParts; ++p) {
        const TalusCache::PartStats s = stats(p);
        accesses += s.accesses;
        misses += s.misses;
    }
    return accesses > 0 ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
}

void
ShardedTalusCache::resetStats()
{
    for (auto& shard : shards_)
        shard->resetStats();
}

uint64_t
ShardedTalusCache::capacityLines() const
{
    uint64_t lines = 0;
    for (const auto& shard : shards_)
        lines += shard->capacityLines();
    return lines;
}

uint64_t
ShardedTalusCache::reconfigurations() const
{
    uint64_t total = 0;
    for (const auto& shard : shards_)
        total += shard->reconfigurations();
    return total;
}

TalusCache&
ShardedTalusCache::shard(uint32_t shard)
{
    talus_assert(shard < shards_.size(), "bad shard ", shard);
    return *shards_[shard];
}

const TalusCache&
ShardedTalusCache::shard(uint32_t shard) const
{
    talus_assert(shard < shards_.size(), "bad shard ", shard);
    return *shards_[shard];
}

} // namespace talus
