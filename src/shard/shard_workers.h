/**
 * @file
 * PinnedWorkers: the serving engine's one dispatcher — persistent
 * shard-pinned worker threads fed through bounded SPSC rings, with a
 * work-first caller.
 *
 *  - Each worker thread permanently owns a fixed subset of shards
 *    (shard s belongs to worker s % threads) and is fed plain
 *    ShardTask descriptors through its own SPSC ring
 *    (shard/spsc_ring.h): dispatching is one ring push per task plus
 *    one atomic pending counter, no mutex on the submit path.
 *  - Work-first: the caller does not sit idle while the workers run.
 *    After posting, dispatch() walks the tasks from the tail and runs
 *    every one no worker has started, then waits for the rest.
 *    Workers pop from the head of their rings, so the two meet in the
 *    middle.
 *  - Every task carries an epoch-tagged claim word (one per shard):
 *    whoever wins the claim — the owning worker or the caller — runs
 *    the task, exactly once. A ring entry the caller already claimed
 *    goes stale and fails its claim when the worker pops it; a full
 *    ring (an owner that fell behind) just skips the push, and the
 *    caller runs that task.
 *  - Idle workers poll: spin briefly, then yield, then park on a
 *    condition variable. The producer touches a worker's parking
 *    mutex only when that worker has actually parked.
 *
 * Determinism: a dispatch holds at most one task per shard and
 * completes every task before it returns, so each shard's tasks run
 * in submission order, one thread at a time — on its owner or on the
 * caller. Shards share no state, so results are bit-exact with
 * inline execution (threads == 0) for any thread count.
 */

#ifndef TALUS_SHARD_SHARD_WORKERS_H
#define TALUS_SHARD_SHARD_WORKERS_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "shard/spsc_ring.h"
#include "util/types.h"

namespace talus {

class Counter;
class Gauge;
class MetricRegistry;

/** One unit of shard work: a shard, what to do with it, and its
 *  operands. */
struct ShardTask
{
    /** What the executor does with the shard. */
    enum class Op : uint8_t
    {
        Access,             //!< Serve the sub-batch [data, data + count).
        Reconfigure,        //!< One synchronous control step.
        ReconfigureAtEpoch, //!< Compute now; apply at the next multiple
                            //!< of count accesses.
    };

    uint32_t shard = 0;         //!< Target shard index.
    Op op = Op::Access;         //!< The work to do.
    PartId part = 0;            //!< Logical partition of the batch.
    const Addr* data = nullptr; //!< Sub-batch base. Borrowed: must stay
                                //!< valid until dispatch() returns.
    uint64_t count = 0;         //!< Addresses in the sub-batch, or the
                                //!< epoch length (ReconfigureAtEpoch).
};

/** Persistent shard-pinned workers fed by per-worker SPSC rings, with
 *  a caller that runs the tasks no worker has started. */
class PinnedWorkers
{
  public:
    /** Executes one ShardTask; runs on the shard's owning worker
     *  thread or on the caller's thread. */
    using Executor = std::function<void(const ShardTask&)>;

    /**
     * Starts @p threads persistent workers, each owning the shards
     * s in [0, num_shards) with s % threads == its index. threads == 0
     * starts none: dispatch() runs every task inline, in submission
     * order, on the calling thread — the
     * deterministic-debugging mode the threaded modes must match
     * bit-for-bit.
     *
     * @p exec is fixed for the lifetime of the pool (one indirect
     * call per task; never rebuilt per batch).
     *
     * @p metrics (optional) publishes dispatch health into the
     * registry under @p metricsScope: per worker (`worker="t"`) the
     * ring depth high-water mark and the park and wake counts, and
     * per engine the tasks the caller ran. Null (the default) leaves
     * the hooks as never-taken null checks.
     */
    PinnedWorkers(uint32_t threads, uint32_t num_shards, Executor exec,
                  MetricRegistry* metrics = nullptr,
                  const std::string& metricsScope = "");

    /** Unparks and joins the workers. */
    ~PinnedWorkers();

    PinnedWorkers(const PinnedWorkers&) = delete;
    PinnedWorkers& operator=(const PinnedWorkers&) = delete;

    /**
     * Runs tasks[0..count) and returns once every task finished (with
     * release/acquire publication, so the caller sees all worker
     * writes). Each task runs exactly once, on its shard's owning
     * worker or on the caller: the caller posts every task to its
     * owner's ring, then walks the tasks from the tail and runs each
     * one no worker has claimed, then waits for the rest. A dispatch
     * may name each shard at most once (enforced by a talus_assert);
     * tasks of one dispatch run in any order. Not reentrant: one
     * dispatch() at a time, from one thread (enforced by a
     * talus_assert). With threads == 0 the tasks run inline, in
     * submission order, on the caller.
     */
    void dispatch(const ShardTask* tasks, uint32_t count);

    /** Worker threads (0 = inline execution). */
    uint32_t threadCount() const
    {
        return static_cast<uint32_t>(threads_.size());
    }

    /** The worker thread owning @p shard (threads > 0 only). */
    uint32_t ownerOf(uint32_t shard) const
    {
        return shard % static_cast<uint32_t>(workers_.size());
    }

  private:
    /** A ring entry: the task plus the dispatch epoch it belongs to. */
    struct Posted
    {
        ShardTask task;
        uint64_t epoch = 0;
    };

    /** Per-worker state: its task ring and its parking gear. */
    struct Worker
    {
        explicit Worker(uint32_t ring_capacity) : ring(ring_capacity) {}

        SpscRing<Posted> ring;
        // Metric handles (null when metrics are off). parks is bumped
        // by the worker thread, wakes by the producer, and the ring
        // depth high-water mark by the producer alone (hwm is plain:
        // producer-only state).
        Counter* parks = nullptr;
        Counter* wakes = nullptr;
        Gauge* ringDepthHwm = nullptr;
        uint64_t hwm = 0;
        /** True while the worker sleeps on cv (set by the worker
         *  before its final empty-ring recheck; the seq_cst fences in
         *  workerLoop()/dispatch() make flag and ring visible in
         *  a consistent order, so a push is never silently missed). */
        std::atomic<bool> parked{false};
        std::mutex mu;
        std::condition_variable cv;
    };

    /** Claims @p shard's task of dispatch @p epoch; true for exactly
     *  one caller per posted task. */
    bool claim(uint32_t shard, uint64_t epoch);

    void workerLoop(Worker& w);

    Executor exec_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;
    /** Per-shard claim words: 2e once shard's task of dispatch e is
     *  posted, 2e + 1 once someone claimed it. A ring entry of an
     *  older epoch therefore never wins. */
    std::vector<std::atomic<uint64_t>> claims_;
    // Caller-owned dispatch state.
    uint64_t epoch_ = 0;
    std::vector<uint8_t> touched_; //!< Workers fed this dispatch.
    Counter* callerTasks_ = nullptr; //!< Caller-run tasks, or null.
    std::atomic<uint64_t> pending_{0}; //!< Tasks not yet finished.
    std::atomic<bool> stop_{false};
    std::atomic<bool> dispatching_{false}; //!< Reentrancy trap.
};

} // namespace talus

#endif // TALUS_SHARD_SHARD_WORKERS_H
