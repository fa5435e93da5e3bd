/**
 * @file
 * PinnedWorkers: the work-first dispatcher on its own, with a test
 * executor that logs what ran where.
 *
 *  - Every task runs exactly once, never concurrently with another
 *    task of its shard, and each shard's tasks run in submission order
 *    across thousands of dispatches, for threads {1,2,3,4} x shards
 *    {1,3,4,8}, with control tasks interleaved with access tasks.
 *  - A stalled worker: its executor blocks, so the caller claims its
 *    other tasks and their ring entries go stale; a parked worker
 *    that misses whole dispatches fills its ring, so pushes are
 *    skipped and the caller runs those tasks.
 *  - The reentrancy and one-task-per-shard traps.
 *
 * The `shard` label puts this suite under the ThreadSanitizer CI job,
 * which checks that handing a shard between a worker and the caller
 * publishes its state.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/registry.h"
#include "shard/shard_workers.h"

namespace talus {
namespace {

/** What one shard saw: the (seq, op) codes of the tasks it ran, in
 *  run order, plus a busy flag that catches concurrent runs. */
struct ShardLog
{
    std::vector<uint64_t> ran;
    uint64_t sink = 0; //!< Keeps the executor's busy work alive.
    std::atomic<bool> busy{false};
};

/** Encodes a task's submission sequence number and op. */
uint64_t
code(uint64_t seq, ShardTask::Op op)
{
    return seq * 4 + static_cast<uint64_t>(op);
}

/** The test executor: checks exclusivity, logs the task, and burns a
 *  little task-dependent time so claims race realistically. */
PinnedWorkers::Executor
loggingExecutor(std::vector<ShardLog>& logs, std::atomic<uint64_t>& runs)
{
    return [&logs, &runs](const ShardTask& t) {
        ShardLog& log = logs[t.shard];
        EXPECT_FALSE(log.busy.exchange(true, std::memory_order_relaxed))
            << "shard " << t.shard << " ran on two threads at once";
        uint64_t spin = t.count * 2654435761u;
        for (uint64_t i = 0; i < (t.count % 7) * 40; ++i)
            spin = spin * 6364136223846793005ull + 1;
        log.sink += spin;
        log.ran.push_back(code(t.count, t.op));
        log.busy.store(false, std::memory_order_relaxed);
        runs.fetch_add(1, std::memory_order_relaxed);
    };
}

class PinnedWorkersGrid
    : public ::testing::TestWithParam<std::tuple<uint32_t, uint32_t>>
{
};

TEST_P(PinnedWorkersGrid, EveryTaskOnceInSubmissionOrderPerShard)
{
    const auto [threads, shards] = GetParam();
    std::vector<ShardLog> logs(shards);
    std::atomic<uint64_t> runs{0};
    std::vector<std::vector<uint64_t>> expected(shards);
    uint64_t submitted = 0;
    {
        PinnedWorkers workers(threads, shards,
                              loggingExecutor(logs, runs));
        ASSERT_EQ(workers.threadCount(), threads);
        std::vector<uint64_t> nextSeq(shards, 0);
        std::vector<uint32_t> order(shards);
        std::vector<ShardTask> tasks;
        uint64_t rng = 0x9E3779B97F4A7C15ull ^ (threads * 131 + shards);
        auto next = [&rng] {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            return static_cast<uint32_t>(rng >> 33);
        };
        constexpr uint32_t kDispatches = 3000;
        for (uint32_t d = 0; d < kDispatches; ++d) {
            // Every 8th dispatch is a control sweep over all shards;
            // the rest serve a random subset of shards, in a random
            // order (order within one dispatch is free).
            const bool control = next() % 8 == 0;
            std::iota(order.begin(), order.end(), 0u);
            for (uint32_t i = shards; i > 1; --i)
                std::swap(order[i - 1], order[next() % i]);
            const uint32_t n = control ? shards : 1 + next() % shards;
            tasks.clear();
            for (uint32_t i = 0; i < n; ++i) {
                const uint32_t s = order[i];
                ShardTask t;
                t.shard = s;
                t.op = !control ? ShardTask::Op::Access
                       : d % 2 ? ShardTask::Op::Reconfigure
                               : ShardTask::Op::ReconfigureAtEpoch;
                t.count = nextSeq[s]++;
                expected[s].push_back(code(t.count, t.op));
                tasks.push_back(t);
            }
            submitted += n;
            workers.dispatch(tasks.data(), n);
            // dispatch() returned: every task of it finished.
            ASSERT_EQ(runs.load(), submitted) << "dispatch " << d;
        }
    }
    for (uint32_t s = 0; s < shards; ++s)
        EXPECT_EQ(logs[s].ran, expected[s]) << "shard " << s;
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsByShards, PinnedWorkersGrid,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u),
                       ::testing::Values(1u, 3u, 4u, 8u)),
    [](const ::testing::TestParamInfo<PinnedWorkersGrid::ParamType>& p) {
        return "threads" + std::to_string(std::get<0>(p.param)) +
               "_shards" + std::to_string(std::get<1>(p.param));
    });

TEST(PinnedWorkers, InlineModeRunsInSubmissionOrderOnCaller)
{
    std::vector<uint32_t> order;
    const std::thread::id caller = std::this_thread::get_id();
    PinnedWorkers workers(0, 4, [&](const ShardTask& t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(t.shard);
    });
    EXPECT_EQ(workers.threadCount(), 0u);
    const ShardTask tasks[] = {{2}, {0}, {3}, {1}};
    workers.dispatch(tasks, 4);
    EXPECT_EQ(order, (std::vector<uint32_t>{2, 0, 3, 1}));
}

TEST(PinnedWorkers, StalledWorkerLeavesItsTasksToTheCaller)
{
    // One worker owns all four shards. Its executor blocks on shard
    // 0's task, so the caller, walking from the tail, claims shards
    // 3, 2 and 1 — whose ring entries the worker then pops stale. The
    // caller's first task (shard 3) holds until the worker is inside
    // shard 0, so shard 0 always goes to the worker; the caller's
    // last task (shard 1) releases the worker.
    MetricRegistry reg;
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> workerEntered{false};
    std::atomic<bool> gateOpen{false};
    std::vector<std::atomic<uint32_t>> ranOnCaller(4);
    std::vector<std::atomic<uint32_t>> ranOnWorker(4);
    PinnedWorkers workers(
        1, 4,
        [&](const ShardTask& t) {
            const bool onCaller = std::this_thread::get_id() == caller;
            (onCaller ? ranOnCaller : ranOnWorker)[t.shard].fetch_add(1);
            if (!onCaller && t.shard == 0 && t.count == 1) {
                workerEntered.store(true);
                while (!gateOpen.load())
                    std::this_thread::yield();
            }
            if (onCaller && t.shard == 3 && t.count == 1) {
                while (!workerEntered.load())
                    std::this_thread::yield();
            }
            if (onCaller && t.shard == 1 && t.count == 1)
                gateOpen.store(true);
        },
        &reg);
    auto callerTasks = [&reg] {
        return reg.snapshot().counterTotal(
            "talus_dispatch_caller_tasks_total");
    };

    const ShardTask stalled[] = {{0, ShardTask::Op::Access, 0, nullptr, 1},
                                 {1, ShardTask::Op::Access, 0, nullptr, 1},
                                 {2, ShardTask::Op::Access, 0, nullptr, 1},
                                 {3, ShardTask::Op::Access, 0, nullptr, 1}};
    workers.dispatch(stalled, 4);
    EXPECT_EQ(ranOnWorker[0].load(), 1u);
    for (uint32_t s = 1; s < 4; ++s) {
        EXPECT_EQ(ranOnCaller[s].load(), 1u) << "shard " << s;
        EXPECT_EQ(ranOnWorker[s].load(), 0u) << "shard " << s;
    }
    EXPECT_EQ(callerTasks(), 3u);

    // A parked worker misses whole dispatches: the caller claims
    // every task before the worker wakes, so stale entries pile up
    // until the ring (2 x 4 shards = 8 slots) is full and pushes are
    // skipped. Waking takes microseconds and a dispatch of four
    // empty tasks far less, so a burst fills the ring; each round
    // re-parks the worker first, and the rounds are bounded.
    const ShardTask burst[] = {{0, ShardTask::Op::Access, 0, nullptr, 2},
                               {1, ShardTask::Op::Access, 0, nullptr, 2},
                               {2, ShardTask::Op::Access, 0, nullptr, 2},
                               {3, ShardTask::Op::Access, 0, nullptr, 2}};
    uint64_t dispatched = 4;
    double hwm = 0.0;
    for (int round = 0; round < 200 && hwm < 8.0; ++round) {
        const uint64_t parks0 =
            reg.snapshot().counterTotal("talus_worker_parks_total");
        while (reg.snapshot().counterTotal("talus_worker_parks_total") ==
               parks0)
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        for (int d = 0; d < 16; ++d) {
            workers.dispatch(burst, 4);
            dispatched += 4;
        }
        hwm = reg.snapshot().find("talus_worker_ring_depth_hwm",
                                  "worker=\"0\"")->gauge;
    }
    EXPECT_EQ(hwm, 8.0) << "the ring never filled";
    uint64_t onCaller = 0, onWorker = 0;
    for (uint32_t s = 0; s < 4; ++s) {
        onCaller += ranOnCaller[s].load();
        onWorker += ranOnWorker[s].load();
    }
    EXPECT_EQ(onCaller + onWorker, dispatched)
        << "a task ran twice or never";
    EXPECT_EQ(callerTasks(), onCaller);
}

TEST(PinnedWorkersDeathTest, DispatchIsNotReentrant)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A task that dispatches again trips the reentrancy trap, on
    // whichever thread runs it.
    auto dispatchFromTask = [] {
        PinnedWorkers* self = nullptr;
        const ShardTask t[] = {{0}};
        PinnedWorkers workers(
            1, 1, [&](const ShardTask&) { self->dispatch(t, 1); });
        self = &workers;
        workers.dispatch(t, 1);
    };
    EXPECT_DEATH(dispatchFromTask(), "not reentrant");
}

TEST(PinnedWorkersDeathTest, OneTaskPerShardPerDispatch)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto duplicateShard = [] {
        PinnedWorkers workers(2, 4, [](const ShardTask&) {});
        const ShardTask t[] = {{1}, {2}, {1}};
        workers.dispatch(t, 3);
    };
    EXPECT_DEATH(duplicateShard(), "appears twice");
}

} // namespace
} // namespace talus
