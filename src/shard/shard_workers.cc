#include "shard/shard_workers.h"

#include <algorithm>
#include <utility>

#include "obs/registry.h"
#include "util/log.h"

namespace talus {

namespace {

// One spin iteration's "do nothing, politely": on x86 PAUSE backs off
// the core's speculation and frees the sibling hyperthread; elsewhere
// the closest equivalent (or nothing — the loop itself is the wait).
inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
    asm volatile("yield" ::: "memory");
#endif
}

// Empty polls before a worker stops spinning and starts yielding
// (~a microsecond of PAUSE loops: long enough to bridge the gap
// between back-to-back batches, short enough not to burn a core), and
// yields before it parks on its condition variable. The caller's
// completion wait uses the same spin budget but never parks — the
// next thing it does is return to the producer loop anyway.
constexpr int kSpinPolls = 4096;
constexpr int kYieldPolls = 64;

} // namespace

PinnedWorkers::PinnedWorkers(uint32_t threads, uint32_t num_shards,
                             Executor exec, MetricRegistry* metrics,
                             const std::string& metricsScope)
    : exec_(std::move(exec))
{
    talus_assert(exec_ != nullptr, "PinnedWorkers needs an executor");
    if (threads == 0)
        return;
    // A ring holds one dispatch's worth of its owner's shard fan-in,
    // plus as many stale entries again (tasks the caller claimed
    // before the owner popped them). Past that the push is skipped
    // and the caller runs the task, so the capacity is a tuning
    // choice, not a correctness bound.
    const uint32_t fan_in = (num_shards + threads - 1) / threads;
    workers_.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t)
        workers_.push_back(
            std::make_unique<Worker>(2 * (fan_in > 0 ? fan_in : 1)));
    claims_ = std::vector<std::atomic<uint64_t>>(num_shards);
    touched_.assign(threads, 0);
    // Resolve metric handles before any worker thread exists, so the
    // threads only ever see fully initialized (or all-null) pointers.
    if (metrics != nullptr) {
        callerTasks_ = &metrics->counter(
            "talus_dispatch_caller_tasks_total", metricsScope);
        for (uint32_t t = 0; t < threads; ++t) {
            const std::string labels =
                joinLabels(metricsScope, labelPair("worker", t));
            workers_[t]->parks =
                &metrics->counter("talus_worker_parks_total", labels);
            workers_[t]->wakes =
                &metrics->counter("talus_worker_wakes_total", labels);
            workers_[t]->ringDepthHwm =
                &metrics->gauge("talus_worker_ring_depth_hwm", labels);
        }
    }
    threads_.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t)
        threads_.emplace_back([this, t] { workerLoop(*workers_[t]); });
}

PinnedWorkers::~PinnedWorkers()
{
    stop_.store(true, std::memory_order_release);
    for (auto& w : workers_) {
        std::lock_guard<std::mutex> lock(w->mu);
        w->cv.notify_one();
    }
    for (std::thread& t : threads_)
        t.join();
}

void
PinnedWorkers::dispatch(const ShardTask* tasks, uint32_t count)
{
    if (count == 0)
        return;
    if (threads_.empty()) {
        // Inline mode: submission order on the caller's thread — the
        // bit-exactness reference.
        for (uint32_t i = 0; i < count; ++i)
            exec_(tasks[i]);
        return;
    }

    const bool was_dispatching =
        dispatching_.exchange(true, std::memory_order_acquire);
    talus_assert(!was_dispatching,
                 "PinnedWorkers dispatch is not reentrant: one "
                 "dispatch() at a time, from one thread only");

    const uint64_t epoch = ++epoch_;
    pending_.store(count, std::memory_order_relaxed);
    std::fill(touched_.begin(), touched_.end(), uint8_t{0});
    for (uint32_t i = 0; i < count; ++i) {
        const uint32_t s = tasks[i].shard;
        talus_assert(s < claims_.size(), "bad shard ", s);
        // Post the claim before the push publishes the entry. Nothing
        // else writes the word now: every claim of the last dispatch
        // is settled, and a stale entry's claim only reads it.
        talus_assert(claims_[s].load(std::memory_order_relaxed) !=
                         2 * epoch,
                     "shard ", s, " appears twice in one dispatch");
        claims_[s].store(2 * epoch, std::memory_order_relaxed);
        const uint32_t w = ownerOf(s);
        // A full ring means the owner fell behind on stale entries:
        // skip the push, and the tail walk below runs the task on the
        // caller.
        if (!workers_[w]->ring.tryPush(Posted{tasks[i], epoch}))
            continue;
        touched_[w] = 1;
        if (workers_[w]->ringDepthHwm != nullptr) {
            // Racy-snapshot depth right after our own push: an upper
            // bound on queueing the consumer hasn't drained yet. The
            // producer alone tracks the high-water mark.
            const uint64_t depth = workers_[w]->ring.size();
            if (depth > workers_[w]->hwm) {
                workers_[w]->hwm = depth;
                workers_[w]->ringDepthHwm->set(
                    static_cast<double>(depth));
            }
        }
    }

    // Wake only workers that both got work and actually parked. The
    // seq_cst fence pairs with the one in workerLoop(): either we see
    // parked == true here (and notify under the mutex), or the worker
    // sees our pushes in its post-flag recheck — a push can never
    // slip between its last look at the ring and its sleep.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    for (uint32_t w = 0; w < workers_.size(); ++w) {
        if (touched_[w] &&
            workers_[w]->parked.load(std::memory_order_relaxed)) {
            {
                std::lock_guard<std::mutex> lock(workers_[w]->mu);
                workers_[w]->cv.notify_one();
            }
            if (workers_[w]->wakes != nullptr)
                workers_[w]->wakes->inc();
        }
    }

    // Work first: run every task no worker has claimed, from the tail
    // (the workers pop from the head of their rings).
    uint64_t ran = 0;
    for (uint32_t i = count; i-- > 0;) {
        if (claim(tasks[i].shard, epoch)) {
            exec_(tasks[i]);
            ++ran;
        }
    }
    if (ran != 0) {
        pending_.fetch_sub(ran, std::memory_order_relaxed);
        if (callerTasks_ != nullptr)
            callerTasks_->inc(ran);
    }
    // Then wait for the tasks the workers claimed: spin, then yield
    // (on oversubscribed hosts the yields are what let the workers run
    // at all). The acquire pairs with each worker's release fetch_sub,
    // so every task's writes — per-shard hit slots, cache state — are
    // visible on return.
    int idle = 0;
    while (pending_.load(std::memory_order_acquire) != 0) {
        if (++idle < kSpinPolls)
            cpuRelax();
        else
            std::this_thread::yield();
    }
    dispatching_.store(false, std::memory_order_release);
}

bool
PinnedWorkers::claim(uint32_t shard, uint64_t epoch)
{
    uint64_t posted = 2 * epoch;
    return claims_[shard].compare_exchange_strong(
        posted, posted + 1, std::memory_order_acq_rel,
        std::memory_order_relaxed);
}

void
PinnedWorkers::workerLoop(Worker& w)
{
    Posted p;
    int idle = 0;
    while (true) {
        if (w.ring.tryPop(p)) {
            idle = 0;
            // A stale entry (the caller ran it) fails its claim.
            if (claim(p.task.shard, p.epoch)) {
                exec_(p.task);
                pending_.fetch_sub(1, std::memory_order_release);
            }
            continue;
        }
        if (stop_.load(std::memory_order_acquire))
            return;
        ++idle;
        if (idle < kSpinPolls) {
            cpuRelax();
        } else if (idle < kSpinPolls + kYieldPolls) {
            std::this_thread::yield();
        } else {
            // Park. Flag first, fence, then one last ring check: the
            // producer's fence-then-flag-read (dispatch())
            // guarantees that if it skipped the notify, our recheck
            // sees its push.
            w.parked.store(true, std::memory_order_relaxed);
            std::atomic_thread_fence(std::memory_order_seq_cst);
            if (w.ring.empty() &&
                !stop_.load(std::memory_order_acquire)) {
                if (w.parks != nullptr)
                    w.parks->inc();
                std::unique_lock<std::mutex> lock(w.mu);
                w.cv.wait(lock, [this, &w] {
                    return stop_.load(std::memory_order_acquire) ||
                           !w.ring.empty();
                });
            }
            w.parked.store(false, std::memory_order_relaxed);
            idle = 0;
        }
    }
}

} // namespace talus
