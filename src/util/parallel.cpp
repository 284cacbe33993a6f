#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace xs::util {
namespace {

// Nested dispatch from inside a worker (or a second concurrent top-level
// dispatch) is not supported by the single-slot pool; such calls run inline.
thread_local bool tl_in_parallel_region = false;

using ChunkFn = std::function<void(std::size_t, std::size_t, std::size_t)>;
using RawFn = WorkerRangeFn;

// A tiny persistent pool: workers wait on a condition variable for a chunked
// task, execute their share, and signal completion. One pool per process.
// Tasks receive (part, lo, hi); parts are distinct per concurrent execution,
// so they double as per-worker state slots.
class Pool {
public:
    Pool() {
        const unsigned hw = std::thread::hardware_concurrency();
        const std::size_t n = hw > 1 ? hw : 1;
        for (std::size_t t = 1; t < n; ++t)
            workers_.emplace_back([this, t] { worker_loop(t); });
        count_ = n;
    }

    ~Pool() {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            shutdown_ = true;
        }
        cv_.notify_all();
        for (auto& w : workers_) w.join();
    }

    std::size_t count() const { return count_; }

    // Core dispatch: a raw function pointer + context, so the hot path
    // (steady-state inference, the tile loop) allocates nothing. The
    // std::function overload below wraps itself in a trampoline.
    void run(std::size_t begin, std::size_t end, RawFn fn, void* ctx) {
        const std::size_t total = end - begin;
        if (total == 0) return;
        // Single-part dispatches (1-worker pool, nested call, or a range of
        // one) run inline without touching pool state. In particular they
        // must not hold the dispatch mutex while running: a single-element
        // top-level range whose body re-dispatches (e.g. a one-unit sweep
        // whose cell uses the pool) would deadlock on its own lock.
        const std::size_t parts = std::min(count_, total);
        if (parts == 1 || tl_in_parallel_region) {
            fn(ctx, 0, begin, end);
            return;
        }
        // Serialize concurrent top-level dispatches from distinct threads:
        // the pool has a single task slot, and the thread-local region flag
        // cannot see another thread's in-flight dispatch.
        std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
        tl_in_parallel_region = true;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            task_ = fn;
            task_ctx_ = ctx;
            task_begin_ = begin;
            task_end_ = end;
            task_parts_ = parts;
            next_part_ = 1;  // part 0 runs on the calling thread
            pending_ = parts - 1;
            ++generation_;
        }
        cv_.notify_all();
        run_part(0, begin, end, parts, fn, ctx);
        {
            std::unique_lock<std::mutex> lock(mutex_);
            done_cv_.wait(lock, [this] { return pending_ == 0; });
            task_ = nullptr;
        }
        tl_in_parallel_region = false;
    }

    void run(std::size_t begin, std::size_t end, const ChunkFn& fn) {
        run(begin, end,
            [](void* ctx, std::size_t part, std::size_t lo, std::size_t hi) {
                (*static_cast<const ChunkFn*>(ctx))(part, lo, hi);
            },
            const_cast<void*>(static_cast<const void*>(&fn)));
    }

private:
    static void run_part(std::size_t part, std::size_t begin, std::size_t end,
                         std::size_t parts, RawFn fn, void* ctx) {
        const std::size_t total = end - begin;
        const std::size_t chunk = (total + parts - 1) / parts;
        const std::size_t lo = begin + part * chunk;
        const std::size_t hi = std::min(end, lo + chunk);
        if (lo < hi) fn(ctx, part, lo, hi);
    }

    void worker_loop(std::size_t) {
        tl_in_parallel_region = true;  // workers never re-dispatch to the pool
        std::uint64_t seen_generation = 0;
        while (true) {
            RawFn fn = nullptr;
            void* ctx = nullptr;
            std::size_t part = 0, begin = 0, end = 0, parts = 0;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [&] {
                    return shutdown_ ||
                           (task_ != nullptr && generation_ != seen_generation &&
                            next_part_ < task_parts_);
                });
                if (shutdown_) return;
                fn = task_;
                ctx = task_ctx_;
                part = next_part_++;
                begin = task_begin_;
                end = task_end_;
                parts = task_parts_;
                if (next_part_ >= task_parts_) seen_generation = generation_;
            }
            run_part(part, begin, end, parts, fn, ctx);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                if (--pending_ == 0) done_cv_.notify_all();
            }
        }
    }

    std::vector<std::thread> workers_;
    std::size_t count_ = 1;

    std::mutex dispatch_mutex_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable done_cv_;
    RawFn task_ = nullptr;
    void* task_ctx_ = nullptr;
    std::size_t task_begin_ = 0, task_end_ = 0, task_parts_ = 0, next_part_ = 0;
    std::size_t pending_ = 0;
    std::uint64_t generation_ = 0;
    bool shutdown_ = false;
};

Pool& pool() {
    static Pool p;
    return p;
}

// One deal's shared state, on the dispatching thread's stack.
struct Deal {
    std::size_t n = 0;
    DealFn fn = nullptr;
    void* ctx = nullptr;
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;  // the first exception fn threw
};

// The body of every pool part of a deal: draw indices until the counter
// passes n. An exception moves the counter to n, so nothing more is dealt.
void deal_part(void* ctx, std::size_t worker, std::size_t, std::size_t) {
    Deal& deal = *static_cast<Deal*>(ctx);
    for (std::size_t i = deal.next.fetch_add(1, std::memory_order_relaxed);
         i < deal.n; i = deal.next.fetch_add(1, std::memory_order_relaxed)) {
        try {
            deal.fn(deal.ctx, worker, i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(deal.error_mutex);
            if (!deal.error) deal.error = std::current_exception();
            deal.next.store(deal.n, std::memory_order_relaxed);
        }
    }
}

}  // namespace

std::size_t worker_count() { return pool().count(); }

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn) {
    pool().run(begin, end,
               [&fn](std::size_t, std::size_t lo, std::size_t hi) {
                   for (std::size_t i = lo; i < hi; ++i) fn(i);
               });
}

void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn) {
    pool().run(begin, end, [&fn](std::size_t, std::size_t lo, std::size_t hi) {
        fn(lo, hi);
    });
}

void parallel_for_workers(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
    pool().run(begin, end, fn);
}

void parallel_for_workers(std::size_t begin, std::size_t end, WorkerRangeFn fn,
                          void* ctx) {
    pool().run(begin, end, fn, ctx);
}

void parallel_deal(std::size_t n, DealFn fn, void* ctx) {
    if (n == 0) return;
    Deal deal;
    deal.n = n;
    deal.fn = fn;
    deal.ctx = ctx;
    // One part per worker (at most one per index); each part draws indices
    // until the deal runs dry.
    pool().run(0, std::min(n, pool().count()), &deal_part, &deal);
    if (deal.error) std::rethrow_exception(deal.error);
}

void parallel_deal(std::size_t n,
                   const std::function<void(std::size_t, std::size_t)>& fn) {
    using Fn = std::function<void(std::size_t, std::size_t)>;
    parallel_deal(
        n,
        [](void* ctx, std::size_t worker, std::size_t i) {
            (*static_cast<const Fn*>(ctx))(worker, i);
        },
        const_cast<void*>(static_cast<const void*>(&fn)));
}

}  // namespace xs::util
