#include "util/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace {

// Every heap allocation in this test binary, for the allocation-free deal.
std::atomic<long> g_alloc_count{0};

}  // namespace

void* operator new(std::size_t size) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size)) return p;
    throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xs::util {
namespace {

TEST(Parallel, CoversRangeExactlyOnce) {
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoop) {
    std::atomic<int> count{0};
    parallel_for(5, 5, [&](std::size_t) { count++; });
    EXPECT_EQ(count.load(), 0);
}

TEST(Parallel, SingleElement) {
    std::atomic<int> count{0};
    parallel_for(3, 4, [&](std::size_t i) {
        EXPECT_EQ(i, 3u);
        count++;
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(Parallel, ChunksPartitionRange) {
    std::vector<std::atomic<int>> hits(777);
    parallel_for_chunks(0, 777, [&](std::size_t lo, std::size_t hi) {
        EXPECT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, NestedCallsRunInline) {
    std::atomic<int> total{0};
    parallel_for(0, 4, [&](std::size_t) {
        // A nested dispatch must not deadlock; it runs inline.
        parallel_for(0, 10, [&](std::size_t) { total++; });
    });
    EXPECT_EQ(total.load(), 40);
}

TEST(Parallel, RepeatedDispatches) {
    for (int round = 0; round < 50; ++round) {
        std::atomic<long> sum{0};
        parallel_for(0, 100, [&](std::size_t i) {
            sum += static_cast<long>(i);
        });
        EXPECT_EQ(sum.load(), 4950);
    }
}

TEST(Parallel, WorkerCountPositive) {
    EXPECT_GE(worker_count(), 1u);
}

TEST(Parallel, WorkersPartitionRangeWithValidSlots) {
    std::vector<std::atomic<int>> hits(512);
    std::atomic<int> bad_slots{0};
    parallel_for_workers(0, 512, [&](std::size_t worker, std::size_t lo,
                                     std::size_t hi) {
        if (worker >= worker_count()) bad_slots++;
        EXPECT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
    });
    EXPECT_EQ(bad_slots.load(), 0);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, WorkerSlotsAreNeverUsedConcurrently) {
    // Per-slot "in use" flags: a second concurrent entry on the same slot
    // would trip the exchange check.
    std::vector<std::atomic<int>> in_use(worker_count());
    std::atomic<int> collisions{0};
    for (int round = 0; round < 20; ++round) {
        parallel_for_workers(0, 64, [&](std::size_t worker, std::size_t lo,
                                        std::size_t hi) {
            if (in_use[worker].exchange(1) != 0) collisions++;
            volatile std::size_t sink = 0;
            for (std::size_t i = lo; i < hi; ++i) sink += i;
            in_use[worker].store(0);
        });
    }
    EXPECT_EQ(collisions.load(), 0);
}

TEST(Parallel, ConcurrentTopLevelDispatchesAreSerialized) {
    // Two application threads dispatching at once must not corrupt the
    // pool's single task slot (dispatches are serialized internally).
    std::vector<std::atomic<int>> hits(2000);
    std::thread t1([&] {
        for (int r = 0; r < 20; ++r)
            parallel_for(0, 1000, [&](std::size_t i) { hits[i]++; });
    });
    std::thread t2([&] {
        for (int r = 0; r < 20; ++r)
            parallel_for(1000, 2000, [&](std::size_t i) { hits[i]++; });
    });
    t1.join();
    t2.join();
    for (const auto& h : hits) EXPECT_EQ(h.load(), 20);
}

TEST(Parallel, LargeRangeSum) {
    const std::size_t n = 100000;
    std::vector<long> partial(n);
    parallel_for(0, n, [&](std::size_t i) { partial[i] = static_cast<long>(i); });
    const long sum = std::accumulate(partial.begin(), partial.end(), 0L);
    EXPECT_EQ(sum, static_cast<long>(n * (n - 1) / 2));
}

TEST(Deal, EveryIndexIsDealtExactlyOnce) {
    for (const std::size_t n : {2u, 3u, 7u, 64u, 1000u}) {
        std::vector<std::atomic<int>> hits(n);
        std::atomic<int> bad_slots{0};
        parallel_deal(n, [&](std::size_t worker, std::size_t i) {
            if (worker >= worker_count()) bad_slots++;
            hits[i]++;
        });
        EXPECT_EQ(bad_slots.load(), 0);
        for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << "n = " << n;
    }
}

TEST(Deal, ZeroAndOneItems) {
    std::atomic<int> calls{0};
    parallel_deal(0, [&](std::size_t, std::size_t) { calls++; });
    EXPECT_EQ(calls.load(), 0);

    std::size_t seen_worker = 99, seen_index = 99;
    parallel_deal(1, [&](std::size_t worker, std::size_t i) {
        calls++;
        seen_worker = worker;
        seen_index = i;
    });
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(seen_worker, 0u);
    EXPECT_EQ(seen_index, 0u);
}

TEST(Deal, NestedDealRunsInlineOnSlotZero) {
    const std::size_t parts = worker_count();
    // Per outer part: the nested deal's indices in call order, and whether
    // each ran on slot 0 on the part's own thread.
    std::vector<std::vector<std::size_t>> order(parts);
    std::vector<std::atomic<int>> off_slot(parts), off_thread(parts);
    parallel_for_workers(0, parts, [&](std::size_t, std::size_t lo,
                                       std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
            const std::thread::id self = std::this_thread::get_id();
            parallel_deal(10, [&](std::size_t worker, std::size_t i) {
                if (worker != 0) off_slot[p]++;
                if (std::this_thread::get_id() != self) off_thread[p]++;
                order[p].push_back(i);
            });
        }
    });
    std::vector<std::size_t> in_order(10);
    std::iota(in_order.begin(), in_order.end(), 0);
    for (std::size_t p = 0; p < parts; ++p) {
        EXPECT_EQ(off_slot[p].load(), 0);
        EXPECT_EQ(off_thread[p].load(), 0);
        EXPECT_EQ(order[p], in_order);
    }
}

TEST(Deal, SlotsAreNeverUsedConcurrently) {
    std::vector<std::atomic<int>> in_use(worker_count());
    std::atomic<int> collisions{0};
    for (int round = 0; round < 20; ++round) {
        parallel_deal(64, [&](std::size_t worker, std::size_t i) {
            if (in_use[worker].exchange(1) != 0) collisions++;
            volatile std::size_t sink = 0;
            for (std::size_t k = 0; k < 1000 + 100 * i; ++k) sink += k;
            in_use[worker].store(0);
        });
    }
    EXPECT_EQ(collisions.load(), 0);
}

TEST(Deal, FirstExceptionStopsTheDealAndIsRethrown) {
    EXPECT_THROW(parallel_deal(1000,
                               [](std::size_t, std::size_t i) {
                                   if (i == 3) throw std::runtime_error("item 3");
                               }),
                 std::runtime_error);
    // The pool stays usable.
    std::atomic<int> after{0};
    parallel_deal(100, [&](std::size_t, std::size_t) { after++; });
    EXPECT_EQ(after.load(), 100);
    // A nested deal runs in index order, so where it stops is exact: the
    // items before the throw run, none after it.
    std::vector<std::atomic<int>> calls(worker_count()), throws(worker_count());
    parallel_for_workers(0, worker_count(), [&](std::size_t, std::size_t lo,
                                                std::size_t hi) {
        for (std::size_t p = lo; p < hi; ++p) {
            try {
                parallel_deal(5, [&](std::size_t, std::size_t i) {
                    calls[p]++;
                    if (i == 2) throw std::runtime_error("nested");
                });
            } catch (const std::runtime_error&) {
                throws[p]++;
            }
        }
    });
    for (std::size_t p = 0; p < worker_count(); ++p) {
        EXPECT_EQ(calls[p].load(), 3);
        EXPECT_EQ(throws[p].load(), 1);
    }
}

struct SumCtx {
    std::atomic<long> sum{0};
};

void add_index(void* ctx, std::size_t, std::size_t i) {
    static_cast<SumCtx*>(ctx)->sum.fetch_add(static_cast<long>(i),
                                             std::memory_order_relaxed);
}

TEST(Deal, RawOverloadAllocatesNothingInSteadyState) {
    SumCtx ctx;
    parallel_deal(100, &add_index, &ctx);  // warm-up: the pool exists
    ctx.sum = 0;
    const long before = g_alloc_count.load();
    for (int round = 0; round < 50; ++round) {
        parallel_deal(100, &add_index, &ctx);
        parallel_deal(1, &add_index, &ctx);
        parallel_deal(0, &add_index, &ctx);
    }
    const long allocations = g_alloc_count.load() - before;
    EXPECT_EQ(allocations, 0);
    EXPECT_EQ(ctx.sum.load(), 50L * 4950);
}

}  // namespace
}  // namespace xs::util
