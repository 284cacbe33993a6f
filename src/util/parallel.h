// The process-wide worker pool: one persistent thread per hardware thread,
// woken per dispatch. Two ways to hand it work:
//   * parallel_for*: split [begin, end) into one contiguous chunk per
//     worker. For uniform items (GEMM panels, conv tiles, batch rows),
//     where a static split costs nothing and keeps each chunk's memory
//     contiguous.
//   * parallel_deal: hand out indices one at a time from a shared counter.
//     For uneven or few items (crossbar tiles of several layers,
//     per-layer plans, per-layer energy), where a static split leaves
//     threads idle behind the one that drew the expensive chunk.
// Nested dispatches (from inside a chunk or a dealt item) run inline on the
// calling thread as slot 0.
#pragma once

#include <cstddef>
#include <functional>

namespace xs::util {

// Number of worker threads the pool was built with (>= 1).
std::size_t worker_count();

// Invoke fn(i) for every i in [begin, end). Blocks until complete.
// fn must be safe to call concurrently for distinct i.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn);

// Chunked variant: fn(chunk_begin, chunk_end) over a partition of the range.
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn);

// Chunked variant that also passes a worker slot index in [0, worker_count())
// so callers can maintain per-worker scratch state (e.g. one solver
// workspace per slot) without locking. Slots are unique per concurrently-
// executing chunk (sequential reuse is possible, concurrent reuse is not):
// top-level dispatches from distinct threads are serialized by the pool,
// and nested dispatches from inside a chunk run inline on the calling
// chunk's thread, reporting slot 0 — so per-slot state shared between a
// caller and its own nested dispatch would collide on slot 0; nested
// callbacks must use their own state.
void parallel_for_workers(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t worker, std::size_t chunk_begin,
                             std::size_t chunk_end)>& fn);

// Allocation-free dispatch: a plain function pointer plus an opaque context,
// so repeated dispatches construct no std::function and perform no heap
// allocation. This is the primitive the inference engine's steady-state
// batch loop uses (DESIGN.md §6); the std::function overloads above wrap it.
using WorkerRangeFn = void (*)(void* ctx, std::size_t worker,
                               std::size_t chunk_begin, std::size_t chunk_end);
void parallel_for_workers(std::size_t begin, std::size_t end, WorkerRangeFn fn,
                          void* ctx);

// Dynamic deal: fn(ctx, worker, i) runs once for every i in [0, n). Each
// pool worker draws the next undealt index from a shared atomic counter
// until none are left, so a worker that drew cheap items draws more. Which
// worker runs which index varies from run to run; callers that need
// repeatable results write per-index slots and fold them in index order.
// `worker` is a slot in [0, worker_count()) with the same uniqueness rule as
// parallel_for_workers. A nested deal runs inline on the calling thread,
// every index on slot 0, in order. The first exception fn throws stops the
// deal (indices already running finish, none are dealt after) and is
// rethrown on the calling thread. The raw overload allocates nothing.
using DealFn = void (*)(void* ctx, std::size_t worker, std::size_t index);
void parallel_deal(std::size_t n, DealFn fn, void* ctx);
void parallel_deal(std::size_t n,
                   const std::function<void(std::size_t worker,
                                            std::size_t index)>& fn);

}  // namespace xs::util
