// A small fixed-size thread pool used by the fork-join layer.
//
// Scheduling here is an execution detail: the cost model (work/depth) is
// computed structurally and is identical whether a loop runs on 1 or N
// host threads. The pool exists so that large simulations exploit the
// host's cores when it has any to spare.
//
// Nested parallel regions execute inline on the worker that encounters
// them (no blocking a worker on another worker), which is deadlock-free
// and keeps the accounting unchanged.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <latch>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace pim::par {

class ThreadPool {
 public:
  /// The process-wide pool. Size: hardware_concurrency - 1 workers (the
  /// calling thread always participates), overridable with
  /// PIM_NUM_THREADS before first use.
  static ThreadPool& instance();

  explicit ThreadPool(u32 workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes = workers + the calling thread.
  u32 lanes() const { return static_cast<u32>(threads_.size()) + 1; }

  /// Runs tasks[0..count) across the pool and the calling thread; returns
  /// when all have completed. Reentrant calls run everything inline, and
  /// so does any batch with count <= grain: waking workers for one chunk
  /// is pure overhead, the caller would claim the whole range anyway.
  ///
  /// `grain` is the number of consecutive indices claimed per fetch_add.
  /// It is a floor, not a schedule: the pool additionally coarsens tiny
  /// chunks (count / (8 * lanes)) so a million-index batch does not pay a
  /// million atomic RMWs. Pass a larger grain for very cheap bodies —
  /// claims stay contiguous, preserving each lane's cache locality.
  ///
  /// Any number of threads may call this concurrently. Each call owns its
  /// batch and its completion latch; callers share only the claim queue.
  /// A batch offers at most chunks - 1 helper tickets. A worker takes a
  /// ticket, drains, and counts down the latch. Once the caller has
  /// drained, it withdraws the tickets no worker took and waits only for
  /// the ticket holders, so a busy pool never delays a finished batch.
  void run_batch(const std::function<void(u32)>& task, u32 count, u32 grain = 1);

  /// True if the current thread is one of this pool's workers.
  static bool on_worker();

 private:
  struct Batch {
    Batch(const std::function<void(u32)>& t, u32 n, u32 g, u32 helpers)
        : task(&t), count(n), grain(g), tickets(helpers), helpers_done(helpers) {}

    const std::function<void(u32)>* task;
    u32 count;
    u32 grain;                // indices claimed per fetch_add
    std::atomic<u32> next{0};
    u32 tickets;              // helper tickets not yet taken; guarded by mu_
    std::latch helpers_done;  // one count per ticket, taken or withdrawn
  };

  /// Claims [base, base+grain) ranges off `b.next` until the batch is
  /// exhausted. Shared by workers and the calling thread.
  static void drain_batch(Batch& b);

  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_work_;
  std::deque<Batch*> queue_;  // batches with tickets left; guarded by mu_
  bool stop_ = false;         // guarded by mu_
  std::vector<std::thread> threads_;
};

}  // namespace pim::par
