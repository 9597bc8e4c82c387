// Tests for the CPU-side runtime: thread pool, fork-join, and the
// work/depth cost model's accounting rules.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "parallel/cost_model.hpp"
#include "parallel/fork_join.hpp"
#include "parallel/thread_pool.hpp"

namespace pim::par {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  const std::function<void(u32)> task = [&](u32 i) { hits[i].fetch_add(1); };
  pool.run_batch(task, 100);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManyConsecutiveBatches) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    const std::function<void(u32)> task = [&](u32 i) { sum.fetch_add(static_cast<int>(i)); };
    pool.run_batch(task, 10);
    EXPECT_EQ(sum.load(), 45);
  }
}

TEST(ThreadPool, ZeroTasksIsANoop) {
  ThreadPool pool(2);
  const std::function<void(u32)> task = [](u32) { FAIL(); };
  pool.run_batch(task, 0);
}

// K external threads call run_batch in a tight loop on one pool. Every
// call must return once its own tasks ran, however the calls interleave.
// A pool whose callers share a batch slot or a completion signal loses a
// wakeup here and hangs until the ctest timeout. Threads stay below 16:
// at most 7 workers + 4 callers + the test thread.
class ThreadPoolCallers : public ::testing::TestWithParam<u32> {};

TEST_P(ThreadPoolCallers, ConcurrentRunBatchNeverHangs) {
  ThreadPool pool(GetParam());
  constexpr u32 kCallers = 4;
  constexpr u32 kBatches = 20'000;
  std::atomic<u32> wrong{0};
  std::vector<std::thread> callers;
  for (u32 c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (u32 b = 0; b < kBatches; ++b) {
        const u32 count = 2 + (b * kCallers + c) % 31;
        std::atomic<u32> sum{0};
        const std::function<void(u32)> task = [&](u32 i) {
          // Enough work per index that workers join the batch.
          volatile u32 spin = 0;
          for (u32 k = 0; k < 1000; ++k) spin = spin + k;
          sum.fetch_add(i + 1, std::memory_order_relaxed);
        };
        pool.run_batch(task, count);
        if (sum.load(std::memory_order_relaxed) != count * (count + 1) / 2) wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(wrong.load(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Workers, ThreadPoolCallers, ::testing::Values(1u, 3u, 7u));

TEST(ThreadPool, CallerExceptionWaitsForWorkersThenPropagates) {
  ThreadPool pool(1);
  // The caller throws only once the worker is inside the batch, and the
  // worker cannot leave it before the caller has thrown: the caller's
  // exception always unwinds while the worker holds a ticket to its
  // stack batch.
  std::atomic<bool> worker_in{false};
  std::atomic<bool> caller_threw{false};
  const std::function<void(u32)> task = [&](u32) {
    if (ThreadPool::on_worker()) {
      worker_in.store(true);
      while (!caller_threw.load()) std::this_thread::yield();
      return;
    }
    while (!worker_in.load()) std::this_thread::yield();
    caller_threw.store(true);
    throw std::runtime_error("task failed");
  };
  EXPECT_THROW(pool.run_batch(task, 64), std::runtime_error);

  std::atomic<int> sum{0};
  const std::function<void(u32)> add = [&](u32 i) { sum.fetch_add(static_cast<int>(i)); };
  pool.run_batch(add, 10);
  EXPECT_EQ(sum.load(), 45);
}

TEST(ForkJoin, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](u64 i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ForkJoin, WorkIsSumDepthIsLogPlusMax) {
  CostCounters cost;
  {
    CostScope scope(cost);
    parallel_for(64, [&](u64) { charge(3); });
  }
  // work = 64 iterations * (3 charged + 1 overhead); depth = log2(64) + 3.
  EXPECT_EQ(cost.work, 64u * 4);
  EXPECT_EQ(cost.depth, 6u + 3);
}

TEST(ForkJoin, DepthTakesTheMaxIteration) {
  CostCounters cost;
  {
    CostScope scope(cost);
    parallel_for(100, [&](u64 i) { charge(i == 42 ? 50 : 1); });
  }
  EXPECT_EQ(cost.depth, ceil_log2(100) + 50);
  EXPECT_EQ(cost.work, 100u + 99 + 50);
}

TEST(ForkJoin, NestedParallelForComposes) {
  CostCounters cost;
  {
    CostScope scope(cost);
    parallel_for(4, [&](u64) {
      parallel_for(4, [&](u64) { charge(1); });
    });
  }
  // inner: work 4*(1+1)=8, depth 2+1=3; outer: work 4*(8+1)=36, depth 2+3.
  EXPECT_EQ(cost.work, 36u);
  EXPECT_EQ(cost.depth, 5u);
}

TEST(ForkJoin, ParallelInvokeSumsWorkMaxesDepth) {
  CostCounters cost;
  {
    CostScope scope(cost);
    parallel_invoke([] { charge(10); }, [] { charge(3); }, [] { charge(7); });
  }
  EXPECT_EQ(cost.work, 20u);
  EXPECT_EQ(cost.depth, 11u);  // 1 + max(10, 3, 7)
}

TEST(ForkJoin, AccountingIndependentOfThreadCount) {
  // The same loop must report identical work/depth regardless of the
  // process pool; parallel_for(n=1) and big n paths both checked.
  CostCounters one;
  {
    CostScope scope(one);
    parallel_for(1, [&](u64) { charge(5); });
  }
  EXPECT_EQ(one.work, 6u);
  EXPECT_EQ(one.depth, 5u);

  CostCounters big1, big2;
  {
    CostScope scope(big1);
    parallel_for(5000, [&](u64) { charge(2); }, 1);
  }
  {
    CostScope scope(big2);
    parallel_for(5000, [&](u64) { charge(2); }, 512);
  }
  EXPECT_EQ(big1.work, big2.work);
  EXPECT_EQ(big1.depth, big2.depth);
}

TEST(CostModel, ChargedRegionUsesAnalyticDepth) {
  CostCounters cost;
  {
    CostScope scope(cost);
    const int result = charged_region(7, [&] {
      charge(1000);  // sequential inside, but primitive depth is analytic
      return 42;
    });
    EXPECT_EQ(result, 42);
  }
  EXPECT_EQ(cost.work, 1000u);
  EXPECT_EQ(cost.depth, 7u);
}

TEST(CostModel, ScopesNestAndRestore) {
  CostCounters outer;
  {
    CostScope scope(outer);
    charge(1);
    {
      CostCounters inner;
      CostScope inner_scope(inner);
      charge(100);
      EXPECT_EQ(inner.work, 100u);
    }
    charge(1);
  }
  EXPECT_EQ(outer.work, 2u);  // inner charges did not leak
}

TEST(CostModel, ChargesOutsideScopeDoNotCrash) {
  charge(3);  // lands in the thread-local sink
  charge_work(2);
  charge_depth(1);
}

}  // namespace
}  // namespace pim::par
