#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

namespace pim::par {
namespace {

thread_local bool tls_on_worker = false;

u32 default_workers() {
  if (const char* env = std::getenv("PIM_NUM_THREADS")) {
    const long requested = std::strtol(env, nullptr, 10);
    if (requested >= 1) return static_cast<u32>(requested - 1);
  }
  const u32 hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 0;
}

}  // namespace

ThreadPool& ThreadPool::instance() {
  static ThreadPool pool{default_workers()};
  return pool;
}

ThreadPool::ThreadPool(u32 workers) {
  threads_.reserve(workers);
  for (u32 i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::on_worker() { return tls_on_worker; }

void ThreadPool::drain_batch(Batch& b) {
  const u32 grain = b.grain;
  for (u32 base = b.next.fetch_add(grain); base < b.count; base = b.next.fetch_add(grain)) {
    const u32 end = b.count - base < grain ? b.count : base + grain;
    for (u32 i = base; i < end; ++i) (*b.task)(i);
  }
}

void ThreadPool::run_batch(const std::function<void(u32)>& task, u32 count, u32 grain) {
  if (count == 0) return;
  if (grain == 0) grain = 1;
  // Reentrant (nested) regions, pools with no workers, and batches that
  // fit in a single chunk run inline — no wake-up, no handoff.
  if (threads_.empty() || on_worker() || count <= grain) {
    for (u32 i = 0; i < count; ++i) task(i);
    return;
  }

  // Coarsen tiny chunks: cap the total number of claims at ~8 per lane so
  // huge batches of cheap bodies are not serialized on the claim counter.
  grain = std::max(grain, count / (8 * lanes()));
  const u32 chunks = count / grain + (count % grain != 0);
  const u32 helpers = std::min(static_cast<u32>(threads_.size()), chunks - 1);
  Batch batch(task, count, grain, helpers);
  {
    std::lock_guard lock(mu_);
    queue_.push_back(&batch);
  }
  if (helpers == threads_.size()) {
    cv_work_.notify_all();
  } else {
    for (u32 i = 0; i < helpers; ++i) cv_work_.notify_one();
  }

  // The calling thread participates. Whatever happens in it, `batch` (a
  // stack object) must outlive every worker holding a ticket to it.
  std::exception_ptr failure;
  try {
    drain_batch(batch);
  } catch (...) {
    failure = std::current_exception();
  }
  u32 withdrawn = 0;
  {
    std::lock_guard lock(mu_);
    if (batch.tickets > 0) {
      withdrawn = batch.tickets;
      batch.tickets = 0;
      queue_.erase(std::find(queue_.begin(), queue_.end(), &batch));
    }
  }
  if (withdrawn > 0) batch.helpers_done.count_down(withdrawn);
  batch.helpers_done.wait();
  if (failure) std::rethrow_exception(failure);
}

void ThreadPool::worker_loop() {
  tls_on_worker = true;
  while (true) {
    Batch* batch = nullptr;
    {
      std::unique_lock lock(mu_);
      cv_work_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      batch = queue_.front();
      if (--batch->tickets == 0) queue_.pop_front();
    }
    drain_batch(*batch);
    // Last touch of `batch`: the caller may return as soon as this lands.
    batch->helpers_done.count_down();
  }
}

}  // namespace pim::par
