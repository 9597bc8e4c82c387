#include "serve/serving_frontend.hpp"

#include <algorithm>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"

namespace pim::serve {

namespace {

/// Dedups one op class into a unique sorted payload vector and points
/// every PendingOp::position at its payload slot. First occurrence (by
/// ticket — the ops arrive in ticket order) wins for write classes,
/// which is exactly the store's batch contract; for read classes the
/// winner is irrelevant since every waiter fans out of the same result.
/// Returns the number of coalesced duplicates.
template <typename Op, typename Payload, typename MakePayload,
          typename KeyOfPayload>
u64 stage_unique(std::vector<Op>& ops, std::vector<Payload>& uniq,
                 MakePayload&& make, KeyOfPayload&& key_of) {
  u64 coalesced = 0;
  std::unordered_map<Key, u64> first_pos;
  first_pos.reserve(ops.size() * 2);
  for (auto& op : ops) {
    auto [it, inserted] = first_pos.try_emplace(op.key, uniq.size());
    if (inserted) {
      uniq.push_back(make(op));
    } else {
      ++coalesced;
    }
    op.position = it->second;
  }
  // Sort the unique payloads by key and remap every op's position.
  std::vector<u64> perm(uniq.size());
  std::iota(perm.begin(), perm.end(), u64{0});
  std::sort(perm.begin(), perm.end(), [&](u64 a, u64 b) {
    return key_of(uniq[a]) < key_of(uniq[b]);
  });
  std::vector<u64> rank(uniq.size());
  std::vector<Payload> sorted;
  sorted.reserve(uniq.size());
  for (u64 i = 0; i < perm.size(); ++i) {
    rank[perm[i]] = i;
    sorted.push_back(std::move(uniq[perm[i]]));
  }
  uniq = std::move(sorted);
  for (auto& op : ops) op.position = rank[op.position];
  return coalesced;
}

u64 saturating_sub(u64 a, u64 b) { return a > b ? a - b : 0; }

}  // namespace

u64 ServingFrontEnd::Accum::oldest_submit_clock() const {
  u64 oldest_ticket = ~u64{0};
  u64 oldest_clock = ~u64{0};
  auto consider = [&](const auto& dq) {
    if (!dq.empty() && dq.front().ticket < oldest_ticket) {
      oldest_ticket = dq.front().ticket;
      oldest_clock = dq.front().submit_clock;
    }
  };
  consider(upserts);
  consider(erases);
  consider(gets);
  consider(succs);
  return oldest_clock;
}

u64 ServingFrontEnd::Accum::oldest_ticket() const {
  u64 oldest = ~u64{0};
  auto consider = [&](const auto& dq) {
    if (!dq.empty()) oldest = std::min(oldest, dq.front().ticket);
  };
  consider(upserts);
  consider(erases);
  consider(gets);
  consider(succs);
  return oldest;
}

ServingFrontEnd::ServingFrontEnd(shard::ShardedPimStore& store,
                                 FrontEndOptions opts)
    : store_(store),
      opts_(opts),
      store_mu_(opts.store_mu != nullptr ? opts.store_mu : &own_store_mu_) {
  PIM_CHECK(opts_.max_batch > 0, "FrontEndOptions::max_batch must be >= 1");
  {
    // Baseline the round clock: fleet rounds spent building the store
    // before serving started are not serving latency.
    std::lock_guard lock(*store_mu_);
    u64 now = 0;
    for (u32 s = 0; s < store_.slots(); ++s) {
      if (const sim::Machine* m = store_.shard_machine(s)) now += m->rounds();
    }
    fleet_rounds_seen_ = now;
  }
  if (opts_.pipeline) executor_ = std::thread([this] { executor_loop(); });
  batcher_ = std::thread([this] { batcher_loop(); });
}

ServingFrontEnd::~ServingFrontEnd() { stop(); }

// ---------------- client API ----------------

template <typename Reply>
void ServingFrontEnd::reject(std::promise<Reply>& p, Status status) {
  Reply reply;
  reply.status = std::move(status);
  p.set_value(std::move(reply));
}

template <typename Reply>
std::future<Reply> ServingFrontEnd::enqueue(SubmissionQueue<Reply>& queue,
                                            Key key, Value value) {
  PendingOp<Reply> op;
  op.key = key;
  op.value = value;
  std::future<Reply> fut = op.promise.get_future();

  if (!accepting_.load(std::memory_order_acquire)) {
    stat_rejected_.fetch_add(1, std::memory_order_relaxed);
    reject(op.promise,
           Status(StatusCode::kUnavailable, "serving front end is stopped"));
    return fut;
  }
  if (opts_.max_queue_ops > 0 &&
      pending_ops_.load(std::memory_order_relaxed) >= opts_.max_queue_ops) {
    stat_rejected_.fetch_add(1, std::memory_order_relaxed);
    reject(op.promise, Status(StatusCode::kResourceExhausted,
                              "serving queue is full (max_queue_ops)"));
    return fut;
  }

  {
    std::lock_guard lock(queue.mu);
    if (queue.closed) {
      // stop() won the race: the batcher has already done (or is doing)
      // its final drain of this queue — completing here keeps the
      // "no op is ever lost" invariant without reopening anything.
      stat_rejected_.fetch_add(1, std::memory_order_relaxed);
      reject(op.promise,
             Status(StatusCode::kUnavailable, "serving front end is stopped"));
      return fut;
    }
    // Ticket assignment under the queue mutex keeps each queue in ticket
    // order (the atomic alone orders tickets, not the pushes).
    op.ticket = ticket_.fetch_add(1, std::memory_order_relaxed);
    op.submit_clock = clock_.load(std::memory_order_relaxed);
    pending_ops_.fetch_add(1, std::memory_order_relaxed);
    queued_ops_.fetch_add(1, std::memory_order_release);
    stat_accepted_.fetch_add(1, std::memory_order_relaxed);
    queue.q.push_back(std::move(op));
  }
  // Empty critical section pairs with the batcher's predicate check so
  // the notify can't slip between its test and its wait.
  { std::lock_guard lock(coord_mu_); }
  batcher_cv_.notify_one();
  return fut;
}

std::future<GetReply> ServingFrontEnd::submit_get(Key key) {
  return enqueue(get_q_, key, /*value=*/0);
}
std::future<UpsertReply> ServingFrontEnd::submit_upsert(Key key, Value value) {
  return enqueue(upsert_q_, key, value);
}
std::future<EraseReply> ServingFrontEnd::submit_erase(Key key) {
  return enqueue(erase_q_, key, /*value=*/0);
}
std::future<SuccessorReply> ServingFrontEnd::submit_successor(Key key) {
  return enqueue(succ_q_, key, /*value=*/0);
}

// ---------------- lifecycle ----------------

void ServingFrontEnd::drain() {
  std::unique_lock lock(coord_mu_);
  drained_cv_.wait(lock, [&] {
    return pending_ops_.load(std::memory_order_acquire) == 0;
  });
}

void ServingFrontEnd::stop() {
  std::lock_guard stop_lock(lifecycle_mu_);
  accepting_.store(false, std::memory_order_release);
  {
    std::lock_guard lock(coord_mu_);
    stop_requested_ = true;
  }
  batcher_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  {
    std::lock_guard lock(coord_mu_);
    exec_stop_ = true;  // the batcher sets it too; keep stop() robust
  }
  exec_cv_.notify_all();
  if (executor_.joinable()) executor_.join();
}

ServingFrontEnd::Stats ServingFrontEnd::stats() const {
  Stats s;
  s.accepted = stat_accepted_.load(std::memory_order_relaxed);
  s.completed = stat_completed_.load(std::memory_order_relaxed);
  s.rejected = stat_rejected_.load(std::memory_order_relaxed);
  s.windows = stat_windows_.load(std::memory_order_relaxed);
  s.coalesced_reads = stat_coalesced_reads_.load(std::memory_order_relaxed);
  s.coalesced_writes = stat_coalesced_writes_.load(std::memory_order_relaxed);
  s.flush_full = stat_flush_full_.load(std::memory_order_relaxed);
  s.flush_idle = stat_flush_idle_.load(std::memory_order_relaxed);
  s.flush_delay = stat_flush_delay_.load(std::memory_order_relaxed);
  s.max_window_ops = stat_max_window_.load(std::memory_order_relaxed);
  return s;
}

// ---------------- batcher ----------------

void ServingFrontEnd::harvest(Accum& accum) {
  u64 moved = 0;
  auto drain_queue = [&moved](auto& queue, auto& dq) {
    std::vector<std::decay_t<decltype(queue.q[0])>> taken;
    {
      std::lock_guard lock(queue.mu);
      taken.swap(queue.q);
    }
    moved += taken.size();
    for (auto& op : taken) dq.push_back(std::move(op));
  };
  drain_queue(upsert_q_, accum.upserts);
  drain_queue(erase_q_, accum.erases);
  drain_queue(get_q_, accum.gets);
  drain_queue(succ_q_, accum.succs);
  if (moved > 0) queued_ops_.fetch_sub(moved, std::memory_order_release);
}

void ServingFrontEnd::close_queues(Accum& accum) {
  u64 moved = 0;
  auto close_one = [&moved](auto& queue, auto& dq) {
    std::vector<std::decay_t<decltype(queue.q[0])>> taken;
    {
      std::lock_guard lock(queue.mu);
      queue.closed = true;
      taken.swap(queue.q);
    }
    moved += taken.size();
    for (auto& op : taken) dq.push_back(std::move(op));
  };
  close_one(upsert_q_, accum.upserts);
  close_one(erase_q_, accum.erases);
  close_one(get_q_, accum.gets);
  close_one(succ_q_, accum.succs);
  if (moved > 0) queued_ops_.fetch_sub(moved, std::memory_order_release);
}

std::unique_ptr<ServingFrontEnd::Window> ServingFrontEnd::stage(Accum& accum) {
  auto w = std::make_unique<Window>();
  w->seq = next_seq_++;

  // Move the oldest max_batch ops (global ticket order across classes)
  // into the window; the rest stay queued for the next one.
  u64 budget = opts_.max_batch;
  while (budget > 0 && !accum.empty()) {
    int cls = -1;
    u64 best = ~u64{0};
    auto consider = [&](const auto& dq, int id) {
      if (!dq.empty() && dq.front().ticket < best) {
        best = dq.front().ticket;
        cls = id;
      }
    };
    consider(accum.upserts, 0);
    consider(accum.erases, 1);
    consider(accum.gets, 2);
    consider(accum.succs, 3);
    switch (cls) {
      case 0:
        w->upserts.push_back(std::move(accum.upserts.front()));
        accum.upserts.pop_front();
        break;
      case 1:
        w->erases.push_back(std::move(accum.erases.front()));
        accum.erases.pop_front();
        break;
      case 2:
        w->gets.push_back(std::move(accum.gets.front()));
        accum.gets.pop_front();
        break;
      default:
        w->succs.push_back(std::move(accum.succs.front()));
        accum.succs.pop_front();
        break;
    }
    --budget;
  }

  // Dedup + sort each class; build the op -> batch-position maps.
  u64 write_dups = 0;
  u64 read_dups = 0;
  write_dups += stage_unique(
      w->upserts, w->upsert_kvs,
      [](const PendingOp<UpsertReply>& op) {
        return std::pair<Key, Value>{op.key, op.value};
      },
      [](const std::pair<Key, Value>& kv) { return kv.first; });
  write_dups += stage_unique(
      w->erases, w->del_keys,
      [](const PendingOp<EraseReply>& op) { return op.key; },
      [](Key k) { return k; });
  read_dups += stage_unique(
      w->gets, w->get_keys,
      [](const PendingOp<GetReply>& op) { return op.key; },
      [](Key k) { return k; });
  read_dups += stage_unique(
      w->succs, w->succ_keys,
      [](const PendingOp<SuccessorReply>& op) { return op.key; },
      [](Key k) { return k; });

  stat_windows_.fetch_add(1, std::memory_order_relaxed);
  stat_coalesced_writes_.fetch_add(write_dups, std::memory_order_relaxed);
  stat_coalesced_reads_.fetch_add(read_dups, std::memory_order_relaxed);
  u64 ops = w->ops();
  u64 prev = stat_max_window_.load(std::memory_order_relaxed);
  while (ops > prev &&
         !stat_max_window_.compare_exchange_weak(prev, ops,
                                                 std::memory_order_relaxed)) {
  }
  return w;
}

void ServingFrontEnd::batcher_loop() {
  Accum accum;
  std::unique_lock lock(coord_mu_);
  for (;;) {
    batcher_cv_.wait(lock, [&] {
      // Leftover accumulated ops are wake-worthy exactly when the idle-
      // flush rule would fire for them (a flush can strand accum > max_
      // batch ops with no in-flight window to wake us on completion —
      // the unpipelined loop in particular has no other wake source).
      // While a window IS in flight, its completion re-evaluates this.
      const bool idle_flushable =
          !accum.empty() && !executing_ && exec_in_ == nullptr;
      return stop_requested_ || !exec_done_.empty() || idle_flushable ||
             queued_ops_.load(std::memory_order_acquire) > 0;
    });

    // 1. Distribute completed windows first — frees clients fastest and
    //    overlaps the executor's current batch.
    while (!exec_done_.empty()) {
      std::unique_ptr<Window> done = std::move(exec_done_.front());
      exec_done_.pop_front();
      lock.unlock();
      distribute(*done);
      lock.lock();
    }

    // 2. Harvest arrivals into the group-commit accumulator.
    lock.unlock();
    harvest(accum);
    lock.lock();

    if (accum.empty()) {
      if (stop_requested_ && exec_done_.empty() && !executing_ &&
          exec_in_ == nullptr) {
        // Close the queues so no submission can slip in after the final
        // drain, then serve whatever that drain surfaced.
        lock.unlock();
        close_queues(accum);
        while (!accum.empty()) {
          std::unique_ptr<Window> w = stage(accum);
          execute(*w);
          distribute(*w);
        }
        lock.lock();
        PIM_CHECK(pending_ops_.load(std::memory_order_acquire) == 0,
                  "serving shutdown left an op unreplied");
        exec_stop_ = true;
        exec_cv_.notify_all();
        return;
      }
      continue;
    }

    // 3. Group-commit flush decision.
    const bool exec_idle = !executing_ && exec_in_ == nullptr;
    const u64 total = accum.total();
    const u64 waited = saturating_sub(clock_.load(std::memory_order_relaxed),
                                      accum.oldest_submit_clock());
    const bool full = total >= opts_.max_batch;
    const bool delayed = waited >= opts_.max_delay_rounds;
    if (!(stop_requested_ || full || exec_idle || delayed)) continue;
    if (full) {
      stat_flush_full_.fetch_add(1, std::memory_order_relaxed);
    } else if (delayed) {
      stat_flush_delay_.fetch_add(1, std::memory_order_relaxed);
    } else {
      stat_flush_idle_.fetch_add(1, std::memory_order_relaxed);
    }

    // 4. Stage outside the lock — this is the CPU-side work that
    //    overlaps the executor's shard rounds.
    lock.unlock();
    std::unique_ptr<Window> w = stage(accum);
    if (opts_.pipeline) {
      lock.lock();
      batcher_cv_.wait(lock, [&] { return exec_in_ == nullptr; });
      exec_in_ = std::move(w);
      exec_cv_.notify_one();
    } else {
      execute(*w);
      distribute(*w);
      lock.lock();
    }
  }
}

void ServingFrontEnd::executor_loop() {
  std::unique_lock lock(coord_mu_);
  for (;;) {
    exec_cv_.wait(lock, [&] { return exec_stop_ || exec_in_ != nullptr; });
    if (exec_in_ == nullptr) return;  // exec_stop_ with nothing staged
    std::unique_ptr<Window> w = std::move(exec_in_);
    executing_ = true;
    batcher_cv_.notify_one();  // handoff slot is free again
    lock.unlock();
    execute(*w);
    lock.lock();
    exec_done_.push_back(std::move(w));
    executing_ = false;
    batcher_cv_.notify_one();
  }
}

// ---------------- execution ----------------

void ServingFrontEnd::sample_clock_locked() {
  u64 now = 0;
  for (u32 s = 0; s < store_.slots(); ++s) {
    if (const sim::Machine* m = store_.shard_machine(s)) now += m->rounds();
  }
  // Saturating delta: kill_shard destroys a Machine and its rounds with
  // it, so the raw sum can shrink. The clock never goes backwards; it
  // undercounts slightly across a kill, which only shrinks latencies.
  if (now > fleet_rounds_seen_) {
    clock_.fetch_add(now - fleet_rounds_seen_, std::memory_order_relaxed);
    fleet_rounds_seen_ = now;
  } else {
    fleet_rounds_seen_ = now;
  }
}

void ServingFrontEnd::execute(Window& w) {
  std::lock_guard lock(*store_mu_);
  sample_clock_locked();  // credit policy-thread rounds to queueing time
  // Fixed serialization order within the window: writes first (upserts,
  // then deletes), then reads — reads in window k observe window k's
  // acked writes. A class whose batch throws as a whole (admission
  // control, drain-stuck escapes) fails all and only its own positions.
  if (!w.upsert_kvs.empty()) {
    try {
      w.upsert_res = store_.batch_upsert(w.upsert_kvs);
    } catch (const StatusError& e) {
      w.upsert_res.assign(w.upsert_kvs.size(), e.status());
    }
  }
  if (!w.del_keys.empty()) {
    try {
      w.del_res = store_.batch_delete(w.del_keys);
    } catch (const StatusError& e) {
      w.del_res.assign(w.del_keys.size(),
                       shard::ShardedPimStore::FlagResult{e.status(), false});
    }
  }
  if (!w.get_keys.empty()) {
    try {
      w.get_res = store_.batch_get(w.get_keys);
    } catch (const StatusError& e) {
      w.get_res.assign(w.get_keys.size(),
                       shard::ShardedPimStore::GetResult{e.status(), false, 0});
    }
  }
  if (!w.succ_keys.empty()) {
    try {
      w.succ_res = store_.batch_successor(w.succ_keys);
    } catch (const StatusError& e) {
      w.succ_res.assign(w.succ_keys.size(),
                        shard::ShardedPimStore::NearResult{e.status(), false, 0});
    }
  }
  sample_clock_locked();
  w.clock_after = clock_.load(std::memory_order_relaxed);
}

void ServingFrontEnd::distribute(Window& w) {
  const u64 done = w.ops();
  // Counted before any reply is set: a client that has its reply must
  // see it in stats().completed.
  stat_completed_.fetch_add(done, std::memory_order_relaxed);
  auto latency = [&](u64 submit_clock) {
    return saturating_sub(w.clock_after, submit_clock);
  };
  for (auto& op : w.upserts) {
    UpsertReply r;
    r.status = w.upsert_res[op.position];
    r.batch_seq = w.seq;
    r.latency_rounds = latency(op.submit_clock);
    op.promise.set_value(std::move(r));
  }
  for (auto& op : w.erases) {
    const auto& res = w.del_res[op.position];
    EraseReply r;
    r.status = res.status;
    r.erased = res.found;
    r.batch_seq = w.seq;
    r.latency_rounds = latency(op.submit_clock);
    op.promise.set_value(std::move(r));
  }
  for (auto& op : w.gets) {
    const auto& res = w.get_res[op.position];
    GetReply r;
    r.status = res.status;
    r.found = res.found;
    r.value = res.value;
    r.batch_seq = w.seq;
    r.latency_rounds = latency(op.submit_clock);
    op.promise.set_value(std::move(r));
  }
  for (auto& op : w.succs) {
    const auto& res = w.succ_res[op.position];
    SuccessorReply r;
    r.status = res.status;
    r.found = res.found;
    r.key = res.key;
    r.batch_seq = w.seq;
    r.latency_rounds = latency(op.submit_clock);
    op.promise.set_value(std::move(r));
  }
  pending_ops_.fetch_sub(done, std::memory_order_release);
  { std::lock_guard lock(coord_mu_); }
  drained_cv_.notify_all();
}

}  // namespace pim::serve
