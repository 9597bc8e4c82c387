// serve_read_mostly and serve_write_quorum — closed-loop clients driving a
// ServingFrontEnd over a ShardedPimStore.
//
// A run is a sequence of epochs. In an epoch every client issues the same
// number of single ops, keeping kInflight of them in flight, then all
// clients join. Between epochs the benchmark checks every reply against
// a std::map reference rebuilt in window order, so the check and its
// memory stay outside the timed part and every run attempts whole epochs.
// Each client writes only its own keys, so the order of same-key writes
// inside a window is the client's own submission order.
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core_replay.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/serving_frontend.hpp"
#include "shard/sharded_store.hpp"
#include "sim/machine.hpp"

namespace perfbench {
namespace {

using pim::Key;
using pim::Value;
using pim::serve::ServingFrontEnd;
using pim::shard::ShardedPimStore;

constexpr Key kDomainLo = 0;
constexpr Key kDomainHi = 1'000'000'000;
// Two clients, the batcher and the executor (which runs the shards
// inline, see build_store): four threads, one per CPU of a 4-CPU host.
constexpr u32 kMaxClients = 2;
constexpr u64 kInflight = 64;              // per client: <= 128 ops in flight
constexpr u64 kOpsPerClientEpoch = 16384;  // 32768 ops per epoch with 2 clients
constexpr u64 kTracedEpochs = 4;
// Peak RSS is read after this many epochs, so it measures a fixed amount
// of work: journals and checkpoints grow with the writes served, and a
// faster program serves more of them in the same time. A run lasts at
// least this many epochs.
constexpr u64 kRssEpochs = 8;
// The first epochs run slower while the allocator and caches warm up;
// they are checked but not timed.
constexpr u64 kWarmupEpochs = 2;

struct Shape {
  u32 groups;
  u32 replication;
  u32 write_quorum;
  bool quorum_reads;
  u64 stored;    // keys present after build
  u64 universe;  // keys the writes draw from; the first `stored` are built
  u32 pct_upsert, pct_erase, pct_get;  // the rest are successors
  bool zipf_reads;
};

// 768 keys per module in both shapes: off the per-module hash-table
// growth threshold, so no growth rehash lands inside the measurement.
constexpr Shape kReadMostly{16, 1, 1, false, 98304, 98304, 10, 0, 80, true};
// Upserts and erases over 1.5x the stored keys keep 2/3 of the universe
// present in expectation (0.4 * (1 - p) = 0.2 * p), so size stays level.
constexpr Shape kWriteQuorum{4, 3, 2, true, 24576, 36864, 40, 20, 30, false};

enum Cls : std::uint8_t { kUpsert, kErase, kGet, kSucc };
const char* const kClsName[] = {"upsert", "erase", "get", "successor"};
const char* const kClientSpan[] = {"client.upsert", "client.erase", "client.get", "client.successor"};

/// One client op and its reply.
struct OpRec {
  Key key = 0;
  Value value = 0;  // upsert payload
  u64 seq = 0;      // batch_seq of the window that served it
  u64 latency_rounds = 0;
  Clock::time_point t0, t1;  // submit, reply received
  Key res_key = 0;           // successor answer
  Value res_value = 0;       // get answer
  bool found = false;        // get/successor found, erase erased
  Cls cls = kGet;
  u32 client = 0;
  u32 idx = 0;  // position in the client's epoch stream
};

struct Client {
  Rng rng;
  std::vector<u64> own;  // universe indices this client writes
  std::vector<OpRec> recs;
  u64 failed = 0;
  std::string first_failure;
};

/// One epoch's throughput and client-latency percentiles.
struct Epoch {
  double ops_per_s = 0;
  double p50_us = 0, p90_us = 0;
  double p99_rounds = 0;
};

class ServeBench {
 public:
  ServeBench(const RunArgs& args, const Shape& shape)
      : args_(args), shape_(shape), zipf_(shape.stored, 0.99) {
    Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 0x5E4BEull);
    universe_ = distinct_sorted_keys(rng, shape.universe, kDomainLo, kDomainHi);
    // A random `stored` subset of the universe is present at build.
    std::vector<u64> order(shape.universe);
    for (u64 i = 0; i < order.size(); ++i) order[i] = i;
    for (u64 i = order.size() - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);
    order.resize(shape.stored);
    std::sort(order.begin(), order.end());
    stored_idx_ = order;
    for (const u64 i : order) ref_.emplace(universe_[i], rng());

    const u32 hw = std::max(1u, std::thread::hardware_concurrency());
    clients_.reserve(std::min(kMaxClients, hw));
    for (u32 c = 0; c < std::min(kMaxClients, hw); ++c) {
      clients_.push_back(Client{Rng(args.seed * 0xD1B54A32D192ED03ull + c + 1), {}, {}, 0, {}});
    }
    for (u64 i = 0; i < shape.universe; ++i) clients_[i % clients_.size()].own.push_back(i);

    store_ = build_store(ref_);
    fe_ = std::make_unique<ServingFrontEnd>(*store_, pim::serve::FrontEndOptions{});
  }

  ~ServeBench() {
    if (fe_) fe_->stop();
  }

  u64 attempted() const { return attempted_; }

  /// Runs whole epochs until `seconds` have passed and at least
  /// kRssEpochs have run; returns them without the first kWarmupEpochs.
  std::vector<Epoch> run_for(double seconds) {
    std::vector<Epoch> epochs;
    const auto t0 = Clock::now();
    u64 n = 0;
    do {
      const Epoch e = run_epoch(nullptr);
      if (++n > kWarmupEpochs) epochs.push_back(e);
      if (n == kRssEpochs) rss_mb_ = peak_rss_mb();
    } while (n < kRssEpochs || seconds_between(t0, Clock::now()) < seconds);
    return epochs;
  }
  /// Peak RSS after the first kRssEpochs epochs.
  double rss_mb() const { return rss_mb_; }

  /// Sum over every shard machine of the modeled counters.
  struct Fleet {
    u64 rounds = 0, io = 0, messages = 0, pim = 0;
  };
  Fleet fleet_since(const std::vector<pim::sim::Snapshot>& before) {
    std::lock_guard lock(fe_->store_mutex());
    Fleet f;
    for (u32 s = 0; s < store_->slots(); ++s) {
      const pim::sim::Machine* m = store_->shard_machine(s);
      if (m == nullptr) continue;
      const pim::sim::MachineDelta d = m->delta(before[s]);
      f.rounds += d.rounds;
      f.io += d.io_time;
      f.messages += d.messages;
      f.pim += d.pim_time;
    }
    return f;
  }
  std::vector<pim::sim::Snapshot> fleet_snapshot() {
    std::lock_guard lock(fe_->store_mutex());
    std::vector<pim::sim::Snapshot> snap(store_->slots());
    for (u32 s = 0; s < store_->slots(); ++s) {
      if (const pim::sim::Machine* m = store_->shard_machine(s)) snap[s] = m->snapshot();
    }
    return snap;
  }

  /// The final whole-domain range_collect must equal the reference.
  void check_final(ShardedPimStore& store, const char* which) {
    const ShardedPimStore::CollectResult all = [&] {
      std::lock_guard lock(fe_->store_mutex());
      return store.range_collect(kDomainLo, kDomainHi);
    }();
    const std::string what = which;
    if (!all.status.ok()) check_failed(args_, what + " range_collect failed");
    auto pair = [](Key k, Value v) {
      std::string out = "(";
      out += std::to_string(k);
      out += ", ";
      out += std::to_string(v);
      return out + ")";
    };
    auto it = ref_.begin();
    for (u64 i = 0; i < all.pairs.size(); ++i, ++it) {
      const auto& [k, v] = all.pairs[i];
      if (it == ref_.end()) {
        check_failed(args_, what + " range_collect entry " + std::to_string(i) + " = " + pair(k, v) +
                                ", reference has no more keys");
      }
      if (it->first != k || it->second != v) {
        check_failed(args_, what + " range_collect entry " + std::to_string(i) + " = " + pair(k, v) +
                                ", reference " + pair(it->first, it->second));
      }
    }
    if (it != ref_.end()) {
      check_failed(args_, what + " range_collect ends early at key " + std::to_string(it->first));
    }
  }
  ShardedPimStore& store() { return *store_; }

  // ---------------- traced leg ----------------

  /// Builds the replay store and the single-Machine copy from the
  /// reference (checked equal to the served store's contents just before).
  void start_trace() {
    replay_ = build_store(ref_);
    core_ = std::make_unique<CoreReplay>(args_.seed, ref_);
    std::lock_guard lock(fe_->store_mutex());
    store_->reset_load_stats();
    stats_before_ = fe_->stats();
  }

  struct Layers {
    double served_s = 0;
    double call_s[4] = {0, 0, 0, 0};  // replayed batch_* time per class
    u64 ops = 0;
  };
  Layers& layers() { return layers_; }
  SpanLog& spans() { return spans_; }
  ServingFrontEnd::Stats stats_before() const { return stats_before_; }
  ServingFrontEnd& frontend() { return *fe_; }
  ShardedPimStore* replay_store() { return replay_.get(); }
  const CoreReplay& core() const { return *core_; }

  Epoch run_traced_epoch() { return run_epoch(&spans_); }

 private:
  std::unique_ptr<ShardedPimStore> build_store(const std::map<Key, Value>& contents) const {
    pim::shard::ShardOptions o;
    o.shards = shape_.groups;
    o.replication = shape_.replication;
    o.write_quorum = shape_.write_quorum;
    o.quorum_reads = shape_.quorum_reads;
    o.domain_lo = kDomainLo;
    o.domain_hi = kDomainHi;
    o.seed = args_.seed ^ 0x5AA4D5EEDull;
    // Shards run inline on the executor thread, in slot order, instead of
    // on one worker thread per shard: 12 or 16 shard threads on a 4-CPU
    // host would measure the scheduler. Results are identical either way.
    o.parallel_dispatch = false;
    auto store = std::make_unique<ShardedPimStore>(o);
    const std::vector<std::pair<Key, Value>> pairs(contents.begin(), contents.end());
    store->build(pairs);
    return store;
  }

  OpRec next_op(Client& c) {
    OpRec r;
    const u64 dice = c.rng.below(100);
    if (dice < shape_.pct_upsert) {
      r.cls = kUpsert;
      r.key = universe_[c.own[c.rng.below(c.own.size())]];
      r.value = c.rng();
    } else if (dice < shape_.pct_upsert + shape_.pct_erase) {
      r.cls = kErase;
      r.key = universe_[c.own[c.rng.below(c.own.size())]];
    } else if (dice < shape_.pct_upsert + shape_.pct_erase + shape_.pct_get) {
      r.cls = kGet;
      // Zipf ranks map to stored keys through a multiplier coprime to the
      // count, so hot keys scatter over the groups.
      r.key = shape_.zipf_reads
                  ? universe_[stored_idx_[(zipf_(c.rng) * 0x9E3779B1ull) % shape_.stored]]
                  : universe_[c.rng.below(shape_.universe)];
    } else {
      r.cls = kSucc;
      r.key = kDomainLo + static_cast<Key>(c.rng.below(static_cast<u64>(kDomainHi - kDomainLo)));
    }
    return r;
  }

  /// One client's closed loop for an epoch: kInflight ops in flight, the
  /// oldest harvested before the next is issued.
  void client_epoch(Client& c, u32 id, std::vector<Span>* spans) {
    struct Slot {
      std::future<pim::serve::UpsertReply> ups;
      std::future<pim::serve::EraseReply> ers;
      std::future<pim::serve::GetReply> get;
      std::future<pim::serve::SuccessorReply> suc;
    };
    std::vector<Slot> ring(kInflight);
    c.recs.assign(kOpsPerClientEpoch, OpRec{});
    auto settle = [&](u64 i) {
      OpRec& r = c.recs[i];
      Slot& s = ring[i % kInflight];
      pim::Status st;
      switch (r.cls) {
        case kUpsert: {
          const auto rep = s.ups.get();
          st = rep.status;
          r.seq = rep.batch_seq;
          r.latency_rounds = rep.latency_rounds;
          break;
        }
        case kErase: {
          const auto rep = s.ers.get();
          st = rep.status;
          r.found = rep.erased;
          r.seq = rep.batch_seq;
          r.latency_rounds = rep.latency_rounds;
          break;
        }
        case kGet: {
          const auto rep = s.get.get();
          st = rep.status;
          r.found = rep.found;
          r.res_value = rep.value;
          r.seq = rep.batch_seq;
          r.latency_rounds = rep.latency_rounds;
          break;
        }
        case kSucc: {
          const auto rep = s.suc.get();
          st = rep.status;
          r.found = rep.found;
          r.res_key = rep.key;
          r.seq = rep.batch_seq;
          r.latency_rounds = rep.latency_rounds;
          break;
        }
      }
      r.t1 = Clock::now();
      if (!st.ok() && c.failed++ == 0) {
        c.first_failure = std::string(kClsName[r.cls]) + "(" + std::to_string(r.key) +
                          ") from client " + std::to_string(id) + ": " + st.to_string();
      }
      if (spans != nullptr) {
        spans->push_back(Span{(u64{id} << 40) | (epoch_ << 20) | i, window_span(r.seq),
                              kClientSpan[r.cls], id + 1, r.t0, r.t1});
      }
    };
    for (u64 i = 0; i < kOpsPerClientEpoch; ++i) {
      if (i >= kInflight) settle(i - kInflight);
      OpRec& r = c.recs[i];
      r = next_op(c);
      r.client = id;
      r.idx = static_cast<u32>(i);
      Slot& s = ring[i % kInflight];
      r.t0 = Clock::now();
      switch (r.cls) {
        case kUpsert: s.ups = fe_->submit_upsert(r.key, r.value); break;
        case kErase: s.ers = fe_->submit_erase(r.key); break;
        case kGet: s.get = fe_->submit_get(r.key); break;
        case kSucc: s.suc = fe_->submit_successor(r.key); break;
      }
    }
    for (u64 i = kOpsPerClientEpoch > kInflight ? kOpsPerClientEpoch - kInflight : 0;
         i < kOpsPerClientEpoch; ++i) {
      settle(i);
    }
  }

  // Span ids: client ops stay below 2^60; windows, shard replays, replayed
  // shard calls, single-Machine calls (core_replay.cpp) and single-Machine
  // replays take the next five blocks.
  static u64 window_span(u64 seq) { return (u64{1} << 60) | seq; }
  static u64 replay_span(u64 seq) { return (u64{2} << 60) | seq; }

  Epoch run_epoch(SpanLog* log) {
    std::vector<std::vector<Span>> spans(clients_.size());
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(clients_.size());
    for (u32 c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&, c] { client_epoch(clients_[c], c, log ? &spans[c] : nullptr); });
    }
    for (std::thread& t : threads) t.join();
    const auto t1 = Clock::now();

    const double wall_s = seconds_between(t0, t1);
    std::vector<OpRec> all;
    all.reserve(clients_.size() * kOpsPerClientEpoch);
    std::vector<double> lat_us, lat_rounds;
    for (Client& c : clients_) {
      if (c.failed > 0) check_failed(args_, "served op failed: " + c.first_failure);
      for (const OpRec& r : c.recs) {
        lat_us.push_back(std::chrono::duration<double, std::micro>(r.t1 - r.t0).count());
        lat_rounds.push_back(static_cast<double>(r.latency_rounds));
        all.push_back(r);
      }
    }
    attempted_ += all.size();
    Epoch e;
    e.ops_per_s = static_cast<double>(all.size()) / wall_s;
    e.p50_us = percentile(lat_us, 0.50);
    e.p90_us = percentile(lat_us, 0.90);
    e.p99_rounds = percentile(lat_rounds, 0.99);
    // Window order, then the executor's class order, then each client's
    // submission order (which is ticket order among one client's ops).
    std::sort(all.begin(), all.end(), [](const OpRec& a, const OpRec& b) {
      if (a.seq != b.seq) return a.seq < b.seq;
      if (a.cls != b.cls) return a.cls < b.cls;
      if (a.client != b.client) return a.client < b.client;
      return a.idx < b.idx;
    });
    for (u64 lo = 0; lo < all.size();) {
      u64 hi = lo;
      while (hi < all.size() && all[hi].seq == all[lo].seq) ++hi;
      if (log != nullptr) replay_window(all, lo, hi, *log);
      check_window(all, lo, hi);
      lo = hi;
    }
    if (log != nullptr) {
      for (std::vector<Span>& s : spans) log->add(s);
      layers_.served_s += wall_s;
      layers_.ops += all.size();
    }
    ++epoch_;
    return e;
  }

  [[noreturn]] void mismatch(const OpRec& r, const std::string& what) {
    check_failed(args_, std::string(kClsName[r.cls]) + "(" + std::to_string(r.key) + ") client " +
                            std::to_string(r.client) + " op " + std::to_string(r.idx) + " epoch " +
                            std::to_string(epoch_) + " window " + std::to_string(r.seq) + ": " + what);
  }

  /// Replays one window's ops into the reference: upserts (first
  /// occurrence of a key wins), then deletes, then gets, then successors.
  void check_window(const std::vector<OpRec>& all, u64 lo, u64 hi) {
    std::vector<Key> written;
    u64 i = lo;
    for (; i < hi && all[i].cls == kUpsert; ++i) {
      if (std::find(written.begin(), written.end(), all[i].key) != written.end()) continue;
      written.push_back(all[i].key);
      ref_[all[i].key] = all[i].value;
    }
    // Duplicate erases share one batch position: every flag is the key's
    // state at the window's delete point, before any of them applies.
    const u64 erase_lo = i;
    for (; i < hi && all[i].cls == kErase; ++i) {
      const bool existed = ref_.count(all[i].key) != 0;
      if (all[i].found != existed) {
        mismatch(all[i], "erased=" + std::to_string(all[i].found) + ", reference " + std::to_string(existed));
      }
    }
    for (u64 j = erase_lo; j < i; ++j) ref_.erase(all[j].key);
    for (; i < hi && all[i].cls == kGet; ++i) {
      const auto it = ref_.find(all[i].key);
      const bool found = it != ref_.end();
      if (all[i].found != found || (found && all[i].res_value != it->second)) {
        mismatch(all[i], "found=" + std::to_string(all[i].found) + " value=" +
                             std::to_string(all[i].res_value) + ", reference " +
                             (found ? std::to_string(it->second) : "absent"));
      }
    }
    for (; i < hi; ++i) {
      const auto it = ref_.lower_bound(all[i].key);
      const bool found = it != ref_.end();
      if (all[i].found != found || (found && all[i].res_key != it->first)) {
        mismatch(all[i], "successor " + (all[i].found ? std::to_string(all[i].res_key) : "none") +
                             ", reference " + (found ? std::to_string(it->first) : "none"));
      }
    }
  }

  /// Re-issues one served window's class batches, staged the way the
  /// front end stages them (unique keys, first occurrence wins, sorted),
  /// directly against the replay store, timing each batch_* call, and
  /// then against the single-Machine copy. Both results must equal the
  /// served replies.
  void replay_window(const std::vector<OpRec>& all, u64 lo, u64 hi, SpanLog& log) {
    const u64 seq = all[lo].seq;
    Clock::time_point first = all[lo].t0, last = all[lo].t1;
    for (u64 i = lo; i < hi; ++i) {
      first = std::min(first, all[i].t0);
      last = std::max(last, all[i].t1);
    }
    log.add(Span{window_span(seq), 0, "serve.window", 0, first, last});

    std::vector<std::pair<Key, Value>> kvs;
    std::vector<Key> keys[4];
    for (u64 i = lo; i < hi; ++i) {
      const OpRec& r = all[i];
      if (r.cls == kUpsert) {
        if (std::none_of(kvs.begin(), kvs.end(), [&](const auto& kv) { return kv.first == r.key; })) {
          kvs.push_back({r.key, r.value});
        }
      } else {
        keys[r.cls].push_back(r.key);
      }
    }
    std::sort(kvs.begin(), kvs.end());
    for (std::vector<Key>& k : keys) {
      std::sort(k.begin(), k.end());
      k.erase(std::unique(k.begin(), k.end()), k.end());
    }
    auto pos = [](const std::vector<Key>& k, Key key) {
      return static_cast<u64>(std::lower_bound(k.begin(), k.end(), key) - k.begin());
    };

    const Clock::time_point w0 = Clock::now();
    std::vector<pim::Status> ups;
    std::vector<ShardedPimStore::FlagResult> dels;
    std::vector<ShardedPimStore::GetResult> gets;
    std::vector<ShardedPimStore::NearResult> succs;
    const char* const names[] = {"shard.batch_upsert", "shard.batch_delete", "shard.batch_get",
                                 "shard.batch_successor"};
    for (int cls = 0; cls < 4; ++cls) {
      if (cls == kUpsert ? kvs.empty() : keys[cls].empty()) continue;
      const Clock::time_point t0 = Clock::now();
      switch (cls) {
        case kUpsert: ups = replay_->batch_upsert(kvs); break;
        case kErase: dels = replay_->batch_delete(keys[kErase]); break;
        case kGet: gets = replay_->batch_get(keys[kGet]); break;
        default: succs = replay_->batch_successor(keys[kSucc]); break;
      }
      const Clock::time_point t1 = Clock::now();
      layers_.call_s[cls] += seconds_between(t0, t1);
      log.add(Span{(u64{3} << 60) | (seq << 2) | static_cast<u64>(cls), replay_span(seq), names[cls], 0,
                   t0, t1});
    }
    log.add(Span{replay_span(seq), window_span(seq), "replay.window", 0, w0, Clock::now()});

    const u64 core_span = (u64{5} << 60) | seq;
    const Clock::time_point c0 = Clock::now();
    std::vector<pim::u8> core_dels;
    std::vector<pim::core::PimSkipList::GetResult> core_gets;
    std::vector<pim::core::PimSkipList::NearResult> core_succs;
    if (!kvs.empty()) core_->upsert(kvs, log, core_span);
    if (!keys[kErase].empty()) core_dels = core_->erase(keys[kErase], log, core_span);
    if (!keys[kGet].empty()) core_gets = core_->get(keys[kGet], log, core_span);
    if (!keys[kSucc].empty()) core_succs = core_->successor(keys[kSucc], log, core_span);
    log.add(Span{core_span, window_span(seq), "core.window", 0, c0, Clock::now()});

    for (u64 i = lo; i < hi; ++i) {
      const OpRec& r = all[i];
      bool same = true;
      switch (r.cls) {
        case kUpsert: {
          const u64 p = static_cast<u64>(
              std::lower_bound(kvs.begin(), kvs.end(), std::pair<Key, Value>{r.key, 0}) - kvs.begin());
          same = ups[p].ok();
          break;
        }
        case kErase: {
          const u64 p = pos(keys[kErase], r.key);
          same = dels[p].status.ok() && dels[p].found == r.found && (core_dels[p] != 0) == r.found;
          break;
        }
        case kGet: {
          const u64 p = pos(keys[kGet], r.key);
          const auto& g = gets[p];
          const auto& c = core_gets[p];
          same = g.status.ok() && g.found == r.found && (!g.found || g.value == r.res_value) &&
                 c.found == r.found && (!c.found || c.value == r.res_value);
          break;
        }
        case kSucc: {
          const u64 p = pos(keys[kSucc], r.key);
          const auto& s = succs[p];
          const auto& c = core_succs[p];
          same = s.status.ok() && s.found == r.found && (!s.found || s.key == r.res_key) &&
                 c.found == r.found && (!c.found || c.key == r.res_key);
          break;
        }
      }
      if (!same) mismatch(r, "replayed result differs from the served reply");
    }
  }

  const RunArgs& args_;
  const Shape& shape_;
  Zipf zipf_;
  std::vector<Key> universe_;
  std::vector<u64> stored_idx_;
  std::map<Key, Value> ref_;
  std::vector<Client> clients_;
  std::unique_ptr<ShardedPimStore> store_;
  std::unique_ptr<ServingFrontEnd> fe_;
  std::unique_ptr<ShardedPimStore> replay_;
  std::unique_ptr<CoreReplay> core_;
  ServingFrontEnd::Stats stats_before_{};
  Layers layers_;
  SpanLog spans_;
  u64 attempted_ = 0;
  u64 epoch_ = 0;
  double rss_mb_ = 0;
};

/// Median over epochs of one per-epoch figure.
double median_of(const std::vector<Epoch>& epochs, double Epoch::*field) {
  std::vector<double> v;
  for (const Epoch& e : epochs) v.push_back(e.*field);
  return median(v);
}

}  // namespace

Result run_serve(const RunArgs& args, bool write_quorum) {
  ServeBench bench(args, write_quorum ? kWriteQuorum : kReadMostly);
  const double setup_s = since_process_start_s();
  Result r;
  const auto before = bench.fleet_snapshot();
  const double measure_s = args.trace ? args.seconds / 2 : args.seconds;
  const u64 attempted_before = bench.attempted();
  const std::vector<Epoch> epochs = bench.run_for(measure_s);
  const u64 ops = bench.attempted() - attempted_before;
  const auto fleet = bench.fleet_since(before);
  bench.check_final(bench.store(), "served store");

  if (!args.trace) {
    const double dops = static_cast<double>(ops);
    r.add("setup_s", setup_s, "s");
    // Wall-clock figures go out per timed epoch; run.py reports the best
    // decile over every epoch of the run's processes.
    for (const Epoch& e : epochs) {
      r.sample("ops_per_s", e.ops_per_s, "1/s");
      r.sample("latency_p50_us", e.p50_us, "us");
      r.sample("latency_p90_us", e.p90_us, "us");
    }
    // A mean, not a median: per-epoch p99s are whole rounds and mostly
    // equal, so their median would hide any change smaller than a round.
    double p99_rounds = 0;
    for (const Epoch& e : epochs) p99_rounds += e.p99_rounds / static_cast<double>(epochs.size());
    r.add("latency_p99_rounds", p99_rounds, "rounds");
    r.add("model_io_per_op", static_cast<double>(fleet.io) / dops, "io/op");
    r.add("model_rounds_per_kop", 1000.0 * static_cast<double>(fleet.rounds) / dops, "rounds/kop");
    r.add("model_pim_per_op", static_cast<double>(fleet.pim) / dops, "work/op");
    r.add("peak_rss_mb", bench.rss_mb(), "MB");
    r.attempted = bench.attempted();
    return r;
  }

  // Traced leg: a fixed number of epochs with spans on, each window
  // replayed against a second store built from the same contents.
  const double untraced_rate = median_of(epochs, &Epoch::ops_per_s);
  bench.start_trace();
  const auto traced_before = bench.fleet_snapshot();
  std::vector<Epoch> traced;
  for (u64 i = 0; i < kTracedEpochs; ++i) traced.push_back(bench.run_traced_epoch());
  const auto tf = bench.fleet_since(traced_before);
  bench.check_final(bench.store(), "served store");
  bench.check_final(*bench.replay_store(), "replay store");
  r.attempted = bench.attempted();

  ServeBench::Layers& L = bench.layers();
  const ServingFrontEnd::Stats s1 = bench.frontend().stats();
  const ServingFrontEnd::Stats s0 = bench.stats_before();
  const u64 windows = s1.windows - s0.windows;
  const double tops = static_cast<double>(L.ops);
  r.add("serve.windows", static_cast<double>(windows), "count");
  r.add("serve.window_ops_avg", tops / static_cast<double>(windows), "ops");
  r.add("serve.coalesced_reads", static_cast<double>(s1.coalesced_reads - s0.coalesced_reads), "count");
  r.add("serve.coalesced_writes", static_cast<double>(s1.coalesced_writes - s0.coalesced_writes), "count");
  r.add("serve.flush_full", static_cast<double>(s1.flush_full - s0.flush_full), "count");
  r.add("serve.flush_idle", static_cast<double>(s1.flush_idle - s0.flush_idle), "count");
  r.add("serve.flush_delay", static_cast<double>(s1.flush_delay - s0.flush_delay), "count");
  double replay_s = 0;
  for (const double s : L.call_s) replay_s += s;
  r.add("serve.self_s", L.served_s - replay_s, "s");
  r.add("shard.upsert_s", L.call_s[kUpsert], "s");
  r.add("shard.delete_s", L.call_s[kErase], "s");
  r.add("shard.get_s", L.call_s[kGet], "s");
  r.add("shard.successor_s", L.call_s[kSucc], "s");
  r.add("shard.fleet_rounds", static_cast<double>(tf.rounds), "rounds");
  r.add("shard.fleet_io", static_cast<double>(tf.io), "io");
  r.add("shard.fleet_messages", static_cast<double>(tf.messages), "messages");
  double io_share_max = 0, module_cov_max = 0;
  u64 journal = 0;
  {
    ShardedPimStore& store = bench.store();
    std::lock_guard lock(bench.frontend().store_mutex());
    for (u32 s = 0; s < store.slots(); ++s) {
      if (store.shard_state(s) != pim::shard::ShardState::kLive) continue;
      const auto load = store.shard_load(s);
      io_share_max = std::max(io_share_max, load.io_share);
      module_cov_max = std::max(module_cov_max, load.module_cov);
    }
    for (u32 g = 0; g < store.group_count(); ++g) journal += store.group_journal_records(g);
  }
  r.add("shard.io_share_max", io_share_max, "ratio");
  r.add("shard.module_cov_max", module_cov_max, "ratio");
  r.add("shard.journal_records", static_cast<double>(journal), "records");
  bench.core().add_metrics(r);
  r.add("parallel.lanes", static_cast<double>(pim::par::ThreadPool::instance().lanes()), "lanes");
  r.add("trace.overhead", 1.0 - median_of(traced, &Epoch::ops_per_s) / untraced_rate, "ratio");
  r.add("trace.spans", static_cast<double>(bench.spans().size()), "count");
  bench.spans().write_chrome(args.out_dir + "/" + args.workload + "-spans.json", process_start());
  return r;
}

}  // namespace perfbench
