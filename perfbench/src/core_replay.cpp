#include "core_replay.hpp"

#include "parallel/sort.hpp"
#include "sim/measure.hpp"

namespace perfbench {
namespace {

using pim::Key;
using pim::Value;

constexpr pim::u32 kP = 256;
// Rounds one traced batch may take; the ring is cleared before each.
constexpr u64 kTraceRounds = u64{1} << 12;

const char* const kOpName[CoreReplay::kOps] = {"upsert", "delete", "get", "successor"};
const char* const kSpanName[CoreReplay::kOps] = {"core.batch_upsert", "core.batch_delete",
                                                 "core.batch_get", "core.batch_successor"};

/// Phase labels the core ops on these paths push (see the TraceScope
/// labels in src/core); a label that no batch reached reports 0.
const char* const kPhaseLabels[] = {
    "get:dedup+route",       "search:pivot_extremes", "search:pivot_dnc",     "search:hinted",
    "upsert:update",         "upsert:alloc",          "upsert:upper_preds",   "upsert:splice",
    "upsert:wire_vertical",  "delete:probe",          "delete:mark+spread",   "delete:contract+splice",
};

std::string metric_label(std::string s) {
  for (char& c : s) {
    if (c == ':') c = '.';
    if (c == '+') c = '_';
  }
  return s;
}

pim::core::PimSkipList::Options list_options(u64 seed) {
  pim::core::PimSkipList::Options o;
  o.seed = seed ^ 0x1157C0DEull;
  return o;
}

}  // namespace

CoreReplay::CoreReplay(u64 seed, const std::map<Key, Value>& contents)
    : machine_(kP), list_(machine_, list_options(seed)), tracer_(kTraceRounds) {
  const std::vector<std::pair<Key, Value>> pairs(contents.begin(), contents.end());
  list_.build(pairs);
}

template <typename Call>
void CoreReplay::measured(Op op, const std::vector<Key>& keys, SpanLog& log, u64 parent, Call&& call) {
  // A fresh ring per batch: its stats are exactly this batch's rounds.
  machine_.set_tracer(nullptr);
  tracer_.clear();
  machine_.set_tracer(&tracer_);
  const auto t0 = Clock::now();
  const pim::sim::OpMetrics m = pim::sim::measure(machine_, call);
  const auto t1 = Clock::now();

  Totals& t = totals_[op];
  t.wall_s += seconds_between(t0, t1);
  ++t.batches;
  t.keys += keys.size();
  t.rounds += m.machine.rounds;
  t.io += m.machine.io_time;
  t.pim += m.machine.pim_time;
  t.cpu_work += m.cpu_work;
  t.cpu_depth += m.cpu_depth;
  for (const pim::sim::PhaseCost& ph : m.phases) {
    PhaseTotals& p = phases_[ph.name];
    p.rounds += ph.rounds;
    p.io += ph.io_time;
  }
  load_cov_sum_ += tracer_.stats().load_cov;
  for (u64 i = 0; i < tracer_.size(); ++i) h_max_ = std::max(h_max_, tracer_.at(i).h);

  // The CPU-side sort every batch op starts with, on a copy.
  std::vector<Key> copy = keys;
  const auto s0 = Clock::now();
  pim::par::parallel_sort(copy);
  const auto s1 = Clock::now();
  sort_s_ += seconds_between(s0, s1);
  log.add(Span{(u64{4} << 60) | ++span_ids_, parent, kSpanName[op], 0, t0, t1});
  log.add(Span{(u64{4} << 60) | ++span_ids_, parent, "parallel.sort", 0, s0, s1});
}

void CoreReplay::upsert(const std::vector<std::pair<Key, Value>>& kvs, SpanLog& log, u64 parent) {
  std::vector<Key> keys(kvs.size());
  for (u64 i = 0; i < kvs.size(); ++i) keys[i] = kvs[i].first;
  measured(kUpsert, keys, log, parent, [&] { list_.batch_upsert(kvs); });
}

std::vector<pim::u8> CoreReplay::erase(const std::vector<Key>& keys, SpanLog& log, u64 parent) {
  std::vector<pim::u8> res;
  measured(kDelete, keys, log, parent, [&] { res = list_.batch_delete(keys); });
  return res;
}

std::vector<pim::core::PimSkipList::GetResult> CoreReplay::get(const std::vector<Key>& keys, SpanLog& log,
                                                               u64 parent) {
  std::vector<pim::core::PimSkipList::GetResult> res;
  measured(kGet, keys, log, parent, [&] { res = list_.batch_get(keys); });
  return res;
}

std::vector<pim::core::PimSkipList::NearResult> CoreReplay::successor(const std::vector<Key>& keys,
                                                                      SpanLog& log, u64 parent) {
  std::vector<pim::core::PimSkipList::NearResult> res;
  measured(kSuccessor, keys, log, parent, [&] { res = list_.batch_successor(keys); });
  return res;
}

void CoreReplay::add_metrics(Result& r) const {
  u64 batches = 0;
  for (int i = 0; i < kOps; ++i) {
    const Totals& t = totals_[i];
    batches += t.batches;
    const std::string p = std::string("core.") + kOpName[i] + ".";
    const double keys = static_cast<double>(std::max<u64>(t.keys, 1));
    r.add(p + "wall_s", t.wall_s, "s");
    r.add(p + "rounds", static_cast<double>(t.rounds), "rounds");
    r.add(p + "io", static_cast<double>(t.io), "io");
    r.add(p + "pim", static_cast<double>(t.pim), "work");
    r.add(p + "cpu_work_per_key", static_cast<double>(t.cpu_work) / keys, "work/key");
    r.add(p + "cpu_depth", static_cast<double>(t.cpu_depth), "depth");
    r.add(std::string("sim.") + kOpName[i] + ".rounds_per_s",
          t.wall_s > 0 ? static_cast<double>(t.rounds) / t.wall_s : 0, "rounds/s");
  }
  for (const char* label : kPhaseLabels) {
    const auto it = phases_.find(label);
    const PhaseTotals p = it == phases_.end() ? PhaseTotals{} : it->second;
    r.add("core.phase." + metric_label(label) + ".rounds", static_cast<double>(p.rounds), "rounds");
    r.add("core.phase." + metric_label(label) + ".io", static_cast<double>(p.io), "io");
  }
  r.add("core.words_per_key", static_cast<double>(list_.total_words()) / static_cast<double>(list_.size()),
        "words/key");
  r.add("sim.load_cov", batches > 0 ? load_cov_sum_ / static_cast<double>(batches) : 0, "ratio");
  r.add("sim.h_max", static_cast<double>(h_max_), "messages");
  r.add("parallel.sort_s", sort_s_, "s");
}

}  // namespace perfbench
