// The traced serve leg's single-Machine copy of the store: every served
// window's class batches also run against one PimSkipList on one
// sim::Machine (P = 256, as in the paper's Table 1), so the core, sim and
// parallel layers are measured on the windows the front end really made.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "core/pim_skiplist.hpp"
#include "sim/machine.hpp"
#include "sim/trace.hpp"

namespace perfbench {

class CoreReplay {
 public:
  enum Op { kUpsert, kDelete, kGet, kSuccessor, kOps };

  CoreReplay(u64 seed, const std::map<pim::Key, pim::Value>& contents);

  // Each call is measured with sim::measure under an attached Tracer and
  // recorded as a span under `parent`, with a parallel_sort of a copy of
  // its keys beside it.
  void upsert(const std::vector<std::pair<pim::Key, pim::Value>>& kvs, SpanLog& log, u64 parent);
  std::vector<pim::u8> erase(const std::vector<pim::Key>& keys, SpanLog& log, u64 parent);
  std::vector<pim::core::PimSkipList::GetResult> get(const std::vector<pim::Key>& keys, SpanLog& log,
                                                     u64 parent);
  std::vector<pim::core::PimSkipList::NearResult> successor(const std::vector<pim::Key>& keys,
                                                            SpanLog& log, u64 parent);

  /// Adds the core.*, sim.* and parallel.sort_s per-layer metrics.
  void add_metrics(Result& r) const;

 private:
  struct Totals {
    double wall_s = 0;
    u64 batches = 0;
    u64 keys = 0;
    u64 rounds = 0;
    u64 io = 0;
    u64 pim = 0;
    u64 cpu_work = 0;
    u64 cpu_depth = 0;
  };
  struct PhaseTotals {
    u64 rounds = 0;
    u64 io = 0;
  };

  template <typename Call>
  void measured(Op op, const std::vector<pim::Key>& keys, SpanLog& log, u64 parent, Call&& call);

  pim::sim::Machine machine_;
  pim::core::PimSkipList list_;
  pim::sim::Tracer tracer_;
  Totals totals_[kOps];
  std::map<std::string, PhaseTotals> phases_;
  double load_cov_sum_ = 0;
  u64 h_max_ = 0;
  double sort_s_ = 0;
  u64 span_ids_ = 0;
};

}  // namespace perfbench
