// Shared pieces of the stack benchmark: the benchmark's own input
// generators (kept apart from src/workload so a change to the program
// cannot change the inputs), timing, percentiles, the in-memory span
// recorder and the result line.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i64 = std::int64_t;
using Clock = std::chrono::steady_clock;

/// When the process started (a static initialised before main).
Clock::time_point process_start();
inline double since_process_start_s() {
  return std::chrono::duration<double>(Clock::now() - process_start()).count();
}

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// splitmix64-seeded xoshiro256**: the benchmark's only source of inputs.
class Rng {
 public:
  explicit Rng(u64 seed) {
    for (u64& w : s_) {
      seed += 0x9E3779B97F4A7C15ull;
      u64 z = seed;
      z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
      z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
      w = z ^ (z >> 31);
    }
  }
  u64 operator()() {
    const u64 r = rotl(s_[1] * 5, 7) * 9;
    const u64 t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  /// Uniform in [0, n), n > 0.
  u64 below(u64 n) { return static_cast<u64>((static_cast<unsigned __int128>((*this)()) * n) >> 64); }
  double unit() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

 private:
  static u64 rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }
  u64 s_[4];
};

/// Zipf(s) over ranks [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(u64 n, double s) : cdf_(n) {
    double acc = 0;
    for (u64 i = 0; i < n; ++i) cdf_[i] = (acc += 1.0 / std::pow(static_cast<double>(i + 1), s));
    for (double& c : cdf_) c /= acc;
  }
  u64 operator()(Rng& rng) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.unit());
    return std::min<u64>(static_cast<u64>(it - cdf_.begin()), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// `n` distinct keys drawn uniformly from [lo, hi), sorted.
std::vector<i64> distinct_sorted_keys(Rng& rng, u64 n, i64 lo, i64 hi);

/// Nearest-rank percentile of an unsorted sample (q in [0, 1]); sorts it.
double percentile(std::vector<double>& sample, double q);
double median(std::vector<double> sample);

double peak_rss_mb();

/// One closed interval of wall time at a layer boundary. `id` is the
/// client op or batch it belongs to; `parent` the span that caused it
/// (0 = root).
struct Span {
  u64 id = 0;
  u64 parent = 0;
  const char* name = "";
  u32 lane = 0;  // recording thread (0 = benchmark main thread)
  Clock::time_point start;
  Clock::time_point end;
};

/// Spans kept in memory (one vector per recording thread, merged at the
/// end) and written once, as a Chrome trace.
class SpanLog {
 public:
  static constexpr u64 kCap = 1u << 20;
  void add(std::vector<Span>& spans) {
    for (Span& s : spans) {
      if (spans_.size() < kCap) {
        spans_.push_back(s);
      } else {
        ++dropped_;
      }
    }
    spans.clear();
  }
  void add(const Span& s) {
    if (spans_.size() < kCap) {
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  u64 size() const { return spans_.size(); }
  u64 dropped() const { return dropped_; }
  /// Returns false when the file cannot be written.
  bool write_chrome(const std::string& path, Clock::time_point origin) const;

 private:
  std::vector<Span> spans_;
  u64 dropped_ = 0;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<Metric> metrics;
  /// One value per timed epoch, in epoch order; a metric's samples are
  /// printed as one list under "samples".
  std::vector<Metric> samples;
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void sample(std::string name, double value, std::string unit) {
    samples.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Everything a workload needs from the command line.
struct RunArgs {
  std::string workload;
  u64 seed = 0;
  double seconds = 1;
  bool trace = false;
  std::string out_dir;  // per-layer metrics and the span file (trace runs)
};

/// A failed correctness check: prints workload, seed and the first
/// mismatching op to stderr and ends the process with exit code 1,
/// before any result line is printed.
[[noreturn]] void check_failed(const RunArgs& args, const std::string& what);

std::string format_number(double v);
/// Writes `{"name": {"value": v, "unit": "u"}, ...}`.
std::string metrics_json(const std::vector<Metric>& metrics);
/// Writes `{"name": {"values": [v, ...], "unit": "u"}, ...}`, names in
/// the order of their first sample.
std::string samples_json(const std::vector<Metric>& samples);

Result run_serve(const RunArgs& args, bool write_quorum);

}  // namespace perfbench
