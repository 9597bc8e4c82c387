// perfbench — one command that runs one named workload through the whole
// stack (serve → shard → core → sim → parallel) and prints, as its last
// line, {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics and writes them, with the span file, under --out.
#include <sys/resource.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "common.hpp"

namespace perfbench {
namespace {
const Clock::time_point g_process_start = Clock::now();
}  // namespace

Clock::time_point process_start() { return g_process_start; }

std::vector<i64> distinct_sorted_keys(Rng& rng, u64 n, i64 lo, i64 hi) {
  const u64 span = static_cast<u64>(hi - lo);
  std::vector<i64> keys;
  keys.reserve(n + n / 8);
  while (keys.size() < n) {
    while (keys.size() < n + n / 8) keys.push_back(lo + static_cast<i64>(rng.below(span)));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  }
  // Keep a random n of them so the survivors stay uniform.
  for (u64 i = keys.size() - 1; i > 0; --i) std::swap(keys[i], keys[rng.below(i + 1)]);
  keys.resize(n);
  std::sort(keys.begin(), keys.end());
  return keys;
}

double percentile(std::vector<double>& sample, double q) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const double rank = std::ceil(q * static_cast<double>(sample.size()));
  const u64 idx = rank < 1 ? 0 : static_cast<u64>(rank) - 1;
  return sample[std::min<u64>(idx, sample.size() - 1)];
}

double median(std::vector<double> sample) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const u64 n = sample.size();
  return n % 2 == 1 ? sample[n / 2] : 0.5 * (sample[n / 2 - 1] + sample[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

bool SpanLog::write_chrome(const std::string& path, Clock::time_point origin) const {
  std::ofstream os(path);
  if (!os) return false;
  os << "{\"displayTimeUnit\":\"ns\",\"spans_dropped\":" << dropped_ << ",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    const double ts = std::chrono::duration<double, std::micro>(s.start - origin).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
    os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.lane << ",\"ts\":" << format_number(ts) << ",\"dur\":" << format_number(dur)
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
    first = false;
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

void check_failed(const RunArgs& args, const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: CHECK FAILED workload=%s seed=%llu: %s\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), what.c_str());
  std::fflush(stderr);
  // Serving threads may still be running; skip static destructors.
  std::_Exit(1);
}

std::string format_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (u64 i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + format_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}";
}

std::string samples_json(const std::vector<Metric>& samples) {
  std::vector<std::string> names;
  for (const Metric& m : samples) {
    if (std::find(names.begin(), names.end(), m.name) == names.end()) names.push_back(m.name);
  }
  std::string out = "{";
  for (u64 i = 0; i < names.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + names[i] + "\": {\"values\": [";
    std::string unit;
    bool first = true;
    for (const Metric& m : samples) {
      if (m.name != names[i]) continue;
      out += (first ? "" : ", ") + format_number(m.value);
      unit = m.unit;
      first = false;
    }
    out += "], \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <serve_read_mostly|serve_write_quorum> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  a.out_dir = ".";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a.seconds > 0) || a.seconds > 600) {
        usage("bad --seconds");
      }
    } else if (flag == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace");
      a.trace = val == "1";
    } else if (flag == "--out") {
      a.out_dir = val;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("missing --workload");
  return a;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunArgs args = parse(argc, argv);
  Result r;
  if (args.workload == "serve_read_mostly") {
    r = run_serve(args, /*write_quorum=*/false);
  } else if (args.workload == "serve_write_quorum") {
    r = run_serve(args, /*write_quorum=*/true);
  } else {
    usage(("unknown workload " + args.workload).c_str());
  }
  std::cout << "{\"correct\": true, \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": " << metrics_json(r.metrics)
            << ", \"samples\": " << samples_json(r.samples) << "}" << std::endl;
  return 0;
}
