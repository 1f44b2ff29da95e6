/// \file main.cpp
/// gcs_perfbench: the repository benchmark's entry point.
///
///   gcs_perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// --trace 0 runs the workload with tracing off for about S seconds
/// (repeating simulated windows) and prints the end-to-end metrics.
/// --trace 1 runs one untraced and two traced repetitions of the same
/// seed and prints the per-layer metrics. Either way the last line of
/// standard output is one JSON object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// and the exit status is 0 only when every output check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// Set-up samples per measured run: set-up takes well under a millisecond,
/// so it is repeated and reported as a median.
constexpr int kSetupSamples = 31;

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
      continue;
    }
    const unsigned long long v = std::strtoull(val, &end, 10);
    if (end == val || *end != '\0') return false;
    if (key == "--seed") {
      a.seed = v;
    } else if (key == "--seconds" && v >= 1 && v <= 600) {
      a.seconds = static_cast<int>(v);
    } else if (key == "--trace" && v <= 1) {
      a.trace = v == 1;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::uint64_t rep_seed(std::uint64_t seed, int rep) {
  return seed * 1000003ULL + static_cast<std::uint64_t>(rep);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void report_failures(const RepResult& r) {
  for (const std::string& f : r.failures) std::fprintf(stderr, "perfbench: FAILED: %s\n", f.c_str());
}

int run_measured(const Workload& w, const Args& a) {
  std::vector<RepResult> reps;
  std::vector<double> setups, setup_scales;
  const double budget = static_cast<double>(a.seconds);
  // Set-up is sampled on its own, back to back before any window, so every
  // run takes the same number of samples under the same conditions.
  for (int i = 0; i < kSetupSamples; ++i) {
    RepOptions opt{.seed = rep_seed(a.seed, 1000 + i), .setup_only = true};
    const RepResult r = run_rep(w, opt);
    setups.push_back(r.setup_s);
    setup_scales.push_back(r.host_scale());
  }
  if (w.udp) {
    // One long window, summarised per slice.
    RepOptions opt{.seed = a.seed, .udp_window = static_cast<gcs::Duration>(a.seconds) * 1000000};
    reps.push_back(run_rep(w, opt));
  } else {
    double spent = 0;
    for (int i = 0; spent < budget; ++i) {
      reps.push_back(run_rep(w, RepOptions{.seed = rep_seed(a.seed, i)}));
      spent += reps.back().setup_s + reps.back().wall_s;
    }
  }
  std::vector<double> p50, p99, cpu, stall;
  std::uint64_t attempted = 0, failed = 0;
  std::size_t samples = 0;
  gcs::Duration late = 0;
  for (const RepResult& r : reps) {
    p50.insert(p50.end(), r.p50_ms.begin(), r.p50_ms.end());
    p99.insert(p99.end(), r.p99_ms.begin(), r.p99_ms.end());
    stall.insert(stall.end(), r.stall_ms.begin(), r.stall_ms.end());
    cpu.push_back(r.ref_cpu_us_per_msg());
    samples += r.samples;
    attempted += r.submitted;
    failed += r.failed;
    late = std::max(late, r.late_max_us);
    std::fprintf(stderr,
                 "perfbench: rep msgs=%llu samples=%zu p50_ms=%.3f p99_ms=%.3f stall_ms=%.3f "
                 "cpu_us_per_msg=%.2f (raw %.2f, reference chunk %.1f us) wall_s=%.3f\n",
                 static_cast<unsigned long long>(r.submitted), r.samples, median(r.p50_ms),
                 median(r.p99_ms), median(r.stall_ms), r.ref_cpu_us_per_msg(),
                 r.cpu_us_per_msg(), r.host_chunk_us, r.wall_s);
    report_failures(r);
  }
  std::fprintf(stderr,
               "perfbench: %s seed=%llu reps=%zu msgs=%llu latency_samples=%zu "
               "setup_samples=%zu slices=%zu load.late_max_ms=%.3f\n",
               w.name, static_cast<unsigned long long>(a.seed), reps.size(),
               static_cast<unsigned long long>(attempted), samples, setups.size(), stall.size(),
               static_cast<double>(late) / 1000.0);
  const std::vector<Metric> metrics = {
      {"setup_s", median(setups) * median(setup_scales), "s"},
      {"lat_p50_ms", median(p50), "ms"},
      {"lat_p99_ms", median(p99), "ms"},
      {"cpu_us_per_msg", median(cpu), "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"unavailable_ms", median(stall), "ms"},
  };
  const bool correct = failed == 0 && attempted > 0;
  print_result(correct, std::max<std::uint64_t>(attempted, 1), failed, metrics);
  return correct ? 0 : 1;
}

int run_traced(const Workload& w, const Args& a) {
  RepOptions plain{.seed = a.seed, .udp_window = static_cast<gcs::Duration>(a.seconds) * 1000000};
  RepOptions traced = plain;
  traced.traced = true;
  const RepResult base = run_rep(w, plain);
  const RepResult r = run_rep(w, traced);
  std::uint64_t failed = base.failed + r.failed;
  report_failures(base);
  report_failures(r);
  if (!w.udp) {
    // Simulated repetitions of one seed are deterministic: a second
    // traced run must repeat every allocation and datagram count, and
    // tracing must not change what was delivered when.
    const RepResult again = run_rep(w, traced);
    failed += again.failed;
    if (again.fingerprint != r.fingerprint) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED: allocation/datagram counts differ between two "
                           "identical traced runs\n");
    }
    if (base.outcome_digest != r.outcome_digest || again.outcome_digest != r.outcome_digest) {
      ++failed;
      std::fprintf(stderr, "perfbench: FAILED: traced and untraced runs delivered differently\n");
    }
  }
  std::fprintf(stderr, "perfbench: oracle\n%s", r.oracle_summary.c_str());
  std::map<std::string, double> layer = r.layer;
  layer["trace.overhead_us_per_msg"] = r.cpu_us_per_msg() - base.cpu_us_per_msg();
  layer["host.raw_cpu_us_per_msg"] = base.cpu_us_per_msg();
  layer["host.ref_chunk_us"] = base.host_chunk_us;
  std::fprintf(stderr,
               "perfbench: %s traced cpu_us_per_msg=%.2f untraced=%.2f overhead=%.2f "
               "span_coverage=%.4f path.coverage=%.4f\n",
               w.name, r.cpu_us_per_msg(), base.cpu_us_per_msg(),
               layer["trace.overhead_us_per_msg"], layer["trace.span_coverage"],
               layer["path.coverage"]);
  std::vector<Metric> metrics;
  for (const std::string& name : layer_metric_names()) {
    std::string unit = "count";
    if (name.ends_with("_ns_per_msg")) unit = "ns";
    if (name.ends_with("_ms")) unit = "ms";
    if (name.ends_with("bytes_per_msg") || name.ends_with("state_bytes")) unit = "B";
    if (name.ends_with("_us_per_msg") || name.ends_with("_us")) unit = "us";
    if (name.ends_with("ratio") || name.ends_with("frac") || name.ends_with("coverage")) unit = "ratio";
    metrics.push_back({name, layer[name], unit});
  }
  const bool correct = failed == 0;
  print_result(correct, std::max<std::uint64_t>(r.submitted, 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: gcs_perfbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Workload* w = find_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "gcs_perfbench: unknown workload '%s'; known:", args.workload.c_str());
    for (const std::string& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    return args.trace ? run_traced(*w, args) : run_measured(*w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gcs_perfbench: %s\n", e.what());
    return 3;
  }
}
