/// \file workload.hpp
/// The benchmark's traffic workloads and one measured repetition of each.
///
/// A repetition builds a group with the shipped default StackConfig,
/// delivers one warm-up message everywhere (the set-up), then drives an
/// open-loop Poisson load from one thread for a fixed window, drains, and
/// checks every delivery against a ledger of what was submitted.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace perfbench {

struct Workload {
  const char* name = "";
  bool udp = false;             ///< real UDP loopback under RealTimeRunner
  int founders = 5;             ///< members of the initial view
  int spares = 0;               ///< processes that join later
  double rate = 10000;          ///< aggregate submissions per second
  std::size_t payload = 1024;   ///< bytes per message
  bool generic = false;         ///< gbcast instead of abcast
  double conflict_share = 0;    ///< gbcast share sent in the conflicting class
  gcs::Duration window = gcs::sec(1);  ///< sim: virtual load window per repetition
  gcs::Duration crash_at = -1;  ///< crash founders[0] this long into the window
  gcs::Duration join_at = -1;   ///< the first spare joins this long into the window
};

const Workload* find_workload(std::string_view name);
std::vector<std::string> workload_names();

struct RepOptions {
  std::uint64_t seed = 1;
  bool traced = false;          ///< spans, oracle and (in sim) flight recorder on
  bool setup_only = false;      ///< stop after the warm-up delivery
  gcs::Duration udp_window = gcs::sec(5);
};

/// CPU time of one host-speed reference chunk (workload.cpp, HostSpeed)
/// on the host the numbers were first taken on: a 4-vCPU Intel Xeon VM.
/// Simulated CPU and set-up figures are scaled by kRefChunkUs / measured
/// chunk time, so a host that runs everything 20% slower for a while does
/// not read as a 20% regression of the stack.
inline constexpr double kRefChunkUs = 700.0;

/// Nearest-rank percentile in ms of µs samples, q in (0, 1]; reorders \p v.
double percentile_ms(std::vector<gcs::Duration>& v, double q);

struct RepResult {
  double setup_s = 0;
  std::uint64_t submitted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few human-readable violations
  double cpu_s = 0;                   ///< process CPU over window + drain
  double wall_s = 0;
  /// Mean CPU time of a host-speed reference chunk during this repetition
  /// (0 when not sampled).
  double host_chunk_us = 0;
  /// Per slice of the window (the whole window in simulation, each second
  /// over UDP): due-to-delivery latency percentiles over (message, stable
  /// member) samples, and the longest delivery stall (unavailability).
  std::size_t samples = 0;
  std::vector<double> p50_ms;
  std::vector<double> p99_ms;
  std::vector<double> stall_ms;
  gcs::Duration late_max_us = 0;         ///< load generator lateness
  /// Traced repetitions only: every per-layer metric, and the counts that
  /// must repeat exactly between two identical simulated repetitions.
  std::map<std::string, double> layer;
  std::vector<std::uint64_t> fingerprint;
  std::string oracle_summary;
  std::uint64_t outcome_digest = 0;  ///< deliveries, for traced == untraced checks

  double cpu_us_per_msg() const {
    return submitted == 0 ? 0.0 : cpu_s * 1e6 / static_cast<double>(submitted);
  }
  /// Scale factor from this repetition's host speed to the reference's.
  double host_scale() const { return host_chunk_us > 0 ? kRefChunkUs / host_chunk_us : 1.0; }
  /// cpu_us_per_msg() at the reference host speed.
  double ref_cpu_us_per_msg() const { return cpu_us_per_msg() * host_scale(); }
};

/// Run one repetition. Throws std::runtime_error when the group cannot be
/// built (e.g. a UDP port is taken) or never finishes its warm-up.
RepResult run_rep(const Workload& w, const RepOptions& opt);

/// Names of every per-layer metric a traced repetition reports, in
/// report order.
const std::vector<std::string>& layer_metric_names();

}  // namespace perfbench
