/// \file bench_latency_json.cpp
/// Latency critical-path attribution report: runs abcast workloads at
/// n = 3/5/7 plus a mixed generic-broadcast workload, each with the
/// flight recorder on, feeds the trace through the critical-path analyzer
/// (obs/critical_path.hpp) and emits BENCH_latency.json with the
/// end-to-end latency of every delivery split into exhaustive phases
/// (flood / batch_wait / propose_wait / accept_wait / pull_wait /
/// reorder_wait, plus the GB fast/slow phases) and an honest residual.
///
/// The run itself is the acceptance check: the process exits nonzero when
/// any scenario attributes less than 95% of the total end-to-end latency,
/// when the trace ring wrapped (truncated attribution), or when a delivery
/// had no submit anchor in the window. Virtual time only, so the report is
/// byte-identical across machines for a given seed.
///
/// One seed's tail can be bimodal: at n = 5 a single instance's wait
/// decides the propose-wait p99, and it flips between modes as the
/// network's jitter draws shift. So the report also carries "seed_sweeps":
/// the n = 5 abcast workload over kSweepSeeds consecutive seeds, with the
/// mean of each seed's p99 (the figure CI gates) and of each seed's mean.
///
///   ./bench/bench_latency_json [--json=PATH] [--oracle]
///                              (default PATH: BENCH_latency.json)
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"
#include "obs/critical_path.hpp"

namespace gcs::bench {
namespace {

constexpr int kMessages = 120;
constexpr Duration kGap = msec(1);
constexpr std::size_t kRingCapacity = std::size_t{1} << 19;
constexpr double kMinCoverage = 0.95;

/// Abcast workload: round-robin senders, every process delivers, shared
/// flight recorder across all stacks so the trace interleaves the group.
obs::LatencyScenario run_abcast(int n, std::uint64_t seed) {
  World::Config config;
  config.n = n;
  config.seed = seed;
  auto recorder = std::make_shared<obs::Recorder>(kRingCapacity);
  config.stack.recorder = recorder;
  World world(config);
  OracleScope oracle(world, "latency_json/abcast_n" + std::to_string(n));
  int delivered = 0;
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_adeliver([&delivered](const MsgId&, const Bytes&) { ++delivered; });
  }
  world.found_group_all();
  world.run_for(msec(20));

  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kMessages) return;
    world.stack(static_cast<ProcessId>(sent % n)).abcast(payload_of(sent));
    ++sent;
    world.engine().schedule_after(kGap, tick);
  };
  world.engine().schedule_after(0, tick);
  drive(world.engine(), sec(300), [&] { return delivered >= kMessages * n; });
  world.run_for(sec(1));  // let decide propagation / pulls settle

  obs::LatencyScenario sc;
  sc.name = "abcast_n" + std::to_string(n);
  sc.params_json = "{\"n\": " + std::to_string(n) +
                   ", \"messages\": " + std::to_string(kMessages) +
                   ", \"gap_us\": " + std::to_string(kGap) +
                   ", \"seed\": " + std::to_string(seed) + "}";
  sc.stats = obs::analyze_critical_path(*recorder);
  return sc;
}

constexpr std::uint64_t kSweepFirstSeed = 102;
constexpr int kSweepSeeds = 8;

/// Means over seeds of per-seed end-to-end and propose-wait statistics.
struct SeedSweep {
  std::string name;
  double e2e_mean_us = 0;
  double e2e_p99_us = 0;
  double propose_wait_mean_us = 0;
  double propose_wait_p99_us = 0;
};

SeedSweep sweep_abcast(int n) {
  SeedSweep sweep;
  sweep.name = "abcast_n" + std::to_string(n);
  const auto wait = static_cast<std::size_t>(obs::PathPhase::kProposeWait);
  for (int i = 0; i < kSweepSeeds; ++i) {
    const obs::LatencyScenario sc = run_abcast(n, kSweepFirstSeed + static_cast<std::uint64_t>(i));
    Histogram e2e;
    Histogram propose_wait;
    for (const obs::PathBreakdown& p : sc.stats.paths) {
      e2e.add(p.total);
      if (p.phase[wait] > 0) propose_wait.add(p.phase[wait]);
    }
    sweep.e2e_mean_us += e2e.mean() / kSweepSeeds;
    sweep.e2e_p99_us += e2e.percentile(99) / kSweepSeeds;
    sweep.propose_wait_mean_us += propose_wait.mean() / kSweepSeeds;
    sweep.propose_wait_p99_us += propose_wait.percentile(99) / kSweepSeeds;
  }
  return sweep;
}

/// Generic-broadcast workload with a 25% conflict fraction: commutative
/// commands exercise the fast path (flood + gb_ack_wait), conflicting ones
/// the resolution chain (gb_conflict_wait + gb_resolve).
obs::LatencyScenario run_gbcast_mixed(int n, std::uint64_t seed) {
  const double conflict_fraction = 0.25;
  World::Config config;
  config.n = n;
  config.seed = seed;
  config.stack.conflict = ConflictRelation::rbcast_abcast();
  auto recorder = std::make_shared<obs::Recorder>(kRingCapacity);
  config.stack.recorder = recorder;
  World world(config);
  OracleScope oracle(world, "latency_json/gbcast_n" + std::to_string(n));
  int delivered = 0;
  for (ProcessId p = 0; p < n; ++p) {
    world.stack(p).on_gdeliver(
        [&delivered](const MsgId&, MsgClass, const Bytes&) { ++delivered; });
  }
  world.found_group_all();
  world.run_for(msec(20));

  Rng rng(seed ^ 0x9e3779b9u);
  std::vector<bool> conflicting(kMessages);
  for (int i = 0; i < kMessages; ++i) {
    conflicting[static_cast<std::size_t>(i)] = rng.chance(conflict_fraction);
  }
  int sent = 0;
  std::function<void()> tick = [&] {
    if (sent >= kMessages) return;
    const MsgClass cls =
        conflicting[static_cast<std::size_t>(sent)] ? kAbcastClass : kRbcastClass;
    world.stack(static_cast<ProcessId>(sent % n)).gbcast(cls, payload_of(sent));
    ++sent;
    world.engine().schedule_after(kGap, tick);
  };
  world.engine().schedule_after(0, tick);
  drive(world.engine(), sec(300), [&] { return delivered >= kMessages * n; });
  world.run_for(sec(1));

  obs::LatencyScenario sc;
  sc.name = "gbcast_n" + std::to_string(n) + "_mixed";
  sc.params_json = "{\"n\": " + std::to_string(n) +
                   ", \"messages\": " + std::to_string(kMessages) +
                   ", \"conflict_fraction\": " + json_num(conflict_fraction) +
                   ", \"seed\": " + std::to_string(seed) + "}";
  sc.stats = obs::analyze_critical_path(*recorder);
  return sc;
}

int run_suite(const std::string& json_path) {
  banner("latency critical path — per-phase attribution (JSON report)",
         "abcast at n=3/5/7 and mixed generic broadcast, traced end to end;\n"
         "every delivery's latency split into exhaustive phases + residual");

  std::vector<obs::LatencyScenario> scenarios;
  scenarios.push_back(run_abcast(3, 101));
  scenarios.push_back(run_abcast(5, 102));
  scenarios.push_back(run_abcast(7, 103));
  scenarios.push_back(run_gbcast_mixed(5, 104));

  Table table({"scenario", "deliveries", "e2e mean (ms)", "dominant phase", "coverage",
               "residual"});
  int failures = 0;
  for (const obs::LatencyScenario& sc : scenarios) {
    const obs::CriticalPathStats& st = sc.stats;
    // Dominant-phase mode across deliveries, for the human table.
    std::array<std::size_t, obs::kNumPathPhases + 1> dom{};
    Duration e2e_sum = 0;
    for (const obs::PathBreakdown& p : st.paths) {
      e2e_sum += p.total;
      ++dom[p.dominant < 0 ? obs::kNumPathPhases : static_cast<std::size_t>(p.dominant)];
    }
    std::size_t best = 0;
    for (std::size_t i = 1; i < dom.size(); ++i) {
      if (dom[i] > dom[best]) best = i;
    }
    const std::string dom_name =
        best == obs::kNumPathPhases
            ? "residual"
            : std::string(obs::path_phase_name(static_cast<obs::PathPhase>(best)));
    const double mean =
        st.paths.empty() ? 0.0
                         : static_cast<double>(e2e_sum) / static_cast<double>(st.paths.size());
    table.add_row({sc.name, std::to_string(st.paths.size()), fmt_ms(mean), dom_name,
                   fmt_pct(st.coverage()), fmt_pct(st.residual_share())});

    if (st.coverage() < kMinCoverage) {
      std::printf("  FAIL %s: coverage %.4f < %.2f\n", sc.name.c_str(), st.coverage(),
                  kMinCoverage);
      ++failures;
    }
    if (st.truncated) {
      std::printf("  FAIL %s: trace ring wrapped (%llu dropped) — raise kRingCapacity\n",
                  sc.name.c_str(), static_cast<unsigned long long>(st.dropped));
      ++failures;
    }
    if (st.unmatched > 0) {
      std::printf("  FAIL %s: %llu deliveries had no submit anchor in the window\n",
                  sc.name.c_str(), static_cast<unsigned long long>(st.unmatched));
      ++failures;
    }
  }
  table.print();

  const SeedSweep sweep = sweep_abcast(5);
  std::printf("\n  %s over seeds %llu..%llu: e2e mean %.1f us, propose_wait p99 %.1f us "
              "(means of per-seed figures)\n",
              sweep.name.c_str(), static_cast<unsigned long long>(kSweepFirstSeed),
              static_cast<unsigned long long>(kSweepFirstSeed + kSweepSeeds - 1),
              sweep.e2e_mean_us, sweep.propose_wait_p99_us);

  std::string json = obs::render_latency_report(scenarios);
  // Splice the sweep in after the scenarios array.
  json.resize(json.rfind(']') + 1);
  json += ",\n  \"seed_sweeps\": [\n    {\"name\": \"" + sweep.name +
          "\", \"first_seed\": " + std::to_string(kSweepFirstSeed) +
          ", \"seeds\": " + std::to_string(kSweepSeeds) +
          ",\n     \"end_to_end\": {\"mean_us\": " + json_num(sweep.e2e_mean_us) +
          ", \"p99_us\": " + json_num(sweep.e2e_p99_us) +
          "},\n     \"propose_wait\": {\"mean_us\": " + json_num(sweep.propose_wait_mean_us) +
          ", \"p99_us\": " + json_num(sweep.propose_wait_p99_us) + "}}\n  ]\n}\n";
  std::FILE* out = std::fopen(json_path.c_str(), "w");
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), out);
  std::fclose(out);
  std::printf("\n  wrote %s\n", json_path.c_str());
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace gcs::bench

int main(int argc, char** argv) {
  std::string json_path = "BENCH_latency.json";
  gcs::bench::oracle_setup(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) json_path = argv[i] + 7;
  }
  const int rc = gcs::bench::run_suite(json_path);
  const int oracle_rc = gcs::bench::oracle_verdict();
  return rc != 0 ? rc : oracle_rc;
}
