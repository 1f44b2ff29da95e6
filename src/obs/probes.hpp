/// \file probes.hpp
/// State probes: a Telemetry sink that records the per-process gauges of
/// every published frame into bounded time-series.
///
/// The oracle answers "did anything illegal happen"; the probes answer
/// "what did the run look like while it happened". The gauges themselves
/// (channel send-queue depth, rbcast dedup set size, open consensus
/// instances, GB fast-path ratio, FD suspicion count, ...) are registered
/// once, with Telemetry (GcsStack::attach_telemetry), and sampled on the
/// one publish cadence. Add the probes as a sink:
///
///   telemetry.add_sink([&probes](const Snapshot& s, BytesView) { probes.record(s); });
///
/// All frames of one publish tick share Snapshot::ts; the first frame with
/// a new ts opens the next point on the shared timestamp axis, so every
/// series has one value per retained tick. Series appear in frame order:
/// process registration order, then gauge name within a process.
///
/// Series are bounded: past `max_points` retained ticks the probe set
/// uniformly decimates (drops every other retained point and doubles its
/// sampling stride), so arbitrarily long chaos runs keep O(max_points)
/// memory while still covering the whole run. Decimation is a pure
/// function of the tick count — identical runs produce identical series.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "util/types.hpp"

namespace gcs::obs {

class Probes {
 public:
  explicit Probes(std::size_t max_points = 512) : max_points_(max_points) {}

  /// Record the gauges of one published frame. Every gauge must be in the
  /// first tick's frames; a late series would have fewer points than the
  /// shared timestamp axis.
  void record(const Snapshot& frame);

  /// One sampled series (values parallel to timestamps()).
  struct Series {
    ProcessId proc = kNoProcess;
    std::string metric;
    std::vector<double> values;
  };

  const std::vector<TimePoint>& timestamps() const { return timestamps_; }
  const std::vector<Series>& series() const { return series_; }
  /// Publish ticks seen, retained or not.
  std::uint64_t samples_taken() const { return samples_taken_; }
  /// Current decimation stride (1 = every tick retained).
  std::uint64_t stride() const { return stride_; }

 private:
  void open_tick(TimePoint ts);

  std::size_t max_points_;
  std::vector<Series> series_;
  std::vector<TimePoint> timestamps_;
  std::uint64_t samples_taken_ = 0;
  std::uint64_t stride_ = 1;
  TimePoint tick_ts_ = 0;
  bool tick_retained_ = false;
};

}  // namespace gcs::obs
