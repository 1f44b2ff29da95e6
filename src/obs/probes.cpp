#include "obs/probes.hpp"

namespace gcs::obs {

void Probes::open_tick(TimePoint ts) {
  tick_ts_ = ts;
  ++samples_taken_;
  tick_retained_ = (samples_taken_ - 1) % stride_ == 0;
  if (!tick_retained_) return;

  const std::size_t idx = timestamps_.size();
  if (max_points_ > 1 && idx + 1 >= max_points_) {
    // This tick fills the cap: keep every other retained point (this one
    // too when its index is even) and double the stride. Memory stays
    // O(max_points) while the series still span the whole run.
    std::size_t w = 0;
    for (std::size_t r = 0; r < idx; r += 2, ++w) {
      timestamps_[w] = timestamps_[r];
      for (Series& s : series_) s.values[w] = s.values[r];
    }
    timestamps_.resize(w);
    for (Series& s : series_) s.values.resize(w);
    stride_ *= 2;
    tick_retained_ = idx % 2 == 0;
    if (!tick_retained_) return;
  }
  timestamps_.push_back(ts);
}

void Probes::record(const Snapshot& frame) {
  if (samples_taken_ == 0 || frame.ts != tick_ts_) open_tick(frame.ts);
  if (!tick_retained_) return;
  for (const Snapshot::Gauge& g : frame.gauges) {
    Series* series = nullptr;
    for (Series& s : series_) {
      if (s.proc == frame.proc && s.metric == g.name) {
        series = &s;
        break;
      }
    }
    if (!series) {
      series = &series_.emplace_back();
      series->proc = frame.proc;
      series->metric = g.name;
    }
    series->values.push_back(g.value);
  }
}

}  // namespace gcs::obs
