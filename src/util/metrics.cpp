#include "util/metrics.hpp"

#include <cassert>
#include <cmath>
#include <mutex>

namespace gcs {

namespace {

struct MetricRegistry {
  // std::less<> enables string_view lookups without constructing a string.
  std::map<std::string, MetricId, std::less<>> ids;
  std::vector<std::string_view> names;  // views into the map's stable keys
  // The registry is process-global while Metrics registries are per-run;
  // the schedule explorer runs one simulation per worker thread, so the
  // cold interning path must be safe under concurrent construction.
  std::mutex mu;
};

MetricRegistry& registry() {
  static MetricRegistry r;
  return r;
}

}  // namespace

MetricId metric_id(std::string_view name) {
  MetricRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  if (auto it = r.ids.find(name); it != r.ids.end()) return it->second;
  assert(r.names.size() < kNoMetric);
  const auto id = static_cast<MetricId>(r.names.size());
  auto [it, inserted] = r.ids.emplace(std::string(name), id);
  (void)inserted;
  r.names.push_back(it->first);
  return id;
}

MetricId find_metric(std::string_view name) {
  MetricRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  auto it = r.ids.find(name);
  return it == r.ids.end() ? kNoMetric : it->second;
}

std::string_view metric_name(MetricId id) {
  MetricRegistry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return id < r.names.size() ? r.names[id] : std::string_view{};
}

void Histogram::decimate() {
  // Uniform thinning: keep every other retained sample and double the keep
  // stride, so memory stays O(cap) while the retained set still covers the
  // whole run.
  std::size_t w = 0;
  for (std::size_t r = 0; r < samples_.size(); r += 2, ++w) samples_[w] = samples_[r];
  samples_.resize(w);
  stride_ *= 2;
}

Duration Histogram::percentile(double q) const {
  if (samples_.empty()) return min();
  if (q <= 0) return min();   // exact even when decimated
  if (q >= 100) return max();
  if (!sorted_valid_) {
    sorted_.assign(samples_.begin(), samples_.end());
    std::sort(sorted_.begin(), sorted_.end());
    sorted_valid_ = true;
  }
  // Nearest-rank: the smallest sample such that at least q% of samples are
  // <= it. rank is 1-based; the old formula interpolated against n-1 and
  // could land one slot low on small sample counts.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(sorted_.size())));
  return sorted_[std::min(rank == 0 ? 0 : rank - 1, sorted_.size() - 1)];
}

std::map<std::string, std::int64_t> Metrics::counters() const {
  std::map<std::string, std::int64_t> out;
  for (MetricId id = 0; id < counters_.size(); ++id) {
    if (counters_[id] != 0) out.emplace(metric_name(id), counters_[id]);
  }
  return out;
}

std::map<std::string, const Histogram*> Metrics::histograms() const {
  std::map<std::string, const Histogram*> out;
  for (MetricId id = 0; id < histograms_.size(); ++id) {
    if (!histograms_[id].empty()) out.emplace(metric_name(id), &histograms_[id]);
  }
  return out;
}

}  // namespace gcs
