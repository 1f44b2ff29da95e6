/// \file metrics.hpp
/// Simple metrics: counters and latency histograms with percentile queries.
///
/// Names are interned process-wide into dense MetricIds; each Metrics
/// registry stores its counters and histograms in plain vectors indexed by
/// id, so the hot path (`inc(id)`) is one bounds check and an add — no map
/// walk, no string hashing, and no allocation once an id has been touched.
/// The string-keyed API remains for registration, tests and one-off reads;
/// hot layers intern once (usually at construction) and use the id overloads.
///
/// Benchmarks (bench/) run protocols under virtual time and report
/// virtual-time latencies; Histogram stores raw samples (simulations are
/// small enough) so exact percentiles can be reported.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hpp"

namespace gcs {

/// Dense id of an interned metric name. Counters and histograms share one
/// id space; the same id may back a counter in one registry and a histogram
/// in another (in practice names are used consistently).
using MetricId = std::uint32_t;

/// Intern \p name, returning its stable process-wide id (idempotent).
MetricId metric_id(std::string_view name);

/// Lookup without interning; kNoMetric if never interned.
inline constexpr MetricId kNoMetric = 0xffffffffu;
MetricId find_metric(std::string_view name);

/// Reverse lookup (reporting).
std::string_view metric_name(MetricId id);

/// Collection of raw duration samples with summary statistics.
///
/// Raw-sample growth is bounded: past `sample_cap()` retained samples, the
/// histogram uniformly decimates (keeps every other retained sample and
/// doubles its keep stride), so arbitrarily long runs use O(cap) memory.
/// count()/min()/max()/mean() stay exact (running statistics); percentiles
/// are exact below the cap and computed over the uniformly thinned sample
/// set above it. Decimation is a pure function of the add() sequence, so
/// identical runs stay byte-identical.
class Histogram {
 public:
  /// Default retained-sample bound; large enough that every bounded
  /// experiment keeps exact percentiles.
  static constexpr std::size_t kDefaultSampleCap = 65536;

  void add(Duration sample) {
    if (total_count_ == 0) {
      min_ = max_ = sample;
    } else {
      if (sample < min_) min_ = sample;
      if (sample > max_) max_ = sample;
    }
    sum_ += static_cast<double>(sample);
    if (total_count_++ % stride_ == 0) {
      samples_.push_back(sample);
      sorted_valid_ = false;
      if (cap_ > 1 && samples_.size() >= cap_) decimate();
    }
  }

  /// Total samples observed (exact; retained may be fewer once capped).
  std::size_t count() const { return total_count_; }
  bool empty() const { return total_count_ == 0; }

  Duration min() const { return total_count_ == 0 ? 0 : min_; }
  Duration max() const { return total_count_ == 0 ? 0 : max_; }
  double mean() const {
    return total_count_ == 0 ? 0.0 : sum_ / static_cast<double>(total_count_);
  }
  /// Nearest-rank percentile (rank = ceil(q/100 * n), 1-based) over the
  /// retained samples, q in [0, 100]. Exact while count() <= sample_cap().
  /// q = 0 returns the exact minimum, q = 100 the exact maximum.
  Duration percentile(double q) const;

  /// Retained (possibly decimated) samples, in insertion order.
  const std::vector<Duration>& samples() const { return samples_; }

  /// Bound on retained samples; shrinking below the current retained count
  /// takes effect on the next add(). Cap 0 or 1 disables decimation.
  std::size_t sample_cap() const { return cap_; }
  void set_sample_cap(std::size_t cap) { cap_ = cap; }
  /// Current keep stride (1 = every sample retained, exact percentiles).
  std::size_t sample_stride() const { return stride_; }

  void clear() {
    samples_.clear();
    total_count_ = 0;
    stride_ = 1;
    sum_ = 0.0;
    min_ = max_ = 0;
    sorted_.clear();
    sorted_valid_ = false;
  }

 private:
  void decimate();

  std::vector<Duration> samples_;  // retained samples, insertion order
  // Sorted copy of samples_, made lazily on query; reading a percentile
  // never changes which samples a later decimate() keeps.
  mutable std::vector<Duration> sorted_;
  mutable bool sorted_valid_ = false;
  std::size_t cap_ = kDefaultSampleCap;
  std::size_t stride_ = 1;      // retain every stride-th add()
  std::size_t total_count_ = 0;
  double sum_ = 0.0;
  Duration min_ = 0;
  Duration max_ = 0;
};

/// Counters + histograms, one registry per experiment run (or per network).
/// Storage is dense vectors indexed by interned MetricId.
class Metrics {
 public:
  // -- id-keyed hot path ----------------------------------------------------
  void inc(MetricId id, std::int64_t delta = 1) {
    if (id >= counters_.size()) counters_.resize(id + 1, 0);
    counters_[id] += delta;
  }
  std::int64_t counter(MetricId id) const {
    return id < counters_.size() ? counters_[id] : 0;
  }

  void observe(MetricId id, Duration sample) {
    if (id >= histograms_.size()) histograms_.resize(id + 1);
    histograms_[id].add(sample);
  }
  const Histogram& histogram(MetricId id) const {
    static const Histogram kEmpty;
    return id < histograms_.size() ? histograms_[id] : kEmpty;
  }

  // -- string-keyed convenience (interns on write, looks up on read) --------
  void inc(const std::string& name, std::int64_t delta = 1) { inc(metric_id(name), delta); }
  std::int64_t counter(const std::string& name) const { return counter(find_metric(name)); }

  void observe(const std::string& name, Duration sample) { observe(metric_id(name), sample); }
  const Histogram& histogram(const std::string& name) const {
    return histogram(find_metric(name));
  }

  /// Snapshot of all non-zero counters, name-sorted (deterministic across
  /// runs with identical behaviour — determinism_test hashes this).
  std::map<std::string, std::int64_t> counters() const;
  /// Snapshot of all non-empty histograms, name-sorted.
  std::map<std::string, const Histogram*> histograms() const;

  // -- enumeration hooks (telemetry snapshots) ------------------------------
  // Visit in MetricId order without building a map; callers that need a
  // stable cross-process order sort by name themselves.

  /// Visit every non-zero counter: fn(MetricId, std::int64_t value).
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    for (MetricId id = 0; id < counters_.size(); ++id) {
      if (counters_[id] != 0) fn(id, counters_[id]);
    }
  }
  /// Visit every non-empty histogram: fn(MetricId, const Histogram&).
  template <typename Fn>
  void for_each_histogram(Fn&& fn) const {
    for (MetricId id = 0; id < histograms_.size(); ++id) {
      if (!histograms_[id].empty()) fn(id, histograms_[id]);
    }
  }

  void clear() {
    counters_.clear();
    histograms_.clear();
  }

 private:
  std::vector<std::int64_t> counters_;  // indexed by MetricId
  std::vector<Histogram> histograms_;   // indexed by MetricId
};

}  // namespace gcs
