#include "workload.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>

#include "core/stack.hpp"
#include "obs/critical_path.hpp"
#include "obs/oracle.hpp"
#include "runtime/realtime_runner.hpp"
#include "runtime/udp_transport.hpp"
#include "spans.hpp"

namespace perfbench {

using gcs::Bytes;
using gcs::Duration;
using gcs::GcsStack;
using gcs::ProcessId;
using gcs::Tag;
using gcs::TimePoint;
using gcs::msec;
using gcs::sec;

namespace {

const Workload kWorkloads[] = {
    {.name = "abcast_steady", .founders = 5, .rate = 10000, .payload = 1024},
    {.name = "gb_mix", .founders = 5, .rate = 10000, .payload = 64, .generic = true,
     .conflict_share = 0.02},
    {.name = "failover", .founders = 5, .spares = 1, .rate = 1000, .payload = 1024,
     .window = sec(10), .crash_at = sec(1), .join_at = sec(4)},
    {.name = "udp_abcast", .udp = true, .founders = 3, .rate = 1000, .payload = 1024},
};

constexpr std::uint32_t kWarmIdx = 0xffffffffu;
constexpr Duration kDrainLimit = sec(10);
constexpr Duration kSettle = msec(200);
/// Host-speed sampling: one reference chunk per 50 ms of simulated time.
constexpr Duration kSpeedPeriod = msec(50);
/// A UDP window is summarised per slice of this length (latency
/// percentiles and longest stall), so a few seconds of host contention do
/// not decide the whole run; a simulated window is one slice.
constexpr Duration kUdpSlice = sec(1);
constexpr Duration kUdpStallSlice = msec(250);
/// Flight-recorder ring for traced repetitions; large enough that the
/// critical-path analysis sees every sim window whole.
constexpr std::size_t kRecorderCapacity = std::size_t{3} << 20;
constexpr SpanKey kSubmitKey =
    make_key(SpanKind::kSubmit, true, Tag::kApp, Frame::kNone, Tag{0});
constexpr SpanKey kPollKey = make_key(SpanKind::kPoll, true, Tag{0}, Frame::kNone, Tag{0});

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wall_seconds() { return static_cast<double>(now_ns()) * 1e-9; }

Bytes make_payload(std::size_t size, std::uint32_t idx) {
  Bytes b(std::max<std::size_t>(size, sizeof idx), 0);
  std::memcpy(b.data(), &idx, sizeof idx);
  return b;
}

std::uint32_t payload_idx(const Bytes& b) {
  std::uint32_t idx = kWarmIdx - 1;  // never a valid index
  if (b.size() >= sizeof idx) std::memcpy(&idx, b.data(), sizeof idx);
  return idx;
}

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double percentile_ms(std::vector<Duration>& v, double q) {
  if (v.empty()) return 0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const auto k = static_cast<std::ptrdiff_t>(std::clamp<std::size_t>(rank, 1, v.size()) - 1);
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return static_cast<double>(v[static_cast<std::size_t>(k)]) / 1000.0;
}

namespace {

// ---------------------------------------------------------------------------
// Host speed: fixed reference work, independent of the stack (random
// updates to an 8 MiB table, std::map churn with heap blocks, a 64 KiB
// copy), sampled through the window so CPU figures can be read against the
// host's speed at the time they were taken. On a shared host the stack's
// CPU time moves by up to 40% over tens of seconds; this chunk's moves
// with it.

class HostSpeed {
 public:
  HostSpeed() : table_(kSlots, 0), src_(kCopy, 1), dst_(kCopy, 0) {}

  int chunks() const { return chunks_; }
  double cpu_s() const { return cpu_s_; }

  /// Run one chunk of reference work and add its CPU time.
  void sample() {
    const double t0 = cpu_seconds();
    for (int round = 0; round < 4; ++round) {
      for (int i = 0; i < 2048; ++i) table_[next() % kSlots] += static_cast<std::uint32_t>(x_);
      for (int i = 0; i < 256; ++i) {
        auto it = tree_.find(next() % 4096);
        if (it != tree_.end()) {
          tree_.erase(it);
        } else {
          tree_.emplace(x_ % 4096, Bytes(64 + x_ % 1024, 0));
        }
      }
      std::memcpy(dst_.data(), src_.data(), kCopy);
      src_[next() % kCopy] ^= dst_[x_ % kCopy];
    }
    cpu_s_ += cpu_seconds() - t0;
    ++chunks_;
  }

 private:
  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  static constexpr std::size_t kSlots = 1u << 21;
  static constexpr std::size_t kCopy = 1u << 16;
  std::vector<std::uint32_t> table_;
  std::vector<std::uint8_t> src_, dst_;
  std::map<std::uint64_t, Bytes> tree_;
  std::uint64_t x_ = 0x9e3779b97f4a7c15ULL;
  int chunks_ = 0;
  double cpu_s_ = 0;
};

/// One instance per process, so its table is allocated once.
HostSpeed& host_speed() {
  static HostSpeed speed;
  return speed;
}

// ---------------------------------------------------------------------------
// Ledger: what was submitted, what each process delivered, and the checks.

class Ledger {
 public:
  struct Msg {
    TimePoint due;
    ProcessId from;
    bool conflict;
  };

  Ledger(int universe, std::size_t capacity) : procs_(static_cast<std::size_t>(universe)) {
    // Everything the delivery path touches is sized up front, so the
    // ledger itself never allocates inside a traced receive span.
    msgs_.reserve(capacity);
    for (Proc& p : procs_) {
      p.count.assign(capacity, 0);
      p.at.assign(capacity, -1);
      p.order.reserve(capacity);
      p.preds.reserve(capacity / 8 + 64);
    }
  }

  std::uint32_t add(TimePoint due, ProcessId from, bool conflict) {
    if (msgs_.size() == msgs_.capacity()) throw std::runtime_error("ledger capacity exceeded");
    msgs_.push_back(Msg{due, from, conflict});
    return static_cast<std::uint32_t>(msgs_.size() - 1);
  }

  void deliver(ProcessId p, std::uint32_t idx, TimePoint at) {
    Proc& pr = procs_[static_cast<std::size_t>(p)];
    if (idx == kWarmIdx) {
      pr.warm = true;
      return;
    }
    if (idx >= msgs_.size()) {
      ++foreign_;
      return;
    }
    if (pr.count[idx]++ > 0) return;  // duplicate; counted in check()
    pr.at[idx] = at;
    pr.order.push_back(idx);
    if (msgs_[idx].conflict) pr.preds.push_back(Pred{idx, pr.set_digest, pr.order.size() - 1});
    pr.set_digest += mix(idx);
  }

  void view(ProcessId p, const gcs::View& v, TimePoint at) {
    Proc& pr = procs_[static_cast<std::size_t>(p)];
    if (pr.first_view < 0) pr.first_view = at;
    if (crashed_ != gcs::kNoProcess && !v.contains(crashed_) && pr.excluded_at < 0) {
      pr.excluded_at = at;
    }
  }

  void crash(ProcessId p) { crashed_ = p; }

  bool warm(const std::vector<ProcessId>& group) const {
    return std::all_of(group.begin(), group.end(),
                       [this](ProcessId p) { return procs_[static_cast<std::size_t>(p)].warm; });
  }

  /// Every message from a live sender delivered at every stable member,
  /// and the joiner (if any) caught up with the last of them.
  bool drained(const std::vector<ProcessId>& stable, ProcessId joiner) {
    for (ProcessId p : stable) {
      Proc& pr = procs_[static_cast<std::size_t>(p)];
      while (pr.cursor < msgs_.size() &&
             (pr.count[pr.cursor] > 0 || msgs_[pr.cursor].from == crashed_)) {
        ++pr.cursor;
      }
      if (pr.cursor < msgs_.size()) return false;
    }
    if (joiner == gcs::kNoProcess) return true;
    const Proc& j = procs_[static_cast<std::size_t>(joiner)];
    const Proc& ref = procs_[static_cast<std::size_t>(stable.front())];
    return !j.order.empty() && !ref.order.empty() && j.order.back() == ref.order.back();
  }

  /// Check every delivery; returns the number of failed messages and
  /// appends up to a few descriptions to \p notes.
  std::uint64_t check(const std::vector<ProcessId>& stable, ProcessId joiner, bool total_order,
                      std::vector<std::string>& notes) const {
    std::uint64_t failed = foreign_;
    auto note = [&notes](std::string s) {
      if (notes.size() < 8) notes.push_back(std::move(s));
    };
    if (foreign_ > 0) note(std::to_string(foreign_) + " deliveries of unknown messages");
    for (std::uint32_t i = 0; i < msgs_.size(); ++i) {
      bool bad = false;
      const bool live_sender = msgs_[i].from != crashed_;
      const std::uint8_t first = procs_[static_cast<std::size_t>(stable.front())].count[i];
      for (ProcessId p : stable) {
        const std::uint8_t c = procs_[static_cast<std::size_t>(p)].count[i];
        // Live senders: exactly once everywhere. A crashed sender's
        // message: at most once, and uniformly (all or none).
        if (c > 1 || (live_sender && c != 1) || (!live_sender && c != first)) bad = true;
      }
      if (joiner != gcs::kNoProcess && procs_[static_cast<std::size_t>(joiner)].count[i] > 1) {
        bad = true;
      }
      if (bad) {
        ++failed;
        note("message " + std::to_string(i) + " from p" + std::to_string(msgs_[i].from) +
             " not delivered exactly once at every stable member");
      }
    }
    const Proc& ref = procs_[static_cast<std::size_t>(stable.front())];
    if (total_order) {
      for (ProcessId p : stable) {
        const auto& o = procs_[static_cast<std::size_t>(p)].order;
        std::uint64_t diff = o.size() > ref.order.size() ? o.size() - ref.order.size()
                                                         : ref.order.size() - o.size();
        for (std::size_t k = 0; k < std::min(o.size(), ref.order.size()); ++k) {
          if (o[k] != ref.order[k]) ++diff;
        }
        if (diff > 0) {
          failed += diff;
          note("p" + std::to_string(p) + " delivery order differs at " + std::to_string(diff) +
               " positions");
        }
      }
    } else {
      // Each conflicting message must have the same predecessor set
      // (digest + count) everywhere.
      for (ProcessId p : stable) {
        const auto& preds = procs_[static_cast<std::size_t>(p)].preds;
        if (preds.size() != ref.preds.size()) {
          failed += 1;
          note("p" + std::to_string(p) + " delivered a different number of conflicting messages");
          continue;
        }
        std::vector<Pred> a = preds, b = ref.preds;
        auto by_idx = [](const Pred& x, const Pred& y) { return x.idx < y.idx; };
        std::sort(a.begin(), a.end(), by_idx);
        std::sort(b.begin(), b.end(), by_idx);
        for (std::size_t k = 0; k < a.size(); ++k) {
          if (a[k].idx != b[k].idx || a[k].digest != b[k].digest || a[k].count != b[k].count) {
            ++failed;
            note("conflicting message " + std::to_string(a[k].idx) + " has other predecessors at p" +
                 std::to_string(p));
          }
        }
      }
    }
    if (joiner != gcs::kNoProcess) {
      // The joiner delivers exactly the stable members' suffix.
      const auto& j = procs_[static_cast<std::size_t>(joiner)].order;
      const bool suffix = !j.empty() && j.size() <= ref.order.size() &&
                          std::equal(j.begin(), j.end(), ref.order.end() - static_cast<std::ptrdiff_t>(j.size()));
      if (!suffix) {
        ++failed;
        note("joiner p" + std::to_string(joiner) + " did not deliver the survivors' suffix (" +
             std::to_string(j.size()) + " deliveries)");
      }
    }
    return failed;
  }

  /// Due-to-delivery latency, one sample per (message, stable member),
  /// grouped by \p slice of due time counted from \p start.
  std::vector<std::vector<Duration>> latencies(const std::vector<ProcessId>& stable,
                                               TimePoint start, Duration slice) const {
    std::vector<std::vector<Duration>> out;
    for (ProcessId p : stable) {
      const Proc& pr = procs_[static_cast<std::size_t>(p)];
      for (std::uint32_t idx : pr.order) {
        const auto s = static_cast<std::size_t>(std::max<TimePoint>(0, msgs_[idx].due - start) / slice);
        if (out.size() <= s) out.resize(s + 1);
        out[s].push_back(pr.at[idx] - msgs_[idx].due);
      }
    }
    return out;
  }

  /// Longest time a stable member delivered nothing while a message was
  /// due to it (the crash outage on failover), per \p slice of delivery
  /// time counted from \p start.
  std::vector<Duration> longest_stalls(const std::vector<ProcessId>& stable, TimePoint start,
                                       Duration slice, std::size_t slices) const {
    std::vector<Duration> worst(slices, 0);
    for (ProcessId p : stable) {
      const Proc& pr = procs_[static_cast<std::size_t>(p)];
      const std::size_t n = pr.order.size();
      // min_due[k]: earliest due time among deliveries k..n-1, i.e. the
      // oldest message still outstanding just before delivery k.
      std::vector<TimePoint> min_due(n + 1, std::numeric_limits<TimePoint>::max());
      for (std::size_t k = n; k-- > 0;) {
        min_due[k] = std::min(min_due[k + 1], msgs_[pr.order[k]].due);
      }
      for (std::size_t k = 0; k < n; ++k) {
        const TimePoint at = pr.at[pr.order[k]];
        const TimePoint since = k == 0 ? min_due[0] : std::max(pr.at[pr.order[k - 1]], min_due[k]);
        // Deliveries in the drain after the window count in the last slice.
        const auto s = std::min<std::size_t>(
            slices - 1, static_cast<std::size_t>(std::max<TimePoint>(0, at - start) / slice));
        worst[s] = std::max(worst[s], at - since);
      }
    }
    return worst;
  }

  std::uint64_t digest(const std::vector<ProcessId>& procs) const {
    std::uint64_t h = msgs_.size();
    for (ProcessId p : procs) {
      const Proc& pr = procs_[static_cast<std::size_t>(p)];
      for (std::uint32_t idx : pr.order) h = mix(h ^ idx ^ (static_cast<std::uint64_t>(pr.at[idx]) << 20));
    }
    return h;
  }

  std::size_t submitted() const { return msgs_.size(); }
  TimePoint first_view(ProcessId p) const { return procs_[static_cast<std::size_t>(p)].first_view; }
  TimePoint excluded_at(ProcessId p) const { return procs_[static_cast<std::size_t>(p)].excluded_at; }

 private:
  struct Pred {
    std::uint32_t idx;
    std::uint64_t digest;  ///< order-free digest of everything delivered before
    std::size_t count;
  };
  struct Proc {
    bool warm = false;
    std::vector<std::uint8_t> count;
    std::vector<TimePoint> at;
    std::vector<std::uint32_t> order;
    std::vector<Pred> preds;
    std::uint64_t set_digest = 0;
    std::size_t cursor = 0;
    TimePoint first_view = -1;
    TimePoint excluded_at = -1;
  };

  std::vector<Msg> msgs_;
  std::vector<Proc> procs_;
  ProcessId crashed_ = gcs::kNoProcess;
  std::uint64_t foreign_ = 0;
};

// ---------------------------------------------------------------------------
// Group: the stacks of one repetition, simulated or over UDP loopback.

class Group {
 public:
  Group(const Workload& w, std::uint64_t seed, const gcs::StackConfig& cfg, bool traced)
      : universe_(w.founders + w.spares) {
    if (w.udp) {
      build_udp(seed, cfg, traced);
    } else if (!traced) {
      world_ = std::make_unique<gcs::World>(
          gcs::World::Config{.n = universe_, .link = {}, .seed = seed, .stack = cfg});
    } else {
      // Same construction as World, but through the custom-transport
      // constructor so a TimingTransport sits under every stack.
      engine_ = std::make_unique<gcs::sim::Engine>();
      network_ = std::make_unique<gcs::sim::Network>(*engine_, universe_, gcs::sim::LinkModel{}, seed);
      for (ProcessId p = 0; p < universe_; ++p) {
        gcs::sim::Network* net = network_.get();
        auto timing = std::make_unique<TimingTransport>(p, universe_, [net, p] { net->crash(p); });
        TimingTransport* raw = timing.get();
        stacks_.push_back(std::make_unique<GcsStack>(*engine_, std::move(timing), p, seed, cfg));
        raw->bind(std::make_unique<gcs::SimTransport>(stacks_.back()->context(), *network_));
      }
    }
    anchor();
  }

  int universe() const { return universe_; }
  GcsStack& stack(ProcessId p) {
    return world_ ? world_->stack(p) : *stacks_[static_cast<std::size_t>(p)];
  }
  gcs::sim::Engine& engine() { return world_ ? world_->engine() : *engine_; }
  gcs::rt::RealTimeRunner* runner() { return runner_.get(); }
  const std::vector<std::unique_ptr<gcs::sim::Context>>& udp_contexts() const { return udp_ctxs_; }

  /// The latency clock: virtual time in simulation, wall time (on the
  /// engine's scale) over UDP.
  TimePoint now() {
    if (!runner_) return engine().now();
    return base_ + (now_ns() - origin_ns_) / 1000;
  }

  /// Re-align the wall clock with the engine before a RealTimeRunner run.
  void anchor() {
    origin_ns_ = now_ns();
    base_ = engine().now();
  }

  /// Run until \p done holds or the clock reaches \p limit.
  bool run_until(const std::function<bool()>& done, TimePoint limit) {
    if (runner_) {
      anchor();
      return runner_->run_until(std::chrono::milliseconds((limit - now()) / 1000 + 1), done);
    }
    while (!done()) {
      if (engine().now() >= limit) return false;
      engine().run_until(std::min(limit, engine().now() + msec(1)));
    }
    return true;
  }

 private:
  void build_udp(std::uint64_t seed, const gcs::StackConfig& cfg, bool traced) {
    engine_ = std::make_unique<gcs::sim::Engine>();
    runner_ = std::make_unique<gcs::rt::RealTimeRunner>(*engine_);
    gcs::rt::UdpTransport::Config ucfg;
    ucfg.base_port = static_cast<std::uint16_t>(41000 + (seed % 500) * 8);
    for (ProcessId p = 0; p < universe_; ++p) {
      udp_ctxs_.push_back(std::make_unique<gcs::sim::Context>(
          p, *engine_, gcs::Rng(seed + static_cast<std::uint64_t>(p)), gcs::Logger(),
          std::make_shared<gcs::Metrics>()));
      std::unique_ptr<gcs::rt::UdpTransport> udp;
      try {
        udp = std::make_unique<gcs::rt::UdpTransport>(*udp_ctxs_.back(), universe_, ucfg);
      } catch (const std::exception& e) {
        throw std::runtime_error(std::string(e.what()) + " (UDP port " +
                                 std::to_string(ucfg.base_port + p) + " on " + ucfg.host +
                                 " is unavailable)");
      }
      gcs::rt::UdpTransport* raw = udp.get();
      std::unique_ptr<gcs::Transport> transport;
      if (traced) {
        runner_->add_pollable([raw] {
          SpanScope span(kPollKey);
          return raw->poll();
        });
        auto timing = std::make_unique<TimingTransport>(p, universe_);
        timing->bind(std::move(udp));
        transport = std::move(timing);
      } else {
        runner_->add_pollable([raw] { return raw->poll(); });
        transport = std::move(udp);
      }
      stacks_.push_back(std::make_unique<GcsStack>(*engine_, std::move(transport), p, seed, cfg));
    }
  }

  int universe_;
  std::unique_ptr<gcs::World> world_;
  std::unique_ptr<gcs::sim::Engine> engine_;
  std::unique_ptr<gcs::sim::Network> network_;
  std::unique_ptr<gcs::rt::RealTimeRunner> runner_;
  std::vector<std::unique_ptr<gcs::sim::Context>> udp_ctxs_;
  std::vector<std::unique_ptr<GcsStack>> stacks_;
  std::int64_t origin_ns_ = 0;
  TimePoint base_ = 0;
};

// ---------------------------------------------------------------------------
// Open-loop load: Poisson arrivals from one engine timer chain.

class Load {
 public:
  Load(Group& g, Ledger& ledger, const Workload& w, std::uint64_t seed,
       std::vector<ProcessId> senders, TimePoint start, TimePoint end)
      : g_(g), ledger_(ledger), w_(w), rng_(gcs::Rng::stream(seed, 0x10adu)),
        senders_(std::move(senders)), next_(start), end_(end) {}

  void start() { arm(); }
  void drop_sender(ProcessId p) { std::erase(senders_, p); }
  bool finished() const { return finished_; }
  std::uint64_t submitted() const { return submitted_; }
  Duration late_max() const { return late_max_; }

 private:
  void arm() {
    g_.engine().schedule_at(next_, [this] { fire(); });
  }

  void fire() {
    const TimePoint now = g_.now();
    while (next_ <= g_.engine().now() && next_ < end_) {
      late_max_ = std::max(late_max_, now - next_);
      submit(next_);
      next_ += std::llround(-std::log1p(-rng_.next_double()) * 1e6 / w_.rate);
    }
    if (next_ < end_) {
      arm();
    } else {
      finished_ = true;
    }
  }

  void submit(TimePoint due) {
    const ProcessId from = senders_[rng_.next_below(senders_.size())];
    const bool conflict = w_.generic && rng_.chance(w_.conflict_share);
    Bytes payload = make_payload(w_.payload, ledger_.add(due, from, conflict));
    ++submitted_;
    GcsStack& s = g_.stack(from);
    SpanScope span(kSubmitKey);
    if (w_.generic) {
      s.gbcast(conflict ? gcs::kAbcastClass : gcs::kRbcastClass, std::move(payload));
    } else {
      s.abcast(std::move(payload));
    }
  }

  Group& g_;
  Ledger& ledger_;
  const Workload& w_;
  gcs::Rng rng_;
  std::vector<ProcessId> senders_;
  TimePoint next_;
  TimePoint end_;
  bool finished_ = false;
  std::uint64_t submitted_ = 0;
  Duration late_max_ = 0;
};

// ---------------------------------------------------------------------------
// Per-layer report of a traced repetition.

const char* const kCounters[] = {
    "channel.retransmits", "consensus.wire_msgs", "rbcast.wire_bytes",
    "abcast.delivered",    "consensus.decided",   "consensus.rounds",
    "consensus.instances_started", "gbcast.fast_delivered", "gbcast.resolved_delivered",
    "gbcast.resolutions_triggered", "membership.wire_bytes",
};

std::map<std::string, std::int64_t> sum_counters(Group& g) {
  std::map<std::string, std::int64_t> out;
  for (const char* name : kCounters) {
    std::int64_t v = 0;
    for (ProcessId p = 0; p < g.universe(); ++p) v += g.stack(p).metrics().counter(name);
    out[name] = v;
  }
  return out;
}

double median_ms(Group& g, const char* histogram) {
  std::vector<Duration> all;
  for (ProcessId p = 0; p < g.universe(); ++p) {
    const auto& s = g.stack(p).metrics().histogram(histogram).samples();
    all.insert(all.end(), s.begin(), s.end());
  }
  if (all.empty()) return 0;
  std::nth_element(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(all.size() / 2), all.end());
  return static_cast<double>(all[all.size() / 2]) / 1000.0;
}

/// Which layer a span's self time and allocations belong to.
const char* layer_of(SpanKey k) {
  switch (key_kind(k)) {
    case SpanKind::kSubmit: return "app";
    case SpanKind::kPoll: return "runtime";
    case SpanKind::kSend: return "transport";
    case SpanKind::kRecv: break;
  }
  if (key_tag(k) != Tag::kChannel) return gcs::tag_name(key_tag(k));
  if (key_frame(k) == Frame::kAck) return "channel";
  switch (key_upper(k)) {
    case Tag::kGbData: return "gbcast";
    case Tag::kConsensus: case Tag::kRbcast: case Tag::kAbcast: case Tag::kGbcast:
    case Tag::kMembership: case Tag::kMonitoring:
      return gcs::tag_name(key_upper(k));
    default: return "channel";
  }
}

const char* const kAllocLayers[] = {"transport", "channel",    "fd",  "consensus", "rbcast",
                                    "abcast",    "gbcast",     "membership", "monitoring",
                                    "app",       "runtime",    "sim"};

}  // namespace

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const Workload& w : kWorkloads) out.emplace_back(w.name);
  return out;
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n = {
        "transport.send_ns_per_msg", "transport.datagrams_per_msg", "transport.bytes_per_msg",
        "transport.pool_buffers",
        "channel.ack_rx_ns_per_msg", "channel.acks_per_msg", "channel.retransmits_per_msg",
        "channel.retransmit_ns_per_msg", "channel.residence_ms",
        "fd.rx_ns_per_msg", "fd.heartbeats_per_msg",
        "consensus.rx_ns_per_msg", "consensus.datagrams_per_msg", "consensus.accept_rtt_ms",
        "consensus.propose_wait_ms", "consensus.rounds_per_instance",
        "rbcast.rx_ns_per_msg", "rbcast.bytes_per_msg", "abcast.msgs_per_instance",
        "abcast.batch_wait_ms", "abcast.order_latency_ms", "abcast.pull_rx_ns_per_msg",
        "gbcast.ack_rx_ns_per_msg", "gbcast.data_rx_ns_per_msg", "gbcast.fast_ratio",
        "gbcast.fast_latency_ms", "gbcast.resolutions_per_1k_msgs", "gbcast.slow_latency_ms",
        "membership.exclusion_ms", "membership.join_ms", "membership.state_bytes",
        "monitoring.rx_ns_per_msg",
        "sim.events_per_msg", "sim.residual_ns_per_msg",
        "runtime.poll_ns_per_msg", "runtime.idle_sleep_frac", "runtime.max_timer_lag_ms",
        "runtime.udp_drops", "load.late_max_ms", "app.submit_ns_per_msg",
        "alloc.per_msg", "alloc.bytes_per_msg",
    };
    for (const char* layer : kAllocLayers) n.push_back(std::string(layer) + ".allocs_per_msg");
    for (std::size_t i = 0; i < gcs::obs::kNumPathPhases; ++i) {
      n.push_back("path." +
                  std::string(gcs::obs::path_phase_name(static_cast<gcs::obs::PathPhase>(i))) + "_ms");
    }
    n.push_back("path.coverage");
    n.push_back("trace.span_coverage");
    n.push_back("trace.overhead_us_per_msg");
    n.push_back("host.raw_cpu_us_per_msg");
    n.push_back("host.ref_chunk_us");
    return n;
  }();
  return names;
}

RepResult run_rep(const Workload& w, const RepOptions& opt) {
  RepResult r;
  const int universe = w.founders + w.spares;
  gcs::StackConfig cfg;  // the shipped defaults
  std::shared_ptr<gcs::obs::Recorder> recorder;
  if (opt.traced && !w.udp) {
    // Not over UDP: recording every protocol step there costs enough CPU
    // to overload the real-time loop, which then stops keeping up.
    recorder = std::make_shared<gcs::obs::Recorder>(kRecorderCapacity);
    cfg.recorder = recorder;
  }
  const Duration window = w.udp ? opt.udp_window : w.window;
  const auto capacity =
      opt.setup_only ? std::size_t{16}
                     : static_cast<std::size_t>(w.rate * static_cast<double>(window) * 1.5e-6) + 1024;
  Ledger ledger(universe, capacity);
  gcs::obs::Oracle oracle;

  const double t0 = wall_seconds();
  Group g(w, opt.seed, cfg, opt.traced);
  std::vector<ProcessId> founders;
  for (ProcessId p = 0; p < w.founders; ++p) founders.push_back(p);
  if (opt.traced) {
    const gcs::ConflictRelation rel = g.stack(0).generic_broadcast().relation();
    oracle.set_conflicts([rel](std::uint8_t a, std::uint8_t b) { return rel.conflicts(a, b); });
    for (ProcessId p = 0; p < universe; ++p) g.stack(p).attach_oracle(oracle);
  }
  for (ProcessId p = 0; p < universe; ++p) {
    GcsStack& s = g.stack(p);
    if (w.generic) {
      s.on_gdeliver([&ledger, &g, p](const gcs::MsgId&, gcs::MsgClass, const Bytes& b) {
        ledger.deliver(p, payload_idx(b), g.now());
      });
    } else {
      s.on_adeliver([&ledger, &g, p](const gcs::MsgId&, const Bytes& b) {
        ledger.deliver(p, payload_idx(b), g.now());
      });
    }
    s.on_view([&ledger, &g, p](const gcs::View& v) { ledger.view(p, v, g.now()); });
  }
  for (ProcessId p : founders) g.stack(p).init_view(founders);
  if (w.generic) {
    g.stack(0).gbcast(gcs::kAbcastClass, make_payload(w.payload, kWarmIdx));
  } else {
    g.stack(0).abcast(make_payload(w.payload, kWarmIdx));
  }
  if (!g.run_until([&] { return ledger.warm(founders); }, g.now() + sec(5))) {
    throw std::runtime_error(std::string(w.name) + ": warm-up message not delivered within 5 s");
  }
  r.setup_s = wall_seconds() - t0;
  if (opt.setup_only) {
    // Simulated set-up is pure CPU work, so it is read against host speed
    // too; UDP set-up mostly waits on the real-time loop.
    if (!w.udp) {
      const double before = host_speed().cpu_s();
      host_speed().sample();
      r.host_chunk_us = (host_speed().cpu_s() - before) * 1e6;
    }
    return r;
  }

  // -- measured window -------------------------------------------------
  g.anchor();
  const TimePoint start = g.now() + msec(1);
  const TimePoint end = start + window;
  Load load(g, ledger, w, opt.seed, founders, start, end);
  std::vector<ProcessId> stable = founders;
  ProcessId joiner = gcs::kNoProcess;
  TimePoint crash_ts = -1, join_ts = -1;
  if (w.crash_at >= 0) {
    const ProcessId victim = founders.front();
    std::erase(stable, victim);
    g.engine().schedule_at(start + w.crash_at, [&, victim] {
      crash_ts = g.now();
      ledger.crash(victim);
      load.drop_sender(victim);
      g.stack(victim).crash();
    });
  }
  if (w.join_at >= 0) {
    joiner = w.founders;
    g.engine().schedule_at(start + w.join_at, [&] {
      join_ts = g.now();
      g.stack(joiner).join(stable.front());
    });
  }

  const auto counters0 = opt.traced ? sum_counters(g) : std::map<std::string, std::int64_t>{};
  const std::uint64_t events0 = g.engine().executed();
  const std::uint64_t iters0 = g.runner() ? g.runner()->iterations() : 0;
  const std::uint64_t idle0 = g.runner() ? g.runner()->idle_sleeps() : 0;
  // Host speed is sampled through simulated windows only: over UDP a pause
  // inside the window would delay real deliveries. Traced repetitions skip
  // it too: its allocations would be charged to "sim".
  HostSpeed* speed = opt.traced || w.udp ? nullptr : &host_speed();
  const int chunks0 = speed ? speed->chunks() : 0;
  const double chunk_cpu0 = speed ? speed->cpu_s() : 0.0;
  gcs::sim::PeriodicTimer speed_timer;
  if (speed) speed_timer.start(g.engine(), kSpeedPeriod, [speed](TimePoint) { speed->sample(); });
  const double cpu0 = cpu_seconds();
  const double wall0 = wall_seconds();
  const std::int64_t window_ns0 = now_ns();
  if (opt.traced) spans().start();
  load.start();
  const bool drained = g.run_until(
      [&] { return load.finished() && g.now() >= end && ledger.drained(stable, joiner); },
      end + kDrainLimit);
  if (opt.traced) spans().stop();
  const std::int64_t window_ns = now_ns() - window_ns0;
  const double chunk_cpu = speed ? speed->cpu_s() - chunk_cpu0 : 0.0;
  r.cpu_s = cpu_seconds() - cpu0 - chunk_cpu;
  speed_timer.stop();
  if (speed && speed->chunks() > chunks0) {
    r.host_chunk_us = chunk_cpu * 1e6 / (speed->chunks() - chunks0);
  }
  r.wall_s = wall_seconds() - wall0;
  const std::uint64_t events = g.engine().executed() - events0;
  g.run_until([] { return false; }, g.now() + kSettle);

  // -- checks ----------------------------------------------------------
  r.submitted = load.submitted();
  r.late_max_us = load.late_max();
  if (!drained) {
    r.failures.push_back("deliveries still outstanding " + std::to_string(kDrainLimit / 1000) +
                         " ms after the window");
  }
  if (!w.udp && r.late_max_us != 0) {
    r.failures.push_back("load generator ran late in simulation");
  }
  r.failed = ledger.check(stable, joiner, !w.generic, r.failures);
  if (r.failed == 0 && !r.failures.empty()) r.failed = 1;
  const Duration slice = w.udp ? kUdpSlice : window;
  for (std::vector<Duration>& lat : ledger.latencies(stable, start, slice)) {
    if (lat.empty()) continue;
    r.samples += lat.size();
    r.p50_ms.push_back(percentile_ms(lat, 0.50));
    r.p99_ms.push_back(percentile_ms(lat, 0.99));
  }
  const Duration stall_slice = w.udp ? kUdpStallSlice : window;
  const auto slices = static_cast<std::size_t>((window + stall_slice - 1) / stall_slice);
  for (Duration stall : ledger.longest_stalls(stable, start, stall_slice, slices)) {
    r.stall_ms.push_back(static_cast<double>(stall) / 1000.0);
  }
  std::vector<ProcessId> everyone = stable;
  if (joiner != gcs::kNoProcess) everyone.push_back(joiner);
  r.outcome_digest = ledger.digest(everyone);
  if (!opt.traced) return r;

  // -- per-layer report (traced) ---------------------------------------
  oracle.finalize();
  r.oracle_summary = oracle.summary();
  if (!oracle.passed()) {
    ++r.failed;
    r.failures.push_back("oracle reported violations");
  }
  const double msgs = std::max<double>(1.0, static_cast<double>(r.submitted));
  auto& L = r.layer;
  for (const std::string& name : layer_metric_names()) L[name] = 0.0;

  std::map<std::string, double> self_ns, allocs;
  double sum_self = 0, send_self = 0, datagrams = 0, bytes = 0, acks = 0, heartbeats = 0,
         retransmit_ns = 0, total_allocs = 0, total_alloc_bytes = 0, gb_ack_ns = 0, gb_data_ns = 0;
  for (std::size_t k = 0; k < kNumKeys; ++k) {
    const SpanKey key = static_cast<SpanKey>(k);
    const SpanStats& s = spans().stats(key);
    if (s.count == 0 && s.allocs == 0) continue;
    const char* layer = layer_of(key);
    self_ns[layer] += static_cast<double>(s.self_ns);
    allocs[layer] += static_cast<double>(s.allocs);
    sum_self += static_cast<double>(s.self_ns);
    total_allocs += static_cast<double>(s.allocs);
    total_alloc_bytes += static_cast<double>(s.alloc_bytes);
    r.fingerprint.insert(r.fingerprint.end(), {k, s.count, s.allocs, s.alloc_bytes, s.datagrams, s.bytes});
    // Generic broadcast's acks and data floods are separate upper tags.
    if (key_kind(key) == SpanKind::kRecv && key_tag(key) == Tag::kChannel) {
      if (key_upper(key) == Tag::kGbcast) gb_ack_ns += static_cast<double>(s.self_ns);
      if (key_upper(key) == Tag::kGbData) gb_data_ns += static_cast<double>(s.self_ns);
    }
    if (key_kind(key) == SpanKind::kSend) {
      send_self += static_cast<double>(s.self_ns);
      datagrams += static_cast<double>(s.datagrams);
      bytes += static_cast<double>(s.bytes);
      if (key_tag(key) == Tag::kFd) heartbeats += static_cast<double>(s.datagrams);
      if (key_tag(key) == Tag::kChannel && key_frame(key) == Frame::kAck) {
        acks += static_cast<double>(s.datagrams);
      }
      if (key_root(key) && key_tag(key) == Tag::kChannel && key_frame(key) != Frame::kAck) {
        retransmit_ns += static_cast<double>(s.incl_ns);
      }
    }
  }
  const SpanStats& outside = spans().outside();
  allocs["sim"] += static_cast<double>(outside.allocs);
  total_allocs += static_cast<double>(outside.allocs);
  total_alloc_bytes += static_cast<double>(outside.alloc_bytes);
  r.fingerprint.insert(r.fingerprint.end(), {outside.allocs, outside.alloc_bytes, events, r.submitted});

  // Honesty: span self times plus the residual must add up to the window.
  const double residual = static_cast<double>(window_ns) - static_cast<double>(spans().top_ns());
  const double accounted = sum_self + residual;
  if (std::abs(accounted - static_cast<double>(window_ns)) > 0.01 * static_cast<double>(window_ns) ||
      spans().depth() != 0) {
    ++r.failed;
    r.failures.push_back("span self times do not account for the measured window");
  }
  L["trace.span_coverage"] = sum_self / static_cast<double>(window_ns);

  const auto counters1 = sum_counters(g);
  auto delta = [&](const char* name) {
    return static_cast<double>(counters1.at(name) - counters0.at(name));
  };
  auto ratio = [](double a, double b) { return b == 0 ? 0.0 : a / b; };
  auto rx = [&](const char* layer) {
    const auto it = self_ns.find(layer);
    return it == self_ns.end() ? 0.0 : it->second / msgs;
  };
  std::size_t pool = 0;
  for (ProcessId p = 0; p < universe; ++p) pool = std::max(pool, g.stack(p).context().pool().size());

  L["transport.send_ns_per_msg"] = send_self / msgs;
  L["transport.datagrams_per_msg"] = datagrams / msgs;
  L["transport.bytes_per_msg"] = bytes / msgs;
  L["transport.pool_buffers"] = static_cast<double>(pool);
  L["channel.ack_rx_ns_per_msg"] = rx("channel");
  L["channel.acks_per_msg"] = acks / msgs;
  L["channel.retransmits_per_msg"] = delta("channel.retransmits") / msgs;
  L["channel.retransmit_ns_per_msg"] = retransmit_ns / msgs;
  L["channel.residence_ms"] = median_ms(g, "channel.residence_us");
  L["fd.rx_ns_per_msg"] = rx("fd");
  L["fd.heartbeats_per_msg"] = heartbeats / msgs;
  L["consensus.rx_ns_per_msg"] = rx("consensus");
  L["consensus.datagrams_per_msg"] = delta("consensus.wire_msgs") / msgs;
  L["consensus.accept_rtt_ms"] = median_ms(g, "consensus.accept_rtt_us");
  L["consensus.propose_wait_ms"] = median_ms(g, "consensus.propose_wait_us");
  L["consensus.rounds_per_instance"] =
      ratio(delta("consensus.rounds"), delta("consensus.instances_started"));
  L["rbcast.rx_ns_per_msg"] = rx("rbcast");
  L["rbcast.bytes_per_msg"] = delta("rbcast.wire_bytes") / msgs;
  L["abcast.msgs_per_instance"] = ratio(delta("abcast.delivered"), delta("consensus.decided"));
  L["abcast.batch_wait_ms"] = median_ms(g, "abcast.batch_wait_us");
  L["abcast.order_latency_ms"] = median_ms(g, "abcast.order_latency_us");
  L["abcast.pull_rx_ns_per_msg"] = rx("abcast");
  L["monitoring.rx_ns_per_msg"] = rx("monitoring");
  L["app.submit_ns_per_msg"] = rx("app");
  L["runtime.poll_ns_per_msg"] = rx("runtime");
  L["sim.events_per_msg"] = static_cast<double>(events) / msgs;
  L["sim.residual_ns_per_msg"] = residual / msgs;
  L["load.late_max_ms"] = static_cast<double>(r.late_max_us) / 1000.0;
  L["alloc.per_msg"] = total_allocs / msgs;
  L["alloc.bytes_per_msg"] = total_alloc_bytes / msgs;
  for (const char* layer : kAllocLayers) {
    L[std::string(layer) + ".allocs_per_msg"] = allocs.count(layer) ? allocs[layer] / msgs : 0.0;
  }

  L["gbcast.ack_rx_ns_per_msg"] = gb_ack_ns / msgs;
  L["gbcast.data_rx_ns_per_msg"] = gb_data_ns / msgs;
  const double fast = delta("gbcast.fast_delivered");
  L["gbcast.fast_ratio"] = ratio(fast, fast + delta("gbcast.resolved_delivered"));
  L["gbcast.fast_latency_ms"] = median_ms(g, "gbcast.fast_latency_us");
  L["gbcast.slow_latency_ms"] = median_ms(g, "gbcast.slow_latency_us");
  L["gbcast.resolutions_per_1k_msgs"] = delta("gbcast.resolutions_triggered") * 1000.0 / msgs;

  if (crash_ts >= 0) {
    TimePoint excluded = -1;
    for (ProcessId p : stable) excluded = std::max(excluded, ledger.excluded_at(p));
    if (excluded >= 0) L["membership.exclusion_ms"] = static_cast<double>(excluded - crash_ts) / 1000.0;
  }
  if (join_ts >= 0 && ledger.first_view(joiner) >= 0) {
    L["membership.join_ms"] = static_cast<double>(ledger.first_view(joiner) - join_ts) / 1000.0;
  }
  L["membership.state_bytes"] = delta("membership.wire_bytes");

  if (gcs::rt::RealTimeRunner* runner = g.runner()) {
    L["runtime.idle_sleep_frac"] =
        ratio(static_cast<double>(runner->idle_sleeps() - idle0),
              static_cast<double>(runner->iterations() - iters0));
    L["runtime.max_timer_lag_ms"] = static_cast<double>(runner->max_timer_lag_us()) / 1000.0;
    double drops = 0;
    for (const auto& ctx : g.udp_contexts()) {
      for (const char* name : {"udp.rx_truncated_drops", "udp.tx_oversized_drops",
                               "udp.rx_unknown_peer", "udp.rx_unknown_tag"}) {
        drops += static_cast<double>(ctx->metrics().counter(name));
      }
    }
    L["runtime.udp_drops"] = drops;
  }

  const gcs::obs::CriticalPathStats path =
      recorder ? gcs::obs::analyze_critical_path(*recorder) : gcs::obs::CriticalPathStats{};
  if (!path.paths.empty()) {
    for (std::size_t i = 0; i < gcs::obs::kNumPathPhases; ++i) {
      double sum = 0;
      for (const auto& b : path.paths) sum += static_cast<double>(b.phase[i]);
      L["path." + std::string(gcs::obs::path_phase_name(static_cast<gcs::obs::PathPhase>(i))) +
        "_ms"] = sum / static_cast<double>(path.paths.size()) / 1000.0;
    }
  }
  if (recorder) L["path.coverage"] = path.coverage();
  if (path.truncated) std::fprintf(stderr, "perfbench: flight recorder wrapped; path.* covers the tail only\n");
  for (ProcessId p : stable) {
    std::fprintf(stderr, "perfbench: p%d channel.retransmits=%lld\n", p,
                 static_cast<long long>(g.stack(p).metrics().counter("channel.retransmits")));
  }
  return r;
}

}  // namespace perfbench
