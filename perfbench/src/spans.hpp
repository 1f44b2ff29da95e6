/// \file spans.hpp
/// Per-layer accounting measured from outside the stack.
///
/// The benchmark never edits the stack to time it. Instead it wraps the
/// calls that cross a layer boundary and that it can reach through public
/// API:
///   - submit: the application's abcast()/gbcast() call;
///   - send:   Transport::u_send / u_send_group (a TimingTransport
///             decorator sits between the stack and the real transport);
///   - recv:   the up-call from the transport into the subscribed
///             component, keyed by wire tag and, for the reliable channel,
///             by its public framing (frame kind + upper tag);
///   - poll:   one RealTimeRunner pollable (UDP runs only).
///
/// Spans nest on one thread, so each span's self time is its duration
/// minus its children's. Aggregates per key are kept in a fixed table
/// (no allocation while tracing). The counting operator new attributes
/// every allocation to the innermost open span, or to "outside" when no
/// span is open (engine, network model, component timers, harness).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "transport/transport.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t { kSubmit = 0, kSend = 1, kRecv = 2, kPoll = 3 };
/// Reliable-channel frame kinds (kNone for every other tag).
enum class Frame : std::uint8_t { kNone = 0, kData = 1, kAck = 2, kBatch = 3 };

/// kind(2) | root(1) | tag(4) | frame(2) | upper(4). `root` marks a span
/// opened with no submit/recv span around it (a timer-issued send).
using SpanKey = std::uint16_t;
inline constexpr std::size_t kNumKeys = 1u << 13;

constexpr SpanKey make_key(SpanKind kind, bool root, gcs::Tag tag, Frame frame,
                           gcs::Tag upper) {
  return static_cast<SpanKey>((static_cast<unsigned>(kind) << 11) | ((root ? 1u : 0u) << 10) |
                              ((static_cast<unsigned>(tag) & 0xf) << 6) |
                              (static_cast<unsigned>(frame) << 4) |
                              (static_cast<unsigned>(upper) & 0xf));
}
constexpr SpanKind key_kind(SpanKey k) { return static_cast<SpanKind>(k >> 11); }
constexpr bool key_root(SpanKey k) { return ((k >> 10) & 1u) != 0; }
constexpr gcs::Tag key_tag(SpanKey k) { return static_cast<gcs::Tag>((k >> 6) & 0xf); }
constexpr Frame key_frame(SpanKey k) { return static_cast<Frame>((k >> 4) & 0x3); }
constexpr gcs::Tag key_upper(SpanKey k) { return static_cast<gcs::Tag>(k & 0xf); }

/// Key for a datagram of \p tag carrying \p payload (the bytes after the
/// transport's tag byte). Reliable-channel frames are parsed far enough
/// to read their kind and the first entry's upper tag.
SpanKey wire_key(SpanKind kind, bool root, gcs::Tag tag, gcs::BytesView payload);

struct SpanStats {
  std::uint64_t count = 0;
  std::uint64_t incl_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t datagrams = 0;  ///< send keys: datagrams put on the wire
  std::uint64_t bytes = 0;      ///< send keys: bytes incl. the tag byte
};

std::int64_t now_ns();

class Spans {
 public:
  constexpr Spans() = default;

  /// Zero every aggregate and start attributing (tracing on).
  void start();
  /// Stop attributing; aggregates stay readable.
  void stop() { enabled_ = false; }
  bool enabled() const { return enabled_; }
  int depth() const { return depth_; }

  void begin(SpanKey key);
  void end();

  /// Called by the counting allocator for every allocation.
  void note_alloc(std::size_t bytes) {
    if (!enabled_) return;
    SpanStats& s = depth_ > 0 ? stats_[stack_[depth_ - 1].key] : outside_;
    ++s.allocs;
    s.alloc_bytes += bytes;
  }
  void note_datagrams(SpanKey key, std::uint64_t copies, std::uint64_t bytes) {
    stats_[key].datagrams += copies;
    stats_[key].bytes += bytes;
  }

  const SpanStats& stats(SpanKey key) const { return stats_[key]; }
  /// Allocations made while no span was open.
  const SpanStats& outside() const { return outside_; }
  /// Wall time covered by outermost spans since start().
  std::uint64_t top_ns() const { return top_ns_; }

 private:
  struct Open {
    SpanKey key = 0;
    std::int64_t start = 0;
    std::int64_t child_ns = 0;
  };
  static constexpr int kMaxDepth = 64;

  bool enabled_ = false;
  int depth_ = 0;
  std::array<Open, kMaxDepth> stack_{};
  std::array<SpanStats, kNumKeys> stats_{};
  SpanStats outside_{};
  std::uint64_t top_ns_ = 0;
};

/// The benchmark's single span table (one thread drives every stack).
Spans& spans();

/// RAII span; a no-op while tracing is off.
class SpanScope {
 public:
  explicit SpanScope(SpanKey key) : on_(spans().enabled()) {
    if (on_) spans().begin(key);
  }
  ~SpanScope() {
    if (on_) spans().end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool on_;
};

/// Transport decorator that opens a send span around every u_send /
/// u_send_group and a recv span around every up-call. The inner transport
/// may be bound after construction: a SimTransport needs the stack's own
/// Context, which exists only once GcsStack has been built around this
/// decorator.
class TimingTransport final : public gcs::Transport {
 public:
  TimingTransport(gcs::ProcessId self, int universe, std::function<void()> on_kill = {})
      : self_(self), universe_(universe), on_kill_(std::move(on_kill)) {}

  void bind(std::unique_ptr<gcs::Transport> inner);

  gcs::ProcessId self() const override { return self_; }
  int universe_size() const override { return universe_; }
  void u_send(gcs::ProcessId to, gcs::Tag tag, const gcs::Bytes& payload) override;
  void u_send_group(const std::vector<gcs::ProcessId>& group, gcs::Tag tag,
                    const gcs::Bytes& payload) override;
  void subscribe(gcs::Tag tag, Handler handler) override;
  void kill() override;

 private:
  void subscribe_inner(gcs::Tag tag);

  gcs::ProcessId self_;
  int universe_;
  std::function<void()> on_kill_;
  std::unique_ptr<gcs::Transport> inner_;
  std::array<Handler, static_cast<std::size_t>(gcs::Tag::kMax)> handlers_;
};

}  // namespace perfbench
