#include "spans.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "util/codec.hpp"

namespace perfbench {

namespace {
// Constant-initialized: the counting allocator may run before main().
constinit Spans g_spans;

// Public reliable-channel framing (channel/reliable_channel.cpp).
constexpr std::uint8_t kChannelData = 0;
constexpr std::uint8_t kChannelAck = 1;
constexpr std::uint8_t kChannelBatch = 2;
}  // namespace

Spans& spans() { return g_spans; }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanKey wire_key(SpanKind kind, bool root, gcs::Tag tag, gcs::BytesView payload) {
  Frame frame = Frame::kNone;
  gcs::Tag upper = gcs::Tag{0};
  if (tag == gcs::Tag::kChannel && !payload.empty()) {
    gcs::Decoder dec(payload);
    const std::uint8_t kind_byte = dec.get_byte();
    if (kind_byte == kChannelAck) {
      frame = Frame::kAck;
    } else if (kind_byte == kChannelData || kind_byte == kChannelBatch) {
      frame = kind_byte == kChannelData ? Frame::kData : Frame::kBatch;
      if (frame == Frame::kBatch) dec.get_u64();  // entry count
      dec.get_u64();                               // first entry's seq
      const std::uint8_t up = dec.get_byte();
      if (dec.ok() && up < static_cast<std::uint8_t>(gcs::Tag::kMax)) {
        upper = static_cast<gcs::Tag>(up);
      }
    }
  }
  return make_key(kind, root, tag, frame, upper);
}

void Spans::start() {
  stats_.fill(SpanStats{});
  outside_ = SpanStats{};
  top_ns_ = 0;
  depth_ = 0;
  enabled_ = true;
}

void Spans::begin(SpanKey key) {
  if (depth_ == kMaxDepth) {
    std::fprintf(stderr, "perfbench: span stack overflow\n");
    std::abort();
  }
  stack_[depth_++] = Open{key, now_ns(), 0};
}

void Spans::end() {
  const Open open = stack_[--depth_];
  const std::int64_t dur = now_ns() - open.start;
  SpanStats& s = stats_[open.key];
  ++s.count;
  s.incl_ns += static_cast<std::uint64_t>(dur);
  s.self_ns += static_cast<std::uint64_t>(dur - open.child_ns);
  if (depth_ > 0) {
    stack_[depth_ - 1].child_ns += dur;
  } else {
    top_ns_ += static_cast<std::uint64_t>(dur);
  }
}

void TimingTransport::bind(std::unique_ptr<gcs::Transport> inner) {
  inner_ = std::move(inner);
  for (std::size_t t = 0; t < handlers_.size(); ++t) {
    if (handlers_[t]) subscribe_inner(static_cast<gcs::Tag>(t));
  }
}

void TimingTransport::u_send(gcs::ProcessId to, gcs::Tag tag, const gcs::Bytes& payload) {
  if (!spans().enabled()) {
    inner_->u_send(to, tag, payload);
    return;
  }
  const SpanKey key = wire_key(SpanKind::kSend, spans().depth() == 0, tag, payload);
  spans().note_datagrams(key, 1, payload.size() + 1);
  SpanScope span(key);
  inner_->u_send(to, tag, payload);
}

void TimingTransport::u_send_group(const std::vector<gcs::ProcessId>& group, gcs::Tag tag,
                                   const gcs::Bytes& payload) {
  if (!spans().enabled()) {
    inner_->u_send_group(group, tag, payload);
    return;
  }
  const SpanKey key = wire_key(SpanKind::kSend, spans().depth() == 0, tag, payload);
  spans().note_datagrams(key, group.size(), group.size() * (payload.size() + 1));
  SpanScope span(key);
  inner_->u_send_group(group, tag, payload);
}

void TimingTransport::subscribe(gcs::Tag tag, Handler handler) {
  handlers_[static_cast<std::size_t>(tag)] = std::move(handler);
  if (inner_) subscribe_inner(tag);
}

void TimingTransport::subscribe_inner(gcs::Tag tag) {
  Handler& handler = handlers_[static_cast<std::size_t>(tag)];
  inner_->subscribe(tag, [&handler, tag](gcs::ProcessId from, gcs::BytesView payload) {
    if (!spans().enabled()) {
      handler(from, payload);
      return;
    }
    SpanScope span(wire_key(SpanKind::kRecv, false, tag, payload));
    handler(from, payload);
  });
}

void TimingTransport::kill() {
  if (inner_) inner_->kill();
  if (on_kill_) on_kill_();
}

}  // namespace perfbench
