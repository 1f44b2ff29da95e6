#include "channel/reliable_channel.hpp"

#include <algorithm>

#include "util/codec.hpp"

namespace gcs {

namespace {
constexpr std::uint8_t kData = 0;
constexpr std::uint8_t kAck = 1;
constexpr std::uint8_t kBatch = 2;

std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}
}  // namespace

ReliableChannel::ReliableChannel(sim::Context& ctx, Transport& transport)
    : ReliableChannel(ctx, transport, Config{}) {}

ReliableChannel::ReliableChannel(sim::Context& ctx, Transport& transport, Config config)
    : ctx_(ctx), transport_(transport), config_(config),
      m_sent_(metric_id("channel.sent")), m_batches_(metric_id("channel.batches")),
      m_delivered_(metric_id("channel.delivered")),
      m_retransmits_(metric_id("channel.retransmits")),
      m_retransmit_bytes_(metric_id("channel.retransmit_bytes")),
      m_acks_(metric_id("channel.acks")),
      h_residence_(metric_id("channel.residence_us")),
      h_fc_stall_(metric_id("channel.fc_stall_us")),
      handlers_(static_cast<std::size_t>(Tag::kMax)) {
  for (std::size_t t = 0; t < static_cast<std::size_t>(Tag::kMax); ++t) {
    const std::string base = tag_name(static_cast<Tag>(t));
    m_up_wire_bytes_[t] = metric_id(base + ".wire_bytes");
    m_up_wire_msgs_[t] = metric_id(base + ".wire_msgs");
  }
  transport_.subscribe(Tag::kChannel,
                       [this](ProcessId from, BytesView b) { on_datagram(from, b); });
}

void ReliableChannel::account_upper(Tag upper, std::size_t wire_bytes) {
  const auto idx = static_cast<std::size_t>(upper);
  if (idx >= m_up_wire_bytes_.size()) return;
  ctx_.metrics().inc(m_up_wire_msgs_[idx]);
  ctx_.metrics().inc(m_up_wire_bytes_[idx], static_cast<std::int64_t>(wire_bytes));
}

void ReliableChannel::send(ProcessId to, Tag upper, Payload payload) {
  Peer& peer = peers_[to];
  peer.unacked.push_back(Outgoing{upper, std::move(payload), 0});
  ctx_.metrics().inc(m_sent_);
  pump(to, peer);
  arm_retransmit_timer();
}

std::size_t ReliableChannel::admit(Peer& peer) {
  // With send_window == 0 everything goes immediately.
  std::size_t n = peer.queued();
  if (config_.send_window > 0) {
    const std::size_t room =
        peer.in_flight() < config_.send_window ? config_.send_window - peer.in_flight() : 0;
    n = std::min(n, room);
  }
  const std::size_t first = peer.in_flight();
  for (std::size_t i = 0; i < n; ++i) peer.unacked[first + i].first_sent = ctx_.now();
  peer.next_unsent += n;
  return n;
}

void ReliableChannel::pump(ProcessId to, Peer& peer) {
  if (config_.batch_delay > 0) {
    // Batching mode: defer; the flush timer packs everything eligible.
    if (!peer.flush_armed) {
      peer.flush_armed = true;
      ctx_.after(config_.batch_delay, [this, to] { flush(to); });
    }
    return;
  }
  // Transmit queued messages while the flow-control window has room.
  // Frames that drain what flow control held back ask for an ack, as do
  // frames that fill the window: the sender is waiting on those acks.
  const bool draining = peer.fc_stalled;
  const std::size_t first = peer.in_flight();
  const std::size_t n = admit(peer);
  for (std::size_t i = 0; i < n; ++i) {
    transmit(to, peer, first + i, 1, draining || fills_window(first + i + 1));
  }
  update_fc_stall(to, peer);
}

void ReliableChannel::update_fc_stall(ProcessId to, Peer& peer) {
  if (config_.send_window == 0) return;
  // Stalled = the window is full AND at least one message is held back.
  const bool stalled = peer.in_flight() >= config_.send_window && peer.queued() > 0;
  if (stalled == peer.fc_stalled) return;
  peer.fc_stalled = stalled;
  if (stalled) {
    peer.fc_since = ctx_.now();
    ctx_.trace_begin(obs::Names::get().channel_fc_stall,
                     MsgId{obs::kPeerKey, static_cast<std::uint64_t>(to)},
                     static_cast<std::int64_t>(peer.queued()));
  } else {
    ctx_.metrics().observe(h_fc_stall_, ctx_.now() - peer.fc_since);
    ctx_.trace_end(obs::Names::get().channel_fc_stall,
                   MsgId{obs::kPeerKey, static_cast<std::uint64_t>(to)});
  }
}

void ReliableChannel::flush(ProcessId to) {
  auto it = peers_.find(to);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  peer.flush_armed = false;
  const bool draining = peer.fc_stalled;
  const std::size_t first = peer.in_flight();
  const std::size_t n = admit(peer);
  update_fc_stall(to, peer);
  for (std::size_t done = 0; done < n;) {
    const std::size_t count = frame_fit(peer, first + done, n - done);
    transmit(to, peer, first + done, count, draining || fills_window(first + done + count));
    done += count;
  }
}

std::size_t ReliableChannel::frame_fit(const Peer& peer, std::size_t first, std::size_t max) {
  // Batch header: kind byte + count varint, and the ack trailer varint
  // (10 bytes covers any varint).
  std::size_t bytes = 1 + 10 + 10;
  std::size_t count = 0;
  for (; count < max; ++count) {
    const Outgoing& msg = peer.unacked[first + count];
    const std::size_t len = msg.payload.size();
    const std::size_t entry = varint_size(peer.base + first + count) + 1 + varint_size(len) + len;
    if (count > 0 && bytes + entry > kMaxFrame) break;
    bytes += entry;
  }
  return count;
}

void ReliableChannel::transmit(ProcessId to, Peer& peer, std::size_t first, std::size_t count,
                               bool ack_request) {
  // Frame into the reusable scratch buffer; u_send copies it into the
  // outgoing datagram synchronously, so reuse per call is safe.
  scratch_.clear();
  Encoder enc(scratch_);
  if (count == 1) {
    enc.put_byte(kData);
  } else {
    enc.put_byte(kBatch);
    enc.put_u64(count);
    ctx_.metrics().inc(m_batches_);
  }
  for (std::size_t i = first; i < first + count; ++i) {
    const Outgoing& msg = peer.unacked[i];
    const std::size_t before = enc.size();
    enc.put_u64(peer.base + i);
    enc.put_byte(static_cast<std::uint8_t>(msg.upper));
    enc.put_bytes(msg.payload.bytes());
    account_upper(msg.upper, enc.size() - before);
    ctx_.trace_instant(obs::Names::get().channel_tx, MsgId{},
                       obs::pack_channel_arg(to, static_cast<std::uint8_t>(msg.upper),
                                             msg.payload.size()));
  }
  // Trailer last, so the frame prefix (kind, count, first seq, first tag)
  // reads the same as a frame without it.
  enc.put_u64(peer.next_expected << 1 | (ack_request ? 1 : 0));
  peer.acked = peer.next_expected;
  peer.ack_owed = false;
  ++datagrams_sent_;
  transport_.u_send(to, Tag::kChannel, scratch_);
}

void ReliableChannel::subscribe(Tag upper, Handler handler) {
  handlers_[static_cast<std::size_t>(upper)] = std::move(handler);
}

Duration ReliableChannel::oldest_unacked_age(ProcessId to) const {
  auto it = peers_.find(to);
  if (it == peers_.end() || it->second.in_flight() == 0) return 0;
  return ctx_.now() - it->second.unacked.front().first_sent;
}

std::size_t ReliableChannel::unacked_count(ProcessId to) const {
  auto it = peers_.find(to);
  return it == peers_.end() ? 0 : it->second.unacked.size();
}

void ReliableChannel::forget(ProcessId to) {
  auto it = peers_.find(to);
  if (it != peers_.end()) {
    Peer& peer = it->second;
    peer.base = peer.next_seq();
    peer.next_unsent = peer.base;
    peer.unacked.clear();
    peer.retransmit_at = 0;
    if (peer.fc_stalled) {
      // The peer was excluded while its window was full; close the stall
      // span so the flight recorder stays balanced.
      peer.fc_stalled = false;
      ctx_.metrics().observe(h_fc_stall_, ctx_.now() - peer.fc_since);
      ctx_.trace_end(obs::Names::get().channel_fc_stall,
                     MsgId{obs::kPeerKey, static_cast<std::uint64_t>(to)});
    }
  }
}

std::size_t ReliableChannel::queued_by_flow_control(ProcessId to) const {
  auto it = peers_.find(to);
  return it == peers_.end() ? 0 : it->second.queued();
}

void ReliableChannel::send_ack(ProcessId to, Peer& peer) {
  peer.acked = peer.next_expected;
  peer.ack_owed = false;
  ctx_.metrics().inc(m_acks_);
  scratch_.clear();
  Encoder enc(scratch_);
  enc.put_byte(kAck);
  enc.put_u64(peer.acked);
  transport_.u_send(to, Tag::kChannel, scratch_);
}

void ReliableChannel::arm_ack(ProcessId to, Peer& peer) {
  if (peer.ack_armed) return;
  peer.ack_armed = true;
  const TimePoint due = (peer.ack_owed ? peer.ack_owed_since : ctx_.now()) + config_.rto / 4;
  ctx_.after(due - ctx_.now(), [this, to] {
    Peer& p = peers_[to];
    p.ack_armed = false;
    // A receiver stuck behind a gap reports it whenever the timer runs.
    // In-order progress waits its full rto/4: a reverse frame may have
    // carried the arrival this timer was armed for.
    const bool due_now = p.ack_owed && ctx_.now() >= p.ack_owed_since + config_.rto / 4;
    if (!p.holdback.empty() || due_now) {
      send_ack(to, p);
    } else if (p.ack_owed) {
      arm_ack(to, p);
    }
  });
}

void ReliableChannel::on_ack(ProcessId from, Peer& peer, std::uint64_t cumulative) {
  // Cumulative ack: everything strictly below `cumulative` is received. It
  // can only cover transmitted messages; anything beyond the send cursor is
  // a stale or hostile claim.
  peer.heard = ctx_.now();
  const std::uint64_t upto = std::min(cumulative, peer.next_unsent);
  if (peer.base >= upto) return;
  for (; peer.base < upto; ++peer.base) {
    // Time-in-channel: first transmit until the cumulative ack covers
    // the message (the sender-side view of channel residence).
    ctx_.metrics().observe(h_residence_, ctx_.now() - peer.unacked.front().first_sent);
    peer.unacked.pop_front();
  }
  if (peer.queued() > 0) pump(from, peer);
}

void ReliableChannel::on_datagram(ProcessId from, BytesView payload) {
  Decoder dec(payload);
  const std::uint8_t kind = dec.get_byte();
  if (kind == kAck) {
    const std::uint64_t cumulative = dec.get_u64();
    if (!dec.ok()) return;
    auto it = peers_.find(from);
    if (it != peers_.end()) on_ack(from, it->second, cumulative);
    return;
  }
  std::uint64_t entries = 1;
  if (kind == kBatch) {
    entries = dec.get_u64();
  } else if (kind != kData) {
    return;
  }
  // Check the whole frame before acting on it: the ack trailer follows the
  // entries, and a truncated or malformed frame delivers and acks nothing.
  Decoder scan = dec;
  for (std::uint64_t i = 0; i < entries && scan.ok(); ++i) {
    scan.get_u64();
    if (scan.get_byte() >= static_cast<std::uint8_t>(handlers_.size())) scan.invalidate();
    scan.get_view();
  }
  const std::uint64_t trailer = scan.get_u64();
  if (!scan.ok() || !scan.at_end()) return;

  Peer& peer = peers_[from];
  bool duplicate = false;
  for (std::uint64_t i = 0; i < entries; ++i) {
    const std::uint64_t seq = dec.get_u64();
    const Tag upper = static_cast<Tag>(dec.get_byte());
    const BytesView body = dec.get_view();
    // Zero-copy fast path: the common case (in order, nothing held back)
    // delivers the view straight out of the datagram buffer. Out-of-order
    // arrivals are the only ones that pay a copy into the holdback.
    if (seq == peer.next_expected && peer.holdback.empty()) {
      ++peer.next_expected;
      deliver(from, upper, body);
    } else if (seq < peer.next_expected || peer.holdback.count(seq) > 0) {
      duplicate = true;
    } else {
      peer.holdback.emplace(seq, std::make_pair(upper, to_bytes(body)));
    }
  }
  // Deliver the in-order prefix of the holdback.
  while (!peer.holdback.empty() && peer.holdback.begin()->first == peer.next_expected) {
    auto node = peer.holdback.extract(peer.holdback.begin());
    ++peer.next_expected;
    deliver(from, node.mapped().first, node.mapped().second);
  }
  // In-order progress is owed an ack unless a frame back to the peer (an
  // upper layer's reply, a window refill) carries it; a reply sent while
  // this frame was being delivered covers only the entries before it.
  if (peer.acked < peer.next_expected && !peer.ack_owed) {
    peer.ack_owed = true;
    peer.ack_owed_since = ctx_.now();
  }
  on_ack(from, peer, trailer >> 1);
  if (duplicate || (trailer & 1) != 0) {
    send_ack(from, peer);
  } else if (peer.ack_owed || !peer.holdback.empty()) {
    arm_ack(from, peer);
  }
}

void ReliableChannel::deliver(ProcessId from, Tag upper, BytesView payload) {
  ctx_.metrics().inc(m_delivered_);
  ctx_.trace_instant(obs::Names::get().channel_rx, MsgId{},
                     obs::pack_channel_arg(from, static_cast<std::uint8_t>(upper),
                                           payload.size()));
  auto& handler = handlers_[static_cast<std::size_t>(upper)];
  if (handler) handler(from, payload);
}

void ReliableChannel::arm_retransmit_timer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  ctx_.after(config_.rto, [this] { retransmit_tick(); });
}

void ReliableChannel::retransmit_tick() {
  timer_armed_ = false;
  bool outstanding = false;
  const TimePoint now = ctx_.now();
  for (auto& [to, peer] : peers_) {
    if (peer.unacked.empty()) continue;
    outstanding = true;
    if (peer.in_flight() == 0 || now < peer.retransmit_at) continue;
    // Only retransmit messages that have been in flight at least one rto;
    // fresh sends get their first chance and flow-control-queued ones
    // have never been transmitted at all. first_sent is monotone in seq,
    // so the due messages are a prefix, and one round takes at most one
    // frame of it.
    const TimePoint oldest_sent = peer.unacked.front().first_sent;
    if (now - oldest_sent < config_.rto) continue;
    const std::size_t fit = frame_fit(peer, 0, peer.in_flight());
    std::size_t due = 1;
    while (due < fit && now - peer.unacked[due].first_sent >= config_.rto) ++due;
    std::int64_t bytes = 0;
    for (std::size_t i = 0; i < due; ++i) {
      const Outgoing& msg = peer.unacked[i];
      bytes += static_cast<std::int64_t>(msg.payload.size());
      ctx_.trace_instant(obs::Names::get().channel_retransmit, MsgId{},
                         obs::pack_channel_arg(to, static_cast<std::uint8_t>(msg.upper),
                                               msg.payload.size()));
    }
    ctx_.metrics().inc(m_retransmits_, static_cast<std::int64_t>(due));
    ctx_.metrics().inc(m_retransmit_bytes_, bytes);
    transmit(to, peer, 0, due, /*ack_request=*/true);
    // Pace by how long the peer has been silent, counted from the later
    // of the oldest unacked message's first transmission and the peer's
    // last ack: a lossy but live peer keeps acking and keeps the rto
    // cadence, a silent one backs off to one frame per 8 rto.
    const Duration silent = now - std::max(oldest_sent, peer.heard);
    peer.retransmit_at = now + std::clamp(silent / 4, config_.rto, 8 * config_.rto);
  }
  if (outstanding) arm_retransmit_timer();
}

}  // namespace gcs
