/// \file reliable_channel.hpp
/// Reliable point-to-point channel (Fig 9: "Reliable Channel").
///
/// Guarantees: if a correct process p sends m to a correct process q, then q
/// eventually receives m; per (sender, receiver) pair delivery is FIFO and
/// duplicate-free. Implemented with per-peer sequence numbers, cumulative
/// acknowledgements and periodic retransmission over the unreliable
/// transport — the shape of the TCP-based channel of [Ekwall et al. 2002]
/// that the paper cites.
///
/// Cost model: every operation is independent of the backlog to a peer.
/// Each peer's output buffer is a seq-indexed deque with a send cursor
/// (first never-transmitted message), so sends, acks and the flow-control
/// queue cost O(messages touched). Like TCP, the channel does not resend a
/// silent peer's whole window every period: a retransmission round sends
/// one datagram of at most kMaxFrame bytes, taken from the oldest due
/// messages, and the next round to that peer waits
/// clamp(silence / 4, rto, 8 rto), where silence is the age of the oldest
/// unacked message or the time since the peer's last ack, whichever is
/// shorter. A live peer on a lossy link keeps acking and so keeps the rto
/// cadence; a crashed but not yet excluded one costs a bounded trickle.
///
/// Ack policy, as TCP's: every data or batch frame ends with a trailer
/// varint (cumulative_ack << 1) | ack_request, so traffic in the other
/// direction carries the acks for free. A standalone ack datagram goes out
///   - at once when a frame held a duplicate (an earlier ack was lost),
///   - at once when the frame sets ack_request, which the sender does on
///     retransmissions and on frames that fill the send window or drain
///     what flow control held back (it is waiting on those acks),
///   - otherwise rto/4 after the first in-order arrival no frame back to
///     the sender has acked yet. While a gap holds messages back, the
///     timer reports it every time it runs, so the sender does not read
///     the receiver's silence as a dead peer.
///
/// The channel also exposes its output buffer age per peer: a message that
/// stays unacknowledged for a long time is the basis for *output-triggered
/// suspicion* (paper §3.3.2), consumed by the monitoring component.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "sim/context.hpp"
#include "transport/transport.hpp"

namespace gcs {

class ReliableChannel {
 public:
  /// Receives a view into the channel's receive path (the datagram buffer
  /// for in-order arrivals, the holdback copy otherwise); valid only for
  /// the duration of the call.
  using Handler = std::function<void(ProcessId from, BytesView payload)>;

  struct Config {
    Duration rto = msec(20);  ///< retransmission period for unacked messages
    /// Flow control (the role Totem's middle layer plays, paper Fig 4):
    /// at most this many in-flight (transmitted, unacked) messages per
    /// peer; the rest queue locally until acks open the window. 0 = off.
    std::size_t send_window = 0;
    /// Batching/piggybacking: hold sends for up to this long and pack
    /// everything queued for a peer into one datagram. Protocols that
    /// broadcast in bursts (consensus, GB ACKs) collapse dramatically.
    /// 0 = off (every message is its own datagram).
    Duration batch_delay = 0;
  };

  ReliableChannel(sim::Context& ctx, Transport& transport, Config config);
  ReliableChannel(sim::Context& ctx, Transport& transport);

  /// Reliable FIFO send of \p payload to \p to, for the component owning
  /// \p upper. Messages to self are delivered through the loopback link.
  /// Payload converts implicitly from Bytes; the shared buffer is held in
  /// the retransmit queue without copying.
  void send(ProcessId to, Tag upper, Payload payload);

  /// Convenience: send the same payload to every process in \p group. One
  /// shared buffer backs every destination's retransmit-queue entry.
  void send_group(const std::vector<ProcessId>& group, Tag upper, const Payload& payload) {
    for (ProcessId p : group) send(p, upper, payload);
  }

  /// Register the upper-layer receive handler for \p upper.
  void subscribe(Tag upper, Handler handler);

  /// -- output-triggered suspicion hooks (paper §3.3.2) ------------------

  /// Age of the oldest unacknowledged message to \p to; 0 if none.
  Duration oldest_unacked_age(ProcessId to) const;

  /// Number of buffered (unacknowledged) messages to \p to.
  std::size_t unacked_count(ProcessId to) const;

  /// Discard all buffered output for \p to. Called when \p to is excluded
  /// from the membership: its obligations are void, so the buffer can be
  /// safely released (paper §3.3.2).
  void forget(ProcessId to);

  /// Messages queued by flow control (not yet transmitted) for \p to.
  std::size_t queued_by_flow_control(ProcessId to) const;

  /// Datagrams actually emitted (tests assert batching effectiveness).
  std::int64_t datagrams_sent() const { return datagrams_sent_; }

  /// Total send-queue depth across all peers: every buffered message,
  /// transmitted-but-unacked and flow-control-held alike (probe gauge).
  std::size_t total_send_queue() const {
    std::size_t n = 0;
    for (const auto& [to, peer] : peers_) {
      (void)to;
      n += peer.unacked.size();
    }
    return n;
  }

  /// Largest channel frame a datagram carries when it packs several
  /// messages (batching, retransmission): one UDP datagram (65507 B of
  /// payload) with room left for the transport's framing. A single
  /// message larger than this still goes out alone.
  static constexpr std::size_t kMaxFrame = 63 * 1024;

 private:
  struct Outgoing {
    Tag upper;
    Payload payload;
    TimePoint first_sent;  // meaningful once the send cursor has passed it
  };
  struct Peer {
    // -- output: messages to the peer
    std::uint64_t base = 0;         // seq of unacked.front()
    std::uint64_t next_unsent = 0;  // send cursor: first never-transmitted seq
    std::deque<Outgoing> unacked;   // seqs [base, base + size), in order
    TimePoint retransmit_at = 0;    // next retransmission round not before
    TimePoint heard = 0;            // last ack (standalone or trailer) from the peer
    bool flush_armed = false;       // batching timer pending
    bool fc_stalled = false;        // window full, sends held back
    TimePoint fc_since = 0;         // when the current stall began
    // -- input: messages from the peer
    std::uint64_t next_expected = 0;
    std::uint64_t acked = 0;      // highest cumulative ack told to the peer
    bool ack_owed = false;        // in-order progress the peer was not told
    TimePoint ack_owed_since = 0; // first arrival of that progress
    bool ack_armed = false;       // delayed-ack timer pending
    std::map<std::uint64_t, std::pair<Tag, Bytes>> holdback;  // out-of-order

    std::uint64_t next_seq() const { return base + unacked.size(); }
    /// Transmitted, unacked messages: the window flow control bounds.
    std::size_t in_flight() const { return static_cast<std::size_t>(next_unsent - base); }
    std::size_t queued() const { return static_cast<std::size_t>(next_seq() - next_unsent); }
  };

  void on_datagram(ProcessId from, BytesView payload);
  void deliver(ProcessId from, Tag upper, BytesView payload);
  /// A cumulative ack from \p from (kAck frame or trailer): pops what it
  /// covers, clamped to the send cursor, and refills the window.
  void on_ack(ProcessId from, Peer& peer, std::uint64_t cumulative);
  void send_ack(ProcessId to, Peer& peer);
  /// Delayed ack: one pending timer per peer, due rto/4 after the first
  /// arrival the peer has not been told about (or, with only a gap to
  /// report, rto/4 from now).
  void arm_ack(ProcessId to, Peer& peer);
  void account_upper(Tag upper, std::size_t wire_bytes);
  /// How many messages from unacked[first] on (at most \p max) fit in one
  /// kMaxFrame datagram; at least one.
  static std::size_t frame_fit(const Peer& peer, std::size_t first, std::size_t max);
  /// Emit unacked[first, first + count) to \p to as one datagram, with the
  /// cumulative ack for the peer's messages in its trailer.
  void transmit(ProcessId to, Peer& peer, std::size_t first, std::size_t count,
                bool ack_request);
  /// Whether a frame ending at unacked[end - 1] fills the send window.
  bool fills_window(std::size_t end) const {
    return config_.send_window > 0 && end >= config_.send_window;
  }
  /// Move the send cursor over every message the window admits, stamping
  /// them sent; returns how many it admitted.
  std::size_t admit(Peer& peer);
  void pump(ProcessId to, Peer& peer);  // flow control: fill the window
  void flush(ProcessId to);             // batching: emit the packed datagrams
  // Flow-control stall edge detection: opens/closes the channel.fc_stall
  // span and feeds the stall-duration histogram.
  void update_fc_stall(ProcessId to, Peer& peer);
  void arm_retransmit_timer();
  void retransmit_tick();

  sim::Context& ctx_;
  Transport& transport_;
  Config config_;
  // Metric ids interned once at construction; the send/deliver hot paths
  // stay free of string lookups.
  MetricId m_sent_;
  MetricId m_batches_;
  MetricId m_delivered_;
  MetricId m_retransmits_;
  MetricId m_retransmit_bytes_;
  MetricId m_acks_;       ///< standalone ack datagrams
  MetricId h_residence_;  ///< first transmit -> cumulative ack (time-in-channel)
  MetricId h_fc_stall_;   ///< send-window stall duration per peer
  // Per-upper-tag wire accounting ("<upper>.wire_bytes" / "<upper>.wire_msgs"):
  // bytes this component put on the wire through the channel, counted at
  // (re)transmit time so retransmissions are included.
  std::array<MetricId, static_cast<std::size_t>(Tag::kMax)> m_up_wire_bytes_;
  std::array<MetricId, static_cast<std::size_t>(Tag::kMax)> m_up_wire_msgs_;
  std::map<ProcessId, Peer> peers_;
  std::vector<Handler> handlers_;
  bool timer_armed_ = false;
  std::int64_t datagrams_sent_ = 0;
  Bytes scratch_;  ///< reusable datagram framing buffer (capacity persists)
};

}  // namespace gcs
