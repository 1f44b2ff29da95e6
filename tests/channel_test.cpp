#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <set>

#include "channel/reliable_channel.hpp"
#include "sim/context.hpp"
#include "sim/network.hpp"
#include "transport/sim_transport.hpp"
#include "util/codec.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;
using test::str_of;

/// Minimal two-(or more-)process harness at the channel layer.
struct ChannelWorld {
  sim::Engine engine;
  sim::Network network;
  struct Proc {
    std::unique_ptr<sim::Context> ctx;
    std::unique_ptr<SimTransport> transport;
    std::unique_ptr<ReliableChannel> channel;
    std::vector<std::pair<ProcessId, std::string>> received;
  };
  std::vector<Proc> procs;

  ChannelWorld(int n, sim::LinkModel link, ReliableChannel::Config cfg = {},
               std::uint64_t seed = 1)
      : network(engine, n, link, seed) {
    procs.resize(static_cast<std::size_t>(n));
    for (ProcessId p = 0; p < n; ++p) {
      auto& proc = procs[static_cast<std::size_t>(p)];
      proc.ctx = std::make_unique<sim::Context>(p, engine, Rng(seed + static_cast<std::uint64_t>(p)),
                                                Logger(), std::make_shared<Metrics>());
      proc.transport = std::make_unique<SimTransport>(*proc.ctx, network);
      proc.channel = std::make_unique<ReliableChannel>(*proc.ctx, *proc.transport, cfg);
      proc.channel->subscribe(Tag::kApp, [&proc](ProcessId from, BytesView b) {
        proc.received.emplace_back(from, str_of(b));
      });
    }
  }
};

TEST(ReliableChannel, BasicDelivery) {
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("hi"));
  w.engine.run_until(msec(10));
  ASSERT_EQ(w.procs[1].received.size(), 1u);
  EXPECT_EQ(w.procs[1].received[0], std::make_pair(ProcessId{0}, std::string("hi")));
}

TEST(ReliableChannel, SelfDelivery) {
  ChannelWorld w(1, sim::LinkModel{});
  w.procs[0].channel->send(0, Tag::kApp, bytes_of("loop"));
  w.engine.run_until(msec(1));
  ASSERT_EQ(w.procs[0].received.size(), 1u);
  EXPECT_EQ(w.procs[0].received[0].second, "loop");
}

TEST(ReliableChannel, FifoOrderUnderJitter) {
  // Heavy jitter reorders datagrams; the channel must deliver in order.
  ChannelWorld w(2, sim::LinkModel{usec(100), usec(2000), 0.0});
  for (int i = 0; i < 50; ++i) {
    w.procs[0].channel->send(1, Tag::kApp, bytes_of(std::to_string(i)));
  }
  w.engine.run_until(msec(100));
  ASSERT_EQ(w.procs[1].received.size(), 50u);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(w.procs[1].received[static_cast<std::size_t>(i)].second, std::to_string(i));
  }
}

TEST(ReliableChannel, SurvivesHeavyLoss) {
  ChannelWorld w(2, sim::LinkModel{usec(200), usec(100), 0.4},
                 ReliableChannel::Config{msec(5)});
  for (int i = 0; i < 30; ++i) {
    w.procs[0].channel->send(1, Tag::kApp, bytes_of(std::to_string(i)));
  }
  const bool done = test::run_until(w.engine, sec(10),
                                    [&] { return w.procs[1].received.size() == 30; });
  ASSERT_TRUE(done);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(w.procs[1].received[static_cast<std::size_t>(i)].second, std::to_string(i));
  }
  EXPECT_GT(w.procs[0].ctx->metrics().counter("channel.retransmits"), 0);
}

TEST(ReliableChannel, NoDuplicatesUnderRetransmission) {
  // Perfect link + aggressive rto: retransmissions happen but must not
  // surface as duplicates.
  ChannelWorld w(2, sim::LinkModel{msec(8), 0, 0.0}, ReliableChannel::Config{msec(2)});
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("once"));
  w.engine.run_until(msec(100));
  EXPECT_EQ(w.procs[1].received.size(), 1u);
}

TEST(ReliableChannel, BidirectionalTraffic) {
  ChannelWorld w(2, sim::LinkModel{usec(300), usec(200), 0.1});
  for (int i = 0; i < 20; ++i) {
    w.procs[0].channel->send(1, Tag::kApp, bytes_of("a" + std::to_string(i)));
    w.procs[1].channel->send(0, Tag::kApp, bytes_of("b" + std::to_string(i)));
  }
  const bool done = test::run_until(w.engine, sec(5), [&] {
    return w.procs[0].received.size() == 20 && w.procs[1].received.size() == 20;
  });
  EXPECT_TRUE(done);
}

TEST(ReliableChannel, TagMultiplexing) {
  ChannelWorld w(2, sim::LinkModel{});
  std::vector<std::string> fd_msgs;
  w.procs[1].channel->subscribe(Tag::kConsensus, [&](ProcessId, BytesView b) {
    fd_msgs.push_back(str_of(b));
  });
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("app"));
  w.procs[0].channel->send(1, Tag::kConsensus, bytes_of("cons"));
  w.engine.run_until(msec(10));
  ASSERT_EQ(w.procs[1].received.size(), 1u);
  EXPECT_EQ(w.procs[1].received[0].second, "app");
  ASSERT_EQ(fd_msgs.size(), 1u);
  EXPECT_EQ(fd_msgs[0], "cons");
}

TEST(ReliableChannel, OutputBufferAgeGrowsForDeadPeer) {
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.network.crash(1);
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("never"));
  w.engine.run_until(sec(1));
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 1u);
  EXPECT_GE(w.procs[0].channel->oldest_unacked_age(1), sec(1) - msec(1));
}

TEST(ReliableChannel, OutputBufferDrainsForLivePeer) {
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("x"));
  w.engine.run_until(msec(50));
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 0u);
  EXPECT_EQ(w.procs[0].channel->oldest_unacked_age(1), 0);
}

TEST(ReliableChannel, ForgetReleasesBuffer) {
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.network.crash(1);
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("never"));
  w.engine.run_until(msec(100));
  w.procs[0].channel->forget(1);
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 0u);
  EXPECT_EQ(w.procs[0].channel->oldest_unacked_age(1), 0);
  // Retransmission timer must eventually quiesce for the forgotten peer.
  const auto before = w.procs[0].ctx->metrics().counter("channel.retransmits");
  w.engine.run_until(msec(300));
  const auto after = w.procs[0].ctx->metrics().counter("channel.retransmits");
  EXPECT_EQ(before, after);
}

TEST(ReliableChannel, ManyPeers) {
  const int n = 8;
  ChannelWorld w(n, sim::LinkModel{usec(300), usec(300), 0.2},
                 ReliableChannel::Config{msec(5)});
  for (ProcessId from = 0; from < n; ++from) {
    for (ProcessId to = 0; to < n; ++to) {
      if (from == to) continue;
      w.procs[static_cast<std::size_t>(from)].channel->send(to, Tag::kApp, bytes_of("m"));
    }
  }
  const bool done = test::run_until(w.engine, sec(10), [&] {
    for (auto& p : w.procs) {
      if (p.received.size() != static_cast<std::size_t>(n - 1)) return false;
    }
    return true;
  });
  EXPECT_TRUE(done);
}

/// Watches the datagrams one sender puts on the wire to one receiver
/// (Network tap, before loss) and classifies channel frames: a data or
/// batch frame whose first seq was already on the wire is a retransmission.
struct WireWatch {
  std::size_t max_datagram = 0;
  std::int64_t retransmit_frames = 0;
  std::int64_t retransmitted_msgs = 0;
  std::int64_t retransmitted_bytes = 0;  // whole datagrams
  std::set<TimePoint> retransmit_times;
  std::uint64_t next_new_seq = 0;

  WireWatch(ChannelWorld& w, ProcessId from, ProcessId to) {
    w.network.set_tap([this, &w, from, to](ProcessId f, ProcessId t, const Bytes& d) {
      max_datagram = std::max(max_datagram, d.size());
      if (f != from || t != to || d.size() < 2) return;
      Decoder dec(BytesView(d.data() + 1, d.size() - 1));  // skip the transport tag
      const std::uint8_t kind = dec.get_byte();
      if (kind != 0 && kind != 2) return;  // acks
      const std::uint64_t entries = kind == 2 ? dec.get_u64() : 1;
      const std::uint64_t first = dec.get_u64();
      if (first < next_new_seq) {
        ++retransmit_frames;
        retransmitted_msgs += static_cast<std::int64_t>(entries);
        retransmitted_bytes += static_cast<std::int64_t>(d.size());
        retransmit_times.insert(w.engine.now());
      }
      next_new_seq = std::max(next_new_seq, first + entries);
    });
  }
};

Bytes kib_payload(int i) {
  Bytes b = bytes_of(std::to_string(i) + ":");
  b.resize(1024, 'x');
  return b;
}

/// Process 0 sends message i (1 KiB) to process 1 at i ms, for i < n.
void send_kib_every_ms(ChannelWorld& w, int n) {
  for (int i = 0; i < n; ++i) {
    w.engine.schedule_at(i * msec(1),
                         [&w, i] { w.procs[0].channel->send(1, Tag::kApp, kib_payload(i)); });
  }
}

TEST(ReliableChannel, PartitionCatchUpFitsUdpDatagrams) {
  // A peer ~2000 x 1 KiB behind after a partition heals must catch up in
  // datagrams a real UDP socket accepts (65507 B), in FIFO order.
  ChannelWorld w(2, sim::LinkModel{usec(200), usec(100), 0.0});
  WireWatch watch(w, 0, 1);
  w.network.partition({{0}, {1}});
  constexpr int kMsgs = 2000;
  send_kib_every_ms(w, kMsgs);
  w.engine.run_until(sec(2));
  EXPECT_TRUE(w.procs[1].received.empty());
  w.network.heal();
  const bool done = test::run_until(w.engine, sec(20), [&] {
    return w.procs[1].received.size() == static_cast<std::size_t>(kMsgs);
  });
  ASSERT_TRUE(done) << w.procs[1].received.size() << " of " << kMsgs << " delivered";
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(w.procs[1].received[static_cast<std::size_t>(i)].second,
              test::str_of(kib_payload(i)));
  }
  EXPECT_LE(watch.max_datagram, 65507u);
  EXPECT_GT(watch.retransmit_frames, 0);
  w.engine.run_until(w.engine.now() + msec(5));  // last ack lands
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 0u);
}

TEST(ReliableChannel, CrashedPeerRetransmissionIsBounded) {
  // 1 KiB at 1k/s to a crashed peer for 2 s: the backlog grows to 2000
  // messages, but retransmission sends at most one frame per round and
  // backs off to one round per 8 rto. The pacing rule gives exactly 20
  // rounds in these 2 s (rto 20 ms, 20 ms ticks); an unpaced channel would
  // resend the whole backlog every tick (~10^5 messages, ~100 MB).
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  WireWatch watch(w, 0, 1);
  w.network.crash(1);
  constexpr int kMsgs = 2000;
  send_kib_every_ms(w, kMsgs);
  w.engine.run_until(sec(2));
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), static_cast<std::size_t>(kMsgs));
  const auto& m = w.procs[0].ctx->metrics();
  constexpr std::int64_t kRounds = 20;
  constexpr auto kFrame = static_cast<std::int64_t>(ReliableChannel::kMaxFrame);
  EXPECT_EQ(watch.retransmit_frames, kRounds);
  EXPECT_EQ(static_cast<std::int64_t>(watch.retransmit_times.size()), kRounds);
  EXPECT_LE(watch.retransmitted_bytes, kRounds * (kFrame + 1));
  EXPECT_LE(watch.max_datagram, 65507u);
  EXPECT_EQ(m.counter("channel.retransmits"), watch.retransmitted_msgs);
  EXPECT_LE(m.counter("channel.retransmits"), kRounds * (kFrame / 1024));
  EXPECT_LE(m.counter("channel.retransmit_bytes"), kRounds * kFrame);
  EXPECT_GT(m.counter("channel.retransmit_bytes"), 0);
}

TEST(ReliableChannel, LossyLivePeerKeepsRtoCadence) {
  // A live peer behind a 30%-loss link is never backed off: every round
  // retransmits whatever is due, one rto apart. The counts are those of a
  // channel that retransmits every due message at every tick.
  ChannelWorld w(2, sim::LinkModel{usec(300), usec(200), 0.30});
  WireWatch watch(w, 0, 1);
  constexpr int kMsgs = 300;
  send_kib_every_ms(w, kMsgs);
  const bool done = test::run_until(w.engine, sec(30), [&] {
    return w.procs[1].received.size() == static_cast<std::size_t>(kMsgs);
  });
  ASSERT_TRUE(done);
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(w.procs[1].received[static_cast<std::size_t>(i)].second,
              test::str_of(kib_payload(i)));
  }
  EXPECT_EQ(w.procs[0].ctx->metrics().counter("channel.retransmits"), 496);
  EXPECT_EQ(watch.retransmit_frames, 17);
  // One retransmission round per tick at most, ticks one rto apart.
  EXPECT_EQ(static_cast<std::int64_t>(watch.retransmit_times.size()), watch.retransmit_frames);
  for (TimePoint t : watch.retransmit_times) EXPECT_EQ(t % msec(20), 0) << t;
}

/// Mean channel.retransmits (both ends summed) over 40 seeds of 300 x 1 KiB
/// at 1/ms across 30%-loss links, from 0 to 1 only or both ways.
double mean_lossy_retransmits(bool two_way) {
  constexpr int kSeeds = 40;
  constexpr int kMsgs = 300;
  std::int64_t total = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ChannelWorld w(2, sim::LinkModel{usec(300), usec(200), 0.30}, {}, seed);
    send_kib_every_ms(w, kMsgs);
    if (two_way) {
      for (int i = 0; i < kMsgs; ++i) {
        w.engine.schedule_at(i * msec(1), [&w, i] {
          w.procs[1].channel->send(0, Tag::kApp, kib_payload(i));
        });
      }
    }
    const auto want0 = static_cast<std::size_t>(two_way ? kMsgs : 0);
    const bool done = test::run_until(w.engine, sec(30), [&] {
      return w.procs[1].received.size() == static_cast<std::size_t>(kMsgs) &&
             w.procs[0].received.size() == want0;
    });
    EXPECT_TRUE(done) << "seed " << seed;
    for (auto& proc : w.procs) total += proc.ctx->metrics().counter("channel.retransmits");
  }
  return static_cast<double>(total) / kSeeds;
}

TEST(ReliableChannel, LossyLinksRetransmitNoMoreThanPerFrameAcks) {
  // The bounds are the means of a channel that acked every frame with its
  // own datagram (same seeds and harness): fewer acks must not cost
  // retransmissions.
  EXPECT_LE(mean_lossy_retransmits(false), 420.125);
  EXPECT_LE(mean_lossy_retransmits(true), 799.95);
}

TEST(ReliableChannel, TwoWayTrafficPiggybacksEveryAck) {
  // Each side sends 1 KiB every ms: every ack rides on a reverse frame, so
  // no standalone ack leaves while traffic flows; one closes each direction.
  ChannelWorld w(2, sim::LinkModel{usec(200), usec(100), 0.0});
  constexpr int kMsgs = 200;
  for (int i = 0; i < kMsgs; ++i) {
    w.engine.schedule_at(i * msec(1), [&w, i] {
      w.procs[0].channel->send(1, Tag::kApp, kib_payload(i));
      w.procs[1].channel->send(0, Tag::kApp, kib_payload(i));
    });
  }
  w.engine.run_until(kMsgs * msec(1));
  for (auto& proc : w.procs) EXPECT_EQ(proc.ctx->metrics().counter("channel.acks"), 0);
  w.engine.run_until(kMsgs * msec(1) + msec(50));
  for (ProcessId p = 0; p < 2; ++p) {
    auto& proc = w.procs[static_cast<std::size_t>(p)];
    EXPECT_EQ(proc.received.size(), static_cast<std::size_t>(kMsgs));
    EXPECT_EQ(proc.channel->unacked_count(1 - p), 0u);
    EXPECT_EQ(proc.ctx->metrics().counter("channel.acks"), 1);
    EXPECT_EQ(proc.ctx->metrics().counter("channel.retransmits"), 0);
  }
}

TEST(ReliableChannel, OneWayTrickleIsAckedAfterQuarterRto) {
  // One message every 50 ms and nothing flowing back: each is acked by a
  // delayed ack rto/4 after it lands, long before the sender's rto.
  constexpr Duration kDelay = usec(300);
  const Duration rto = ReliableChannel::Config{}.rto;
  ChannelWorld w(2, sim::LinkModel{kDelay, 0, 0.0});
  constexpr int kMsgs = 10;
  for (int i = 0; i < kMsgs; ++i) {
    w.engine.schedule_at(i * msec(50), [&w] { w.procs[0].channel->send(1, Tag::kApp, bytes_of("m")); });
  }
  w.engine.run_until(kMsgs * msec(50));
  EXPECT_EQ(w.procs[1].received.size(), static_cast<std::size_t>(kMsgs));
  const Histogram& residence = w.procs[0].ctx->metrics().histogram("channel.residence_us");
  EXPECT_EQ(residence.count(), static_cast<std::size_t>(kMsgs));
  EXPECT_EQ(residence.max(), kDelay + rto / 4 + kDelay);
  EXPECT_EQ(w.procs[1].ctx->metrics().counter("channel.acks"), kMsgs);
  EXPECT_EQ(w.procs[0].ctx->metrics().counter("channel.retransmits"), 0);
}

TEST(ReliableChannel, LostAckIsRepeatedAtOnceOnTheDuplicate) {
  constexpr Duration kDelay = usec(300);
  ChannelWorld w(2, sim::LinkModel{kDelay, 0, 0.0});
  Bytes first_frame;
  w.network.set_tap([&](ProcessId f, ProcessId, const Bytes& d) {
    if (f == 0 && first_frame.empty()) first_frame = d;
  });
  w.network.set_link(1, 0, sim::LinkModel{kDelay, 0, 1.0});  // the delayed ack is lost
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("x"));
  w.engine.run_until(msec(10));
  EXPECT_EQ(w.procs[1].received.size(), 1u);
  EXPECT_EQ(w.procs[1].ctx->metrics().counter("channel.acks"), 1);
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 1u);

  // The same frame again, without an ack request: the receiver sees a
  // duplicate and acks at once instead of after rto/4.
  w.network.set_link(1, 0, sim::LinkModel{kDelay, 0, 0.0});
  w.network.send(0, 1, first_frame);
  w.engine.run_until(msec(10) + 2 * kDelay);
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 0u);
  EXPECT_EQ(w.procs[1].ctx->metrics().counter("channel.acks"), 2);
  EXPECT_EQ(w.procs[1].received.size(), 1u);
  EXPECT_EQ(w.procs[0].ctx->metrics().counter("channel.retransmits"), 0);
}

/// A channel frame as a datagram: the transport tag, then \p body.
Bytes channel_frame(const std::function<void(Encoder&)>& body) {
  Encoder enc;
  enc.put_byte(static_cast<std::uint8_t>(Tag::kChannel));
  body(enc);
  return enc.take();
}

TEST(ReliableChannel, AckBeyondSendCursorNeverDropsUnsentMessages) {
  ReliableChannel::Config cfg;
  cfg.send_window = 2;
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0}, cfg);
  auto& ch = *w.procs[0].channel;
  w.network.set_link(0, 1, sim::LinkModel{usec(200), 0, 1.0});
  for (int i = 0; i < 5; ++i) ch.send(1, Tag::kApp, bytes_of("m" + std::to_string(i)));
  EXPECT_EQ(ch.queued_by_flow_control(1), 3u);

  // A data frame whose trailer claims seqs below 1000: only the two
  // transmitted messages go; the window refills from the queue.
  w.network.send(1, 0, channel_frame([](Encoder& e) {
    e.put_byte(0);  // kData
    e.put_u64(0);
    e.put_byte(static_cast<std::uint8_t>(Tag::kApp));
    e.put_bytes(bytes_of("hi"));
    e.put_u64(std::uint64_t{1000} << 1);
  }));
  w.engine.run_until(msec(1));
  EXPECT_EQ(w.procs[0].received.size(), 1u);
  EXPECT_EQ(ch.unacked_count(1), 3u);
  EXPECT_EQ(ch.queued_by_flow_control(1), 1u);

  // A standalone ack claiming as much does the same.
  w.network.send(1, 0, channel_frame([](Encoder& e) {
    e.put_byte(1);  // kAck
    e.put_u64(1000);
  }));
  w.engine.run_until(msec(2));
  EXPECT_EQ(ch.unacked_count(1), 1u);
  EXPECT_EQ(ch.queued_by_flow_control(1), 0u);
}

TEST(ReliableChannel, StrictPrefixesOfFramesNeitherDeliverNorAck) {
  // Real frames from 1 to 0, one data and one batch, whose trailers ack
  // 0's first two messages.
  ReliableChannel::Config batching;
  batching.batch_delay = msec(1);
  std::vector<Bytes> frames;
  {
    ChannelWorld a(2, sim::LinkModel{usec(200), 0, 0.0}, batching);
    a.network.set_tap([&](ProcessId f, ProcessId, const Bytes& d) {
      if (f == 1 && d.size() > 1 && d[1] != 1) frames.push_back(d);  // not kAck
    });
    a.procs[0].channel->send(1, Tag::kApp, bytes_of("a0"));
    a.procs[0].channel->send(1, Tag::kApp, bytes_of("a1"));
    a.engine.run_until(msec(2));
    a.procs[1].channel->send(0, Tag::kApp, bytes_of("d"));
    a.engine.run_until(msec(4));
    a.procs[1].channel->send(0, Tag::kApp, bytes_of("b1"));
    a.procs[1].channel->send(0, Tag::kApp, bytes_of("b2"));
    a.engine.run_until(msec(6));
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0][1], 0);  // kData
  EXPECT_EQ(frames[1][1], 2);  // kBatch

  // 0 has two messages to 1 outstanding (1 never hears them, so it stays
  // silent); every strict prefix of either frame is dropped whole.
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0});
  w.network.set_link(0, 1, sim::LinkModel{usec(200), 0, 1.0});
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("a0"));
  w.procs[0].channel->send(1, Tag::kApp, bytes_of("a1"));
  for (const Bytes& frame : frames) {
    for (std::size_t len = 1; len < frame.size(); ++len) {
      w.network.send(1, 0, Bytes(frame.begin(), frame.begin() + static_cast<std::ptrdiff_t>(len)));
    }
  }
  w.engine.run_until(msec(5));
  EXPECT_TRUE(w.procs[0].received.empty());
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 2u);

  // The whole frames deliver all three messages and the ack.
  for (const Bytes& frame : frames) w.network.send(1, 0, frame);
  w.engine.run_until(msec(10));
  ASSERT_EQ(w.procs[0].received.size(), 3u);
  EXPECT_EQ(w.procs[0].received[2].second, "b2");
  EXPECT_EQ(w.procs[0].channel->unacked_count(1), 0u);
}

TEST(ReliableChannel, SendCursorWithFlowControlAndForget) {
  ReliableChannel::Config cfg;
  cfg.send_window = 4;
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0}, cfg);
  auto& ch = *w.procs[0].channel;
  w.network.partition({{0}, {1}});
  for (int i = 0; i < 10; ++i) ch.send(1, Tag::kApp, bytes_of("m" + std::to_string(i)));
  EXPECT_EQ(ch.datagrams_sent(), 4);
  EXPECT_EQ(ch.queued_by_flow_control(1), 6u);
  EXPECT_EQ(ch.unacked_count(1), 10u);
  w.engine.run_until(msec(100));
  EXPECT_EQ(ch.queued_by_flow_control(1), 6u);  // retransmission does not open the window
  EXPECT_EQ(ch.oldest_unacked_age(1), msec(100));

  // Healing drains the queue through the window, in order.
  w.network.heal();
  ASSERT_TRUE(test::run_until(w.engine, sec(2), [&] { return w.procs[1].received.size() == 10; }));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(w.procs[1].received[static_cast<std::size_t>(i)].second, "m" + std::to_string(i));
  }
  w.engine.run_until(w.engine.now() + msec(5));  // last ack lands
  EXPECT_EQ(ch.queued_by_flow_control(1), 0u);
  EXPECT_EQ(ch.unacked_count(1), 0u);
  EXPECT_EQ(ch.oldest_unacked_age(1), 0);

  // forget() while messages are held back empties both parts of the
  // buffer; a later send is transmitted at once.
  w.network.crash(1);
  for (int i = 0; i < 7; ++i) ch.send(1, Tag::kApp, bytes_of("x"));
  EXPECT_EQ(ch.queued_by_flow_control(1), 3u);
  w.engine.run_until(w.engine.now() + msec(50));
  ch.forget(1);
  EXPECT_EQ(ch.queued_by_flow_control(1), 0u);
  EXPECT_EQ(ch.unacked_count(1), 0u);
  EXPECT_EQ(ch.oldest_unacked_age(1), 0);
  const auto before = ch.datagrams_sent();
  ch.send(1, Tag::kApp, bytes_of("after"));
  EXPECT_EQ(ch.datagrams_sent(), before + 1);
  EXPECT_EQ(ch.queued_by_flow_control(1), 0u);
  EXPECT_EQ(ch.unacked_count(1), 1u);
  w.engine.run_until(w.engine.now() + msec(30));
  EXPECT_EQ(ch.oldest_unacked_age(1), msec(30));
}

TEST(ReliableChannel, SendCursorWithBatching) {
  ReliableChannel::Config cfg;
  cfg.send_window = 8;
  cfg.batch_delay = msec(1);
  ChannelWorld w(2, sim::LinkModel{usec(200), 0, 0.0}, cfg);
  WireWatch watch(w, 0, 1);
  auto& ch = *w.procs[0].channel;
  // 200 x 1 KiB in one burst: batches of at most one window, each within
  // one UDP datagram.
  for (int i = 0; i < 200; ++i) ch.send(1, Tag::kApp, kib_payload(i));
  EXPECT_EQ(ch.queued_by_flow_control(1), 200u);  // nothing leaves before the flush
  EXPECT_EQ(ch.oldest_unacked_age(1), 0);
  w.engine.run_until(msec(1));
  EXPECT_EQ(ch.queued_by_flow_control(1), 192u);
  EXPECT_EQ(ch.datagrams_sent(), 1);
  ASSERT_TRUE(test::run_until(w.engine, sec(5), [&] { return w.procs[1].received.size() == 200; }));
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(w.procs[1].received[static_cast<std::size_t>(i)].second,
              test::str_of(kib_payload(i)));
  }
  EXPECT_LE(watch.max_datagram, 65507u);

  // forget() with a flush pending: the flush finds nothing, and a send
  // after forget() still goes out with the next flush.
  w.network.crash(1);
  for (int i = 0; i < 3; ++i) ch.send(1, Tag::kApp, bytes_of("y"));
  ch.forget(1);
  ch.send(1, Tag::kApp, bytes_of("after"));
  EXPECT_EQ(ch.queued_by_flow_control(1), 1u);
  const auto before = ch.datagrams_sent();
  w.engine.run_until(w.engine.now() + msec(1));
  EXPECT_EQ(ch.datagrams_sent(), before + 1);
  EXPECT_EQ(ch.queued_by_flow_control(1), 0u);
  EXPECT_EQ(ch.unacked_count(1), 1u);
}

}  // namespace
}  // namespace gcs
