/// \file bench_e8_ablations.cpp
/// E8 — ablations of the implementation's own design choices (not from the
/// paper's evaluation, but DESIGN.md commitments):
///   (a) failure-detector quality of service: heartbeat interval and
///       timeout vs detection time and false-suspicion rate on a lossy
///       link — the knob trade-off behind §4.3;
///   (b) reliable-channel retransmission period under loss;
///   (c) atomic-broadcast batching: burstiness vs consensus instances;
///   (d) generic-broadcast resolve timeout: spurious resolutions vs
///       worst-case delivery latency when ACKs are lost.
#include <memory>

#include "bench/bench_util.hpp"
#include "channel/reliable_channel.hpp"
#include "fd/failure_detector.hpp"
#include "transport/sim_transport.hpp"
#include "util/codec.hpp"

namespace gcs::bench {
namespace {

// --- (a) FD quality of service ----------------------------------------------

struct FdQos {
  Duration detection = 0;
  std::int64_t false_suspicions = 0;
};

FdQos fd_qos(Duration heartbeat, Duration timeout) {
  sim::Engine engine;
  sim::Network network(engine, 2, sim::LinkModel{usec(300), usec(400), 0.10}, 77);
  sim::Context c0(0, engine, Rng(1), Logger(), std::make_shared<Metrics>());
  sim::Context c1(1, engine, Rng(2), Logger(), std::make_shared<Metrics>());
  SimTransport t0(c0, network), t1(c1, network);
  FailureDetector fd0(c0, t0, FailureDetector::Config{heartbeat});
  FailureDetector fd1(c1, t1, FailureDetector::Config{heartbeat});
  const auto cls = fd0.add_class(timeout);
  fd0.monitor(cls, 1);
  fd0.start();
  fd1.start();
  // 20 virtual seconds of steady state to count false suspicions...
  engine.run_until(sec(20));
  FdQos qos;
  qos.false_suspicions = fd0.false_suspicions();
  // ...then crash and measure detection latency.
  const TimePoint crash_at = engine.now();
  network.crash(1);
  TimePoint detected = -1;
  fd0.on_suspect(cls, [&](ProcessId) {
    if (detected < 0) detected = engine.now();
  });
  // If currently (falsely) suspected, the next check fires immediately;
  // run until a stable suspicion exists.
  drive(engine, sec(30), [&] { return fd0.suspects(cls, 1); });
  qos.detection = (detected < 0 ? engine.now() : detected) - crash_at;
  return qos;
}

// --- (b) channel retransmission period --------------------------------------

struct RtoResult {
  double mean_latency = 0;  // µs
  double retransmits = 0;
};

/// Seeds of the 30%-loss pattern (b) averages over: one seed's loss
/// pattern moves a row by more than the rto choice does.
constexpr std::uint64_t kRtoSeeds = 40;

RtoResult channel_rto(Duration rto, std::uint64_t seed) {
  sim::Engine engine;
  sim::Network network(engine, 2, sim::LinkModel{usec(300), usec(200), 0.30}, seed);
  sim::Context c0(0, engine, Rng(1), Logger(), std::make_shared<Metrics>());
  sim::Context c1(1, engine, Rng(2), Logger(), std::make_shared<Metrics>());
  SimTransport t0(c0, network), t1(c1, network);
  ReliableChannel ch0(c0, t0, ReliableChannel::Config{rto});
  ReliableChannel ch1(c1, t1, ReliableChannel::Config{rto});
  Histogram lat;
  std::map<std::uint64_t, TimePoint> sent_at;
  std::uint64_t received = 0;
  ch1.subscribe(Tag::kApp, [&](ProcessId, BytesView b) {
    Decoder dec(b);
    const std::uint64_t i = dec.get_u64();
    lat.add(engine.now() - sent_at[i]);
    ++received;
  });
  const int kMsgs = 300;
  for (int i = 0; i < kMsgs; ++i) {
    engine.schedule_at(i * msec(1), [&, i] {
      Encoder enc;
      enc.put_u64(static_cast<std::uint64_t>(i));
      sent_at[static_cast<std::uint64_t>(i)] = engine.now();
      ch0.send(1, Tag::kApp, enc.take());
    });
  }
  drive(engine, sec(120), [&] { return received >= kMsgs; });
  RtoResult r;
  r.mean_latency = lat.mean();
  r.retransmits = static_cast<double>(c0.metrics().counter("channel.retransmits"));
  return r;
}

RtoResult channel_rto(Duration rto) {
  RtoResult mean;
  for (std::uint64_t seed = 1; seed <= kRtoSeeds; ++seed) {
    const RtoResult r = channel_rto(rto, seed);
    mean.mean_latency += r.mean_latency / kRtoSeeds;
    mean.retransmits += r.retransmits / kRtoSeeds;
  }
  return mean;
}

// --- (c) abcast batching ------------------------------------------------------

struct BatchResult {
  std::int64_t consensus = 0;
  Duration elapsed = 0;
};

BatchResult abcast_batching(Duration send_gap) {
  World::Config config;
  config.n = 4;
  config.seed = 3;
  World world(config);
  OracleScope oracle(world, "e8/abcast_batching");
  std::size_t delivered = 0;
  world.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
  world.found_group_all();
  const int kMsgs = 120;
  int sent = 0;
  const TimePoint start = world.engine().now();
  std::function<void()> tick = [&] {
    if (sent >= kMsgs) return;
    world.stack(static_cast<ProcessId>(sent % 4)).abcast(payload_of(sent));
    ++sent;
    world.engine().schedule_after(send_gap, tick);
  };
  world.engine().schedule_after(0, tick);
  drive(world.engine(), sec(120), [&] { return delivered >= kMsgs; });
  BatchResult r;
  r.consensus = world.stack(0).consensus().instances_decided();
  r.elapsed = world.engine().now() - start;
  return r;
}

// --- (d) generic-broadcast resolve timeout ------------------------------------

struct ResolveResult {
  Duration worst_latency = 0;
  std::uint64_t rounds_resolved = 0;
};

ResolveResult gb_resolve_timeout(Duration resolve_timeout) {
  World::Config config;
  config.n = 4;
  config.seed = 19;
  config.stack.gb.resolve_timeout = resolve_timeout;
  // Lossy links: ACKs get lost, sometimes starving the fast quorum, so the
  // deadline path has to fire.
  config.link.drop_probability = 0.15;
  World world(config);
  OracleScope oracle(world, "e8/gb_resolve_timeout");
  Histogram lat;
  std::map<MsgId, TimePoint> sent_at;
  std::size_t delivered = 0;
  world.stack(0).on_gdeliver([&](const MsgId& id, MsgClass, const Bytes&) {
    auto it = sent_at.find(id);
    if (it != sent_at.end()) lat.add(world.engine().now() - it->second);
    ++delivered;
  });
  world.found_group_all();
  const int kMsgs = 60;
  for (int i = 0; i < kMsgs; ++i) {
    world.engine().schedule_at(i * msec(2), [&, i] {
      sent_at[world.stack(static_cast<ProcessId>(i % 4)).rbcast(payload_of(i))] =
          world.engine().now();
    });
  }
  drive(world.engine(), sec(300), [&] { return delivered >= kMsgs; });
  ResolveResult r;
  r.worst_latency = lat.max();
  r.rounds_resolved = world.stack(0).generic_broadcast().rounds_resolved();
  return r;
}


// --- (e) generic-broadcast fast quorum: why ceil(2n/3)+ -----------------------

struct QuorumResult {
  int order_violations = 0;
  Duration mean_latency = 0;
  int runs = 0;
};

QuorumResult gb_quorum(int quorum_override, int runs) {
  QuorumResult out;
  Histogram lat;
  for (int r = 0; r < runs; ++r) {
    World::Config config;
    config.n = 4;
    config.seed = 1000 + static_cast<std::uint64_t>(r);
    config.link.jitter = usec(400);
    config.stack.gb.unsafe_fast_quorum_override = quorum_override;
    World world(config);
    // Sub-2n/3 quorums violate on purpose: that is the ablation's point.
    OracleScope oracle(world, "e8/gb_quorum", /*check=*/quorum_override >= 3);
    // Per-process delivery order of conflicting (class-1) messages.
    std::vector<std::vector<MsgId>> orders(4);
    std::map<MsgId, TimePoint> sent;
    for (ProcessId p = 0; p < 4; ++p) {
      world.stack(p).on_gdeliver([&, p](const MsgId& id, MsgClass cls, const Bytes&) {
        if (cls == kAbcastClass) orders[static_cast<std::size_t>(p)].push_back(id);
        if (p == 0) {
          auto it = sent.find(id);
          if (it != sent.end()) lat.add(world.engine().now() - it->second);
        }
      });
    }
    world.found_group_all();
    // Race pairs of conflicting messages from different senders.
    for (int i = 0; i < 6; ++i) {
      world.engine().schedule_at(i * msec(3), [&world, &sent, i] {
        sent[world.stack(static_cast<ProcessId>(i % 4)).gbcast(kAbcastClass, payload_of(i))] =
            world.engine().now();
        sent[world.stack(static_cast<ProcessId>((i + 1) % 4))
                 .gbcast(kAbcastClass, payload_of(100 + i))] = world.engine().now();
      });
    }
    drive(world.engine(), sec(60), [&] {
      for (auto& o : orders) {
        if (o.size() < 12) return false;
      }
      return true;
    });
    // Count pairwise order disagreements across processes.
    bool violated = false;
    for (std::size_t a = 0; a < 4 && !violated; ++a) {
      for (std::size_t b = a + 1; b < 4 && !violated; ++b) {
        std::map<MsgId, std::size_t> pos;
        for (std::size_t i = 0; i < orders[b].size(); ++i) pos[orders[b][i]] = i;
        for (std::size_t i = 0; i < orders[a].size() && !violated; ++i) {
          for (std::size_t j = i + 1; j < orders[a].size() && !violated; ++j) {
            auto pi = pos.find(orders[a][i]);
            auto pj = pos.find(orders[a][j]);
            if (pi == pos.end() || pj == pos.end()) continue;
            if (pi->second > pj->second) violated = true;
          }
        }
      }
    }
    if (violated) ++out.order_violations;
    ++out.runs;
  }
  out.mean_latency = static_cast<Duration>(lat.mean());
  return out;
}


// --- (f) consensus algorithm: Chandra-Toueg vs Paxos --------------------------

struct AlgoResult {
  Duration mean_latency = 0;
  double msgs_per_abcast = 0;
  Duration crash_stall = 0;
};

AlgoResult consensus_algo(StackConfig::ConsensusAlgo algo) {
  World::Config config;
  config.n = 4;
  config.seed = 6;
  config.stack.consensus_algorithm = algo;
  World world(config);
  OracleScope oracle(world, "e8/consensus_algo");
  Histogram lat;
  std::map<MsgId, TimePoint> sent;
  std::size_t delivered = 0;
  TimePoint crash_time = 0;
  Duration worst_after_crash = 0;
  world.stack(1).on_adeliver([&](const MsgId& id, const Bytes&) {
    ++delivered;
    auto it = sent.find(id);
    if (it == sent.end()) return;
    const Duration l = world.engine().now() - it->second;
    if (crash_time == 0) lat.add(l);
    else if (it->second >= crash_time - msec(50)) worst_after_crash = std::max(worst_after_crash, l);
  });
  world.found_group_all();
  const auto base = world.network().metrics().counter("net.sent");
  const int kMsgs = 100;
  int i = 0;
  std::function<void()> tick = [&] {
    if (i >= kMsgs) return;
    sent[world.stack(1).abcast(payload_of(i))] = world.engine().now();
    ++i;
    world.engine().schedule_after(msec(2), tick);
  };
  world.engine().schedule_after(0, tick);
  drive(world.engine(), sec(60), [&] { return delivered >= kMsgs; });
  AlgoResult r;
  r.mean_latency = static_cast<Duration>(lat.mean());
  r.msgs_per_abcast =
      static_cast<double>(world.network().metrics().counter("net.sent") - base) / kMsgs;
  // Now crash the coordinator/ballot-0 owner (p0 for both) and keep sending.
  crash_time = world.engine().now();
  world.crash(0);
  const std::size_t before = delivered;
  int j = 0;
  std::function<void()> tick2 = [&] {
    if (j >= 30) return;
    sent[world.stack(1).abcast(payload_of(1000 + j))] = world.engine().now();
    ++j;
    world.engine().schedule_after(msec(2), tick2);
  };
  world.engine().schedule_after(0, tick2);
  drive(world.engine(), sec(60), [&] { return delivered >= before + 30; });
  r.crash_stall = worst_after_crash;
  return r;
}


// --- (g) channel batching (piggybacking) --------------------------------------

struct BatchingResult {
  std::int64_t datagrams = 0;
  Duration mean_latency = 0;
};

BatchingResult channel_batching(Duration batch_delay) {
  World::Config config;
  config.n = 4;
  config.seed = 12;
  config.stack.channel.batch_delay = batch_delay;
  World world(config);
  OracleScope oracle(world, "e8/channel_batching");
  Histogram lat;
  std::map<MsgId, TimePoint> sent;
  std::size_t delivered = 0;
  world.stack(0).on_adeliver([&](const MsgId& id, const Bytes&) {
    ++delivered;
    auto it = sent.find(id);
    if (it != sent.end()) lat.add(world.engine().now() - it->second);
  });
  world.found_group_all();
  const int kMsgs = 80;
  int i = 0;
  std::function<void()> tick = [&] {
    if (i >= kMsgs) return;
    sent[world.stack(static_cast<ProcessId>(i % 4)).abcast(payload_of(i))] =
        world.engine().now();
    ++i;
    world.engine().schedule_after(msec(2), tick);
  };
  world.engine().schedule_after(0, tick);
  drive(world.engine(), sec(60), [&] { return delivered >= kMsgs; });
  BatchingResult r;
  for (ProcessId p = 0; p < 4; ++p) r.datagrams += world.stack(p).channel().datagrams_sent();
  r.mean_latency = static_cast<Duration>(lat.mean());
  return r;
}

}  // namespace
}  // namespace gcs::bench

int main(int argc, char** argv) {
  using namespace gcs;
  using namespace gcs::bench;
  oracle_setup(argc, argv);
  banner("E8: design-choice ablations",
         "knobs of this implementation, each with its measured trade-off");

  std::printf("(a) failure detector QoS — 10%% loss, 300+U[0,400]us links,\n"
              "    20 virtual seconds of steady state then a crash:\n\n");
  Table fd_table({"heartbeat (ms)", "timeout (ms)", "detection (ms)", "false susp. / 20s"});
  for (Duration hb : {msec(5), msec(10), msec(20)}) {
    for (Duration to : {msec(20), msec(60), msec(200)}) {
      if (to <= hb) continue;
      const auto q = fd_qos(hb, to);
      fd_table.add_row({fmt_ms(hb), fmt_ms(to), fmt_ms(q.detection),
                        fmt_int(q.false_suspicions)});
    }
  }
  fd_table.print();
  std::printf("    -> smaller timeouts detect faster but mis-fire more: exactly the\n"
              "       trade-off §4.3 exploits (the new stack makes mistakes cheap).\n");

  std::printf("\n(b) reliable channel retransmission period — 30%% loss, mean of %d seeds:\n\n",
              static_cast<int>(kRtoSeeds));
  Table rto_table({"rto (ms)", "mean latency (ms)", "retransmits / 300 msgs"});
  for (Duration rto : {msec(2), msec(5), msec(10), msec(20), msec(50)}) {
    const auto r = channel_rto(rto);
    rto_table.add_row({fmt_ms(rto), fmt_ms(r.mean_latency), fmt_double(r.retransmits, 1)});
  }
  rto_table.print();

  std::printf("\n(c) atomic-broadcast batching — 120 messages, varying send gap:\n\n");
  Table batch_table({"send gap (ms)", "consensus instances", "msgs/instance", "elapsed (ms)"});
  for (Duration gap : {usec(0), usec(100), usec(500), msec(1), msec(2)}) {
    const auto b = abcast_batching(gap);
    batch_table.add_row({fmt_ms(gap), fmt_int(b.consensus),
                         fmt_double(120.0 / static_cast<double>(std::max<std::int64_t>(1, b.consensus)), 1),
                         fmt_ms(b.elapsed)});
  }
  batch_table.print();
  std::printf("    -> bursty senders amortize: one consensus instance orders a batch.\n");

  std::printf("\n(d) generic-broadcast resolve timeout — 15%% loss starves quorums:\n\n");
  Table gb_table({"resolve timeout (ms)", "worst delivery latency (ms)", "rounds resolved"});
  for (Duration t : {msec(25), msec(50), msec(100), msec(200), msec(400)}) {
    const auto g = gb_resolve_timeout(t);
    gb_table.add_row({fmt_ms(t), fmt_ms(g.worst_latency), fmt_int(g.rounds_resolved)});
  }
  gb_table.print();
  std::printf("    -> the deadline bounds worst-case latency when ACKs are lost;\n"
              "       shorter deadlines pay with more (abcast-backed) resolutions.\n");

  std::printf("\n(e) generic-broadcast fast quorum (n=4): why > 2n/3 is required —\n"
              "    40 runs of racing conflicting pairs per quorum size:\n\n");
  Table q_table({"fast quorum", "safe?", "order violations", "mean latency (ms)"});
  struct Q { int q; const char* note; };
  for (auto [q, note] : {Q{2, "NO (= n/2)"}, Q{3, "yes (2n/3+1)"}, Q{4, "yes (all)"}}) {
    const auto r = gb_quorum(q, 40);
    q_table.add_row({fmt_int(q), note,
                     fmt_int(r.order_violations) + "/" + fmt_int(r.runs),
                     fmt_ms(r.mean_latency)});
  }
  q_table.print();
  std::printf("    -> a quorum of 2 lets two conflicting messages BOTH fast-deliver\n"
              "       (disjoint ACK sets of size 2 fit in n=4): total order breaks.\n"
              "       The formula quorum (3) is the smallest safe choice; 4 is safe\n"
              "       but stalls whenever any single process is slow.\n");

  std::printf("\n(f) the consensus algorithm under the SAME stack (n=4, 100 abcasts,\n"
              "    then crash the coordinator/ballot-0 owner):\n\n");
  Table a_table({"algorithm", "mean latency (ms)", "net msgs/abcast", "post-crash stall (ms)"});
  const auto ct = consensus_algo(StackConfig::ConsensusAlgo::kChandraToueg);
  a_table.add_row({"Chandra-Toueg (\xe2\x97\x87S rounds)", fmt_ms(ct.mean_latency),
                   fmt_double(ct.msgs_per_abcast, 1), fmt_ms(ct.crash_stall)});
  const auto px = consensus_algo(StackConfig::ConsensusAlgo::kPaxos);
  a_table.add_row({"Paxos (ballots)", fmt_ms(px.mean_latency),
                   fmt_double(px.msgs_per_abcast, 1), fmt_ms(px.crash_stall)});
  a_table.print();
  std::printf("    -> the paper's architectural claim is algorithm-agnostic: both\n"
              "       consensus protocols carry the identical upper stack; they\n"
              "       differ only in cost profile.\n");

  std::printf("\n(g) channel batching (piggybacking), 80 abcasts over n=4:\n\n");
  Table b_table({"batch delay (ms)", "channel datagrams", "mean abcast latency (ms)"});
  for (Duration d : {usec(0), usec(50), usec(200), msec(1)}) {
    const auto r = channel_batching(d);
    b_table.add_row({fmt_ms(d), fmt_int(r.datagrams), fmt_ms(r.mean_latency)});
  }
  b_table.print();
  std::printf("    -> consensus bursts (estimate/propose/ack per instance) pack into\n"
              "       shared frames; the batch delay trades datagram count against a\n"
              "       latency floor bump.\n");
  return oracle_verdict();
}
