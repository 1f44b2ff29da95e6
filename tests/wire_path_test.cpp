/// Zero-copy wire path (DESIGN.md §12): id-only proposals and reports, and
/// the payload pull/push fallback. These tests pin the behaviours the wire
/// benchmarks rely on: a process that decides an instance without having
/// rdelivered the payloads (a late joiner) pulls them over the channel and
/// delivers byte-identically, consensus traffic is independent of payload
/// size, and id-only resolution keeps generic broadcast's conflict
/// ordering intact.
#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/stack.hpp"
#include "tests/test_util.hpp"

namespace gcs {
namespace {

using test::bytes_of;

World::Config cfg(int n, std::uint64_t seed) {
  World::Config c;
  c.n = n;
  c.seed = seed;
  return c;
}

TEST(WireFormat, LateJoinerPullsMissingPayloadsAndDeliversByteIdentically) {
  // The joiner's state snapshot carries adelivered ids but no payload
  // bytes, and the message `gap` below is flooded to {0,1,2} only yet
  // ordered after the join — so the joiner decides its instance without
  // ever having rdelivered it. The only way it can deliver it is the
  // Tag::kAbcast pull/push fallback.
  World w(cfg(4, 23));
  std::vector<test::DeliveryLog> logs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group({0, 1, 2});
  for (int i = 0; i < 10; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of("pre" + std::to_string(i)));
    w.run_for(msec(5));
  }
  ASSERT_TRUE(test::run_until(w, sec(10), [&] {
    return logs[0].size() >= 10 && logs[1].size() >= 10 && logs[2].size() >= 10;
  }));
  w.run_for(msec(50));  // quiesce: no instance open anywhere

  // Join via contact 0, and stop right after p0 starts the join's
  // instance J. p0 coordinates J (members[0]) and has proposed its batch,
  // so `gap` is not in J. p0 floods `gap` to the old group before it sends
  // DECIDE(J), so on every FIFO channel from p0 the flood precedes the
  // decision: p1 and p2 relay `gap` before they install the view with the
  // joiner, and nobody relays it to the joiner.
  const std::int64_t started = w.stack(0).metrics().counter("consensus.instances_started");
  w.stack(3).join(0);
  ASSERT_TRUE(test::run_until(w, sec(10), [&] {
    return w.stack(0).metrics().counter("consensus.instances_started") > started;
  }));
  ASSERT_FALSE(w.stack(0).view().contains(3));
  w.stack(0).abcast(bytes_of("gap"));
  // A steady trickle after the join keeps instances in flight.
  const int kBurst = 60;
  for (int i = 0; i < kBurst; ++i) {
    w.stack(static_cast<ProcessId>(i % 3)).abcast(bytes_of("burst" + std::to_string(i)));
    w.run_for(msec(1));
  }
  ASSERT_TRUE(test::run_until(w, sec(20), [&] {
    return w.stack(3).membership().is_member() && logs[0].size() >= 11 + kBurst &&
           logs[3].size() >= 5;
  }));
  w.run_for(sec(1));

  EXPECT_GT(w.stack(3).metrics().counter("abcast.pull_requests"), 0)
      << "joiner never exercised the payload-pull fallback";
  EXPECT_NE(std::find(logs[3].payloads.begin(), logs[3].payloads.end(), "gap"),
            logs[3].payloads.end());
  // Byte-identical delivery: the joiner's whole log must equal the
  // corresponding window of a founding member's log, ids and payloads.
  const auto& member = logs[0];
  const auto& joiner = logs[3];
  ASSERT_GT(joiner.size(), 0u);
  const auto anchor = std::find(member.order.begin(), member.order.end(), joiner.order[0]);
  ASSERT_NE(anchor, member.order.end()) << "joiner delivered an id no member delivered";
  const std::size_t base =
      static_cast<std::size_t>(std::distance(member.order.begin(), anchor));
  ASSERT_LE(base + joiner.size(), member.size());
  for (std::size_t i = 0; i < joiner.size(); ++i) {
    EXPECT_EQ(joiner.order[i], member.order[base + i]) << "order diverges at " << i;
    EXPECT_EQ(joiner.payloads[i], member.payloads[base + i])
        << "payload bytes diverge at " << i;
  }
}

TEST(WireFormat, PayloadBytesNeverEnterConsensus) {
  // Identical workload and seed at two payload sizes: every process
  // delivers the same total order with the same payload bytes, and the
  // bytes through the consensus tag do not depend on the payload size.
  const int kN = 5;
  const int kMsgs = 40;
  std::map<std::size_t, std::int64_t> consensus_bytes;
  for (const std::size_t payload_size : {std::size_t{64}, std::size_t{8192}}) {
    World w(cfg(kN, 29));
    std::vector<test::DeliveryLog> logs(kN);
    for (ProcessId p = 0; p < kN; ++p) {
      w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
        logs[static_cast<std::size_t>(p)].record(id, b);
      });
    }
    w.found_group_all();
    for (int i = 0; i < kMsgs; ++i) {
      std::string body = "m" + std::to_string(i) + ":";
      body.resize(payload_size, 'x');
      w.stack(static_cast<ProcessId>(i % kN)).abcast(bytes_of(body));
      if (i % 4 == 3) w.run_for(msec(10));
    }
    ASSERT_TRUE(test::run_until(w, sec(30), [&] {
      for (const auto& log : logs) {
        if (log.size() < static_cast<std::size_t>(kMsgs)) return false;
      }
      return true;
    }));
    w.run_for(msec(200));
    for (int p = 1; p < kN; ++p) {
      EXPECT_EQ(logs[static_cast<std::size_t>(p)].order, logs[0].order);
      EXPECT_EQ(logs[static_cast<std::size_t>(p)].payloads, logs[0].payloads);
    }
    ASSERT_EQ(logs[0].size(), static_cast<std::size_t>(kMsgs));
    for (const std::string& payload : logs[0].payloads) {
      EXPECT_EQ(payload.size(), payload_size);
    }
    std::int64_t bytes = 0;
    for (ProcessId p = 0; p < kN; ++p) {
      bytes += w.stack(p).metrics().counter("consensus.wire_bytes");
    }
    consensus_bytes[payload_size] = bytes;
  }
  EXPECT_GT(consensus_bytes[64], 0);
  EXPECT_EQ(consensus_bytes[64], consensus_bytes[8192])
      << "payload bytes leaked into consensus traffic";
}

TEST(WireFormat, GbSlimResolutionOrdersConflictsConsistently) {
  // Conflicting gbcasts forced through the resolution path with id-only
  // reports: every process gdelivers the conflicting class in the same
  // order, with the payload bytes intact.
  const int kN = 3;
  World w(cfg(kN, 31));
  std::vector<test::DeliveryLog> logs(kN);
  for (ProcessId p = 0; p < kN; ++p) {
    w.stack(p).on_gdeliver([&logs, p](const MsgId& id, MsgClass, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  const int kRounds = 15;
  for (int i = 0; i < kRounds; ++i) {
    // Concurrent conflicting submissions from every sender: the fast path
    // cannot commit all of them, so rounds resolve via abcast reports.
    for (ProcessId p = 0; p < kN; ++p) {
      w.stack(p).gbcast(kAbcastClass, bytes_of("c" + std::to_string(i) + "p" + std::to_string(p)));
    }
    w.run_for(msec(30));
  }
  const std::size_t total = static_cast<std::size_t>(kRounds * kN);
  ASSERT_TRUE(test::run_until(w, sec(30), [&] {
    for (const auto& log : logs) {
      if (log.size() < total) return false;
    }
    return true;
  }));
  w.run_for(msec(300));
  std::uint64_t resolved = 0;
  for (ProcessId p = 0; p < kN; ++p) {
    resolved += w.stack(p).generic_broadcast().resolved_deliveries();
  }
  EXPECT_GT(resolved, 0u) << "workload never exercised resolution reports";
  for (ProcessId p = 0; p < kN; ++p) {
    auto& log = logs[static_cast<std::size_t>(p)];
    EXPECT_EQ(log.size(), total) << "duplicate or lost gdelivery at p" << p;
    EXPECT_EQ(log.order, logs[0].order) << "conflict order diverges at p" << p;
    EXPECT_EQ(log.payloads, logs[0].payloads);
  }
}

}  // namespace
}  // namespace gcs
