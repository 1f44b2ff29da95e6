/// Robustness fuzzing: random and truncated byte strings thrown at every
/// wire-message decoder in the system. Nothing may crash, hang, or corrupt
/// a healthy group — a malformed datagram is (at worst) silently dropped.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "consensus/consensus.hpp"
#include "core/stack.hpp"
#include "tests/test_util.hpp"
#include "util/codec.hpp"

namespace gcs {
namespace {

using test::bytes_of;

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes b(rng.next_below(max_len + 1));
  for (auto& byte : b) byte = static_cast<std::uint8_t>(rng.next_below(256));
  return b;
}

TEST(Fuzz, DecoderNeverReadsOutOfBounds) {
  Rng rng(2024);
  for (int i = 0; i < 2000; ++i) {
    const Bytes buf = random_bytes(rng, 64);
    Decoder dec(buf);
    // Exercise every accessor repeatedly; all failures must be soft.
    for (int j = 0; j < 8; ++j) {
      switch (rng.next_below(6)) {
        case 0: (void)dec.get_u64(); break;
        case 1: (void)dec.get_i64(); break;
        case 2: (void)dec.get_byte(); break;
        case 3: (void)dec.get_string(); break;
        case 4: (void)dec.get_bytes(); break;
        default: (void)dec.get_msgid(); break;
      }
    }
    (void)dec.ok();
  }
  SUCCEED();
}

TEST(Fuzz, VectorDecoderRejectsHostileLengths) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    Encoder enc;
    enc.put_u64(rng.next_u64());  // often an absurd element count
    Bytes buf = enc.take();
    Decoder dec(buf);
    auto v = dec.get_vector<std::uint64_t>([](Decoder& d) { return d.get_u64(); });
    EXPECT_LE(v.size(), buf.size());
  }
}

/// Inject garbage datagrams into a running group at every wire tag: the
/// group must keep working as if nothing happened.
TEST(Fuzz, GarbageDatagramsDontBreakTheGroup) {
  World::Config cfg;
  cfg.n = 4;
  cfg.seed = 55;
  World w(cfg);
  std::vector<test::DeliveryLog> logs(4);
  for (ProcessId p = 0; p < 4; ++p) {
    w.stack(p).on_adeliver([&logs, p](const MsgId& id, const Bytes& b) {
      logs[static_cast<std::size_t>(p)].record(id, b);
    });
  }
  w.found_group_all();
  Rng rng(99);
  // Interleave real traffic with garbage aimed at every layer's tag.
  for (int i = 0; i < 20; ++i) {
    w.stack(static_cast<ProcessId>(i % 4)).abcast(bytes_of("real" + std::to_string(i)));
    for (int g = 0; g < 5; ++g) {
      Bytes garbage = random_bytes(rng, 48);
      garbage.insert(garbage.begin(),
                     static_cast<std::uint8_t>(1 + rng.next_below(
                                                   static_cast<std::uint64_t>(Tag::kMax) - 1)));
      w.network().send(static_cast<ProcessId>(rng.next_below(4)),
                       static_cast<ProcessId>(rng.next_below(4)), std::move(garbage));
    }
    w.run_for(msec(5));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(30), [&] {
    for (auto& log : logs) {
      if (log.size() < 20) return false;
    }
    return true;
  }));
  for (ProcessId p = 1; p < 4; ++p) {
    EXPECT_EQ(logs[static_cast<std::size_t>(p)].order, logs[0].order);
  }
  // Only the real messages were delivered.
  for (auto& log : logs) EXPECT_EQ(log.size(), 20u);
}

/// Same fuzzing against the channel layer specifically: garbage that looks
/// like channel frames (valid tag, broken interior).
TEST(Fuzz, MalformedChannelFramesAreDropped) {
  World::Config cfg;
  cfg.n = 3;
  cfg.seed = 77;
  World w(cfg);
  std::size_t delivered = 0;
  w.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
  w.found_group_all();
  Rng rng(123);
  for (int i = 0; i < 10; ++i) {
    w.stack(0).abcast(bytes_of("x"));
    for (int g = 0; g < 10; ++g) {
      Bytes frame = random_bytes(rng, 32);
      frame.insert(frame.begin(), static_cast<std::uint8_t>(Tag::kChannel));
      w.network().send(1, 0, std::move(frame));
    }
    w.run_for(msec(5));
  }
  ASSERT_TRUE(test::run_until(w.engine(), sec(20), [&] { return delivered >= 10; }));
}

TEST(Fuzz, TruncatedRealMessagesAreDropped) {
  // Take REAL encoded consensus messages of every kind, truncate them at
  // every length and hand each prefix straight to the consensus decoder
  // (through the channel, frames ahead of the receive cursor would only be
  // parked): no prefix may start an instance, decide one or send anything.
  const std::vector<ProcessId> members{0, 1, 2};
  const Bytes value = bytes_of("estimate-payload");
  auto message = [](std::uint8_t kind, const std::function<void(Encoder&)>& body) {
    Encoder enc;
    enc.put_byte(kind);
    enc.put_u64(7);  // instance
    body(enc);
    return enc.take();
  };
  auto put_members = [&](Encoder& e) {
    e.put_vector(members, [](Encoder& en, ProcessId p) { en.put_i32(p); });
  };
  const std::vector<Bytes> messages = {
      message(0, [&](Encoder& e) {  // ESTIMATE r=3 (c(3) = p0), ts=2
        e.put_i64(3);
        e.put_i64(2);
        put_members(e);
        e.put_bytes(value);
      }),
      message(1, [&](Encoder& e) {  // PROPOSE r=0
        e.put_i64(0);
        e.put_bytes(value);
      }),
      message(2, [&](Encoder& e) { e.put_i64(0); }),  // ACK r=0
      message(3, [&](Encoder& e) {                    // NACK r=0
        e.put_i64(0);
        put_members(e);
      }),
      message(4, [&](Encoder& e) { e.put_bytes(value); }),  // DECIDE
      message(5, [&](Encoder& e) {                          // ANNOUNCE
        put_members(e);
        e.put_bytes(value);
      }),
  };

  sim::Engine engine;
  sim::Network network(engine, 3, {}, 31);
  sim::Context ctx(0, engine, Rng(31), Logger(), std::make_shared<Metrics>());
  SimTransport transport(ctx, network);
  ReliableChannel channel(ctx, transport);
  FailureDetector fd(ctx, transport);
  Consensus consensus(ctx, channel, fd, fd.add_class(msec(60)));
  int decisions = 0;
  consensus.on_decide([&](std::uint64_t, const Bytes&) { ++decisions; });

  for (const Bytes& full : messages) {
    for (std::size_t len = 0; len < full.size(); ++len) {
      consensus.on_message(1, BytesView(full.data(), len));
    }
  }
  engine.run_until(msec(50));
  EXPECT_EQ(consensus.open_instances(), 0);
  EXPECT_EQ(ctx.metrics().counter("consensus.instances_started"), 0);
  EXPECT_EQ(ctx.metrics().counter("consensus.wire_msgs"), 0);
  EXPECT_EQ(decisions, 0);
  // The whole DECIDE does reach the decoder.
  consensus.on_message(1, messages[4]);
  EXPECT_EQ(decisions, 1);
  EXPECT_TRUE(consensus.decided(7));
}

}  // namespace
}  // namespace gcs
