/// Robustness fuzzing: random and truncated byte strings thrown at every
/// wire-message decoder in the system. Nothing may crash, hang, or corrupt
/// a healthy group — a malformed datagram is (at worst) silently dropped.
#include <gtest/gtest.h>

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
  // Take REAL encoded protocol messages, truncate them at every length,
  // and replay: decoders must reject every prefix quietly.
  Encoder enc;
  enc.put_byte(0);  // consensus kEstimate
  enc.put_u64(7);
  enc.put_i64(3);
  enc.put_i64(2);
  enc.put_bytes(bytes_of("estimate-payload"));
  const Bytes full = enc.take();
  World::Config cfg;
  cfg.n = 3;
  cfg.seed = 31;
  World w(cfg);
  std::size_t delivered = 0;
  w.stack(0).on_adeliver([&](const MsgId&, const Bytes&) { ++delivered; });
  w.found_group_all();
  for (std::size_t len = 0; len < full.size(); ++len) {
    Bytes truncated(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    // Wrap as a channel DATA frame the way a peer would send it.
    Encoder frame;
    frame.put_byte(0);  // channel kData
    frame.put_u64(10'000 + len);
    frame.put_byte(static_cast<std::uint8_t>(Tag::kConsensus));
    frame.put_bytes(truncated);
    frame.put_u64(0);  // ack trailer: nothing acked, no ack request
    Bytes wire = frame.take();
    wire.insert(wire.begin(), static_cast<std::uint8_t>(Tag::kChannel));
    w.network().send(1, 0, std::move(wire));
  }
  w.stack(2).abcast(bytes_of("still fine"));
  ASSERT_TRUE(test::run_until(w.engine(), sec(20), [&] { return delivered >= 1; }));
}

}  // namespace
}  // namespace gcs
