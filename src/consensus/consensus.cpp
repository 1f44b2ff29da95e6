#include "consensus/consensus.hpp"

#include <algorithm>
#include <cassert>

#include "util/codec.hpp"

namespace gcs {

namespace {
// Wire layouts (after the kind byte and the u64 instance number):
//   ESTIMATE  r, ts, members, value
//   PROPOSE   r, value
//   ACK       r
//   NACK      r, members
//   DECIDE    value
//   ANNOUNCE  members, value
constexpr std::uint8_t kEstimate = 0;
constexpr std::uint8_t kPropose = 1;
constexpr std::uint8_t kAck = 2;
constexpr std::uint8_t kNack = 3;
constexpr std::uint8_t kDecide = 4;
constexpr std::uint8_t kAnnounce = 5;

/// Rounds beyond this are hostile input (r + 1 must not overflow).
constexpr std::int64_t kMaxRound = std::int64_t{1} << 62;

void put_members(Encoder& enc, const std::vector<ProcessId>& members) {
  enc.put_vector(members, [](Encoder& e, ProcessId p) { e.put_i32(p); });
}

/// Decode a member list into \p out; false unless it is well formed and
/// names \p self (every receiver is a member of the instance).
bool get_members(Decoder& dec, std::vector<ProcessId>& out, ProcessId self) {
  dec.get_vector_into(out, [](Decoder& d) { return d.get_i32(); });
  return dec.ok() && std::find(out.begin(), out.end(), self) != out.end();
}

Payload shared(std::shared_ptr<Bytes> wire) {
  return Payload(std::shared_ptr<const Bytes>(std::move(wire)));
}
}  // namespace

Consensus::Consensus(sim::Context& ctx, ReliableChannel& channel, FailureDetector& fd,
                     FailureDetector::ClassId fd_class, Tag tag)
    : ctx_(ctx), channel_(channel), fd_(fd), fd_class_(fd_class), tag_(tag),
      m_started_(metric_id("consensus.instances_started")),
      m_rounds_(metric_id("consensus.rounds")),
      m_decided_(metric_id("consensus.decided")),
      h_latency_(metric_id("consensus.latency_us")),
      h_propose_wait_(metric_id("consensus.propose_wait_us")),
      h_accept_rtt_(metric_id("consensus.accept_rtt_us")) {
  channel_.subscribe(tag_, [this](ProcessId from, BytesView b) { on_message(from, b); });
  fd_.on_suspect(fd_class_, [this](ProcessId q) { on_fd_suspect(q); });
}

Consensus::Instance::RoundState& Consensus::Instance::round_state(std::int64_t r) {
  if (RoundState* found = find_round(r)) return *found;
  rounds.push_back(RoundState{});
  rounds.back().r = r;
  return rounds.back();
}

Consensus::Instance::RoundState* Consensus::Instance::find_round(std::int64_t r) {
  for (RoundState& round : rounds) {
    if (round.r == r) return &round;
  }
  return nullptr;
}

void Consensus::Instance::reset(const std::vector<ProcessId>* members_hint) {
  if (members_hint) {
    members.assign(members_hint->begin(), members_hint->end());
  } else {
    members.clear();
  }
  majority = members.empty() ? 0 : static_cast<int>(members.size()) / 2 + 1;
  started = decided = announced = acked = false;
  estimate.clear();
  estimate_ts = -1;
  round = 0;
  started_at = proposed_at = -1;
  rounds.clear();
}

Consensus::Instance& Consensus::get_instance(std::uint64_t k,
                                             const std::vector<ProcessId>* members_hint) {
  auto it = instances_.find(k);
  if (it == instances_.end()) {
    it = spare_instances_.emplace(instances_, k);
    it->second.reset(members_hint);
  } else if (it->second.members.empty() && members_hint) {
    it->second.members = *members_hint;
    it->second.majority = static_cast<int>(members_hint->size()) / 2 + 1;
  }
  return it->second;
}

std::shared_ptr<Bytes> Consensus::frame(std::uint8_t kind, std::uint64_t k) {
  std::shared_ptr<Bytes> wire = pool_.acquire();
  Encoder enc(*wire);
  enc.put_byte(kind);
  enc.put_u64(k);
  return wire;
}

void Consensus::send_to_others(const std::vector<ProcessId>& members, const Payload& wire) {
  for (ProcessId p : members) {
    if (p != ctx_.self()) channel_.send(p, tag_, wire);
  }
}

Payload Consensus::decide_frame(std::uint64_t k, BytesView value) {
  std::shared_ptr<Bytes> wire = frame(kDecide, k);
  Encoder(*wire).put_bytes(value);
  return shared(std::move(wire));
}

bool Consensus::answer_decided(ProcessId to, std::uint64_t k) {
  auto it = decisions_.find(k);
  if (it == decisions_.end()) return false;
  channel_.send(to, tag_, decide_frame(k, *it->second.value));
  return true;
}

void Consensus::propose(std::uint64_t k, Bytes value, const std::vector<ProcessId>& members) {
  assert(!members.empty());
  if (k < forgotten_below_) return;
  if (auto it = decisions_.find(k); it != decisions_.end()) {
    // Instance already decided (we learned the decision passively).
    const std::shared_ptr<const Bytes> held = it->second.value;
    for (const auto& fn : decide_fns_) fn(k, *held);
    return;
  }
  Instance& inst = get_instance(k, &members);
  if (inst.started || inst.decided) return;
  inst.started = true;
  inst.started_at = ctx_.now();
  ctx_.trace_begin(obs::Names::get().consensus_instance,
                   MsgId{obs::kConsensusKey, k});
  // Do not clobber an estimate adopted while participating passively: it may
  // be locked by a majority (CT safety argument relies on keeping it).
  if (inst.estimate_ts < 0) {
    inst.estimate = std::move(value);
    inst.estimate_ts = 0;
  }
  ctx_.metrics().inc(m_started_);
  // FD must watch everyone who may become coordinator.
  fd_.monitor_group(fd_class_, inst.members);
  join_round(k, inst);
}

void Consensus::join_round(std::uint64_t k, Instance& inst) {
  const std::int64_t r = inst.round;
  ctx_.metrics().inc(m_rounds_);
  if (r > 0) announce(k, inst);
  if (!inst.acked) {
    ctx_.trace_instant(obs::Names::get().consensus_estimate, MsgId{obs::kConsensusKey, k},
                       r);
    const ProcessId c = inst.coordinator(r);
    if (c == ctx_.self()) {
      handle_estimate(c, k, r, inst.estimate_ts, inst.members, inst.estimate);
    } else {
      std::shared_ptr<Bytes> wire = frame(kEstimate, k);
      Encoder enc(*wire);
      enc.put_i64(r);
      enc.put_i64(inst.estimate_ts);
      put_members(enc, inst.members);
      enc.put_bytes(inst.estimate);
      channel_.send(c, tag_, shared(std::move(wire)));
    }
  }
  watch_coordinator(k, inst);
}

void Consensus::watch_coordinator(std::uint64_t k, const Instance& inst) {
  // Suspicions raised later arrive through on_fd_suspect. If the coordinator
  // is already suspected, leave soon: the small delay bounds round churn
  // when many coordinators are suspected at once (e.g. during a partition)
  // and lets heartbeats revoke mistakes.
  if (inst.decided) return;
  const std::int64_t r = inst.round;
  const ProcessId c = inst.coordinator(r);
  if (c == ctx_.self() || !fd_.suspects(fd_class_, c)) return;
  ctx_.after(msec(1), [this, k, r] {
    auto it = instances_.find(k);
    if (it == instances_.end()) return;
    Instance& i = it->second;
    if (i.round == r && fd_.suspects(fd_class_, i.coordinator(r))) leave_round(k, i, r);
  });
}

void Consensus::leave_round(std::uint64_t k, Instance& inst, std::int64_t r) {
  if (inst.decided || r < inst.round) return;
  ctx_.trace_instant(obs::Names::get().consensus_nack, MsgId{obs::kConsensusKey, k}, r);
  // To all, not only to c(r): everyone still waiting in r (an ACKer
  // included) leaves with us, so nobody waits behind a falsely suspected
  // coordinator whose ACK quorum this process no longer helps to form.
  std::shared_ptr<Bytes> wire = frame(kNack, k);
  Encoder enc(*wire);
  enc.put_i64(r);
  put_members(enc, inst.members);
  send_to_others(inst.members, shared(std::move(wire)));
  inst.round = r + 1;
  inst.acked = false;
  if (inst.started) join_round(k, inst);
}

void Consensus::announce(std::uint64_t k, Instance& inst) {
  // Members with nothing to propose join in with our value (validity is
  // preserved: the value is still some process's proposal). Only needed
  // once round 0 failed: a correct c(0) drives everyone without it.
  if (inst.announced || !inst.started) return;
  inst.announced = true;
  std::shared_ptr<Bytes> wire = frame(kAnnounce, k);
  Encoder enc(*wire);
  put_members(enc, inst.members);
  enc.put_bytes(inst.estimate);
  send_to_others(inst.members, shared(std::move(wire)));
}

void Consensus::on_fd_suspect(ProcessId q) {
  // A suspicion may unblock any started instance waiting on coordinator q,
  // whether or not it already ACKed there. Collect the instance ids first:
  // leave_round() mutates instances_ state.
  std::vector<std::uint64_t> waiting;
  for (auto& [k, inst] : instances_) {
    if (inst.started && !inst.decided && !inst.members.empty() &&
        inst.coordinator(inst.round) == q) {
      waiting.push_back(k);
    }
  }
  for (std::uint64_t k : waiting) {
    auto it = instances_.find(k);
    if (it != instances_.end()) leave_round(k, it->second, it->second.round);
  }
  // Lazy DECIDE relay: q may have crashed before its DECIDE reached all.
  for (auto& [k, d] : decisions_) {
    if (d.relay_on_suspect != q) continue;
    d.relay_on_suspect = kNoProcess;
    channel_.send_group(d.members, tag_, decide_frame(k, *d.value));
  }
}

void Consensus::on_message(ProcessId from, BytesView payload) {
  Decoder dec(payload);
  const std::uint8_t kind = dec.get_byte();
  const std::uint64_t k = dec.get_u64();
  if (!dec.ok() || k < forgotten_below_) return;
  switch (kind) {
    case kEstimate: {
      const std::int64_t r = dec.get_i64();
      const std::int64_t ts = dec.get_i64();
      const bool members_ok = get_members(dec, members_scratch_, ctx_.self());
      const BytesView value = dec.get_view();
      if (dec.ok() && members_ok && r >= 0 && r < kMaxRound) {
        handle_estimate(from, k, r, ts, members_scratch_, value);
      }
      break;
    }
    case kPropose: {
      const std::int64_t r = dec.get_i64();
      const BytesView value = dec.get_view();
      if (dec.ok() && r >= 0 && r < kMaxRound) handle_propose(from, k, r, value);
      break;
    }
    case kAck: {
      const std::int64_t r = dec.get_i64();
      if (dec.ok()) handle_ack(k, r);
      break;
    }
    case kNack: {
      const std::int64_t r = dec.get_i64();
      const bool members_ok = get_members(dec, members_scratch_, ctx_.self());
      if (!members_ok || r < 0 || r >= kMaxRound) break;
      if (!answer_decided(from, k)) handle_nack(k, r, members_scratch_);
      break;
    }
    case kDecide: {
      const BytesView value = dec.get_view();
      if (dec.ok()) handle_decide(from, k, value);
      break;
    }
    case kAnnounce: {
      const bool members_ok = get_members(dec, members_scratch_, ctx_.self());
      const BytesView value = dec.get_view();
      if (!dec.ok() || !members_ok) break;
      if (!answer_decided(from, k)) handle_announce(k, members_scratch_, value);
      break;
    }
    default:
      break;
  }
}

void Consensus::handle_estimate(ProcessId from, std::uint64_t k, std::int64_t r,
                                std::int64_t ts, const std::vector<ProcessId>& members,
                                BytesView value) {
  // A round-0 estimate after our DECIDE went to all needs no answer.
  if (decisions_.count(k)) {
    if (r > 0) answer_decided(from, k);
    return;
  }
  Instance& inst = get_instance(k, &members);
  if (inst.decided || inst.coordinator(r) != ctx_.self()) return;
  auto& round = inst.round_state(r);
  if (round.proposed) return;  // late estimate
  if (round.estimates++ == 0) {
    // Quorum assembly starts at the first estimate we see for the round.
    round.first_estimate_at = ctx_.now();
    ctx_.trace_begin(obs::Names::get().consensus_propose_wait,
                     MsgId{obs::kConsensusKey, k}, r);
  }
  // Keep the estimate with the highest timestamp (most recently locked).
  if (ts > round.best_ts) {
    round.best_ts = ts;
    round.value.assign(value.begin(), value.end());
  }
  // Round 0 has no locked value: any estimate is safe to propose.
  if (round.estimates < (r == 0 ? 1 : inst.majority)) return;
  propose_round(k, inst, r);
}

void Consensus::propose_round(std::uint64_t k, Instance& inst, std::int64_t r) {
  auto& round = inst.round_state(r);
  round.proposed = true;
  ctx_.metrics().observe(h_propose_wait_, ctx_.now() - round.first_estimate_at);
  ctx_.trace_end(obs::Names::get().consensus_propose_wait, MsgId{obs::kConsensusKey, k}, r);
  inst.proposed_at = ctx_.now();
  ctx_.trace_instant(obs::Names::get().consensus_propose, MsgId{obs::kConsensusKey, k}, r);
  ctx_.trace_begin(obs::Names::get().consensus_accept_wait, MsgId{obs::kConsensusKey, k},
                   r);
  std::shared_ptr<Bytes> wire = frame(kPropose, k);
  Encoder enc(*wire);
  enc.put_i64(r);
  enc.put_bytes(round.value);
  send_to_others(inst.members, shared(std::move(wire)));
  handle_propose(ctx_.self(), k, r, round.value);
}

void Consensus::handle_propose(ProcessId from, std::uint64_t k, std::int64_t r,
                               BytesView value) {
  if (decisions_.count(k)) {
    if (r > 0) answer_decided(from, k);
    return;
  }
  Instance& inst = get_instance(k, nullptr);
  if (inst.decided) return;
  // Round monotonicity is a SAFETY requirement for everyone, passive
  // participants included: once a process has ACKed round r it must never
  // ACK a round < r, or two coordinators could both assemble majorities
  // with different values.
  if (r < inst.round) return;  // stale round
  const bool jumped = r > inst.round;
  if (jumped) {
    // We lagged behind; join the newer round.
    inst.round = r;
    inst.acked = false;
  }
  if (inst.acked) return;
  inst.acked = true;
  inst.estimate.assign(value.begin(), value.end());
  // Lock with ts = r + 1 so a round-0 lock (ts 1) outranks initial
  // proposals (ts 0): the coordinator's max-ts selection must always prefer
  // a possibly-decided value over a fresh one.
  inst.estimate_ts = r + 1;
  ctx_.trace_instant(obs::Names::get().consensus_ack, MsgId{obs::kConsensusKey, k}, r);
  if (from == ctx_.self()) {
    handle_ack(k, r);
  } else {
    std::shared_ptr<Bytes> wire = frame(kAck, k);
    Encoder(*wire).put_i64(r);
    channel_.send(from, tag_, shared(std::move(wire)));
  }
  // Having ACKed, we stay in r until a DECIDE, a NACK of r or a suspicion
  // of c(r) arrives.
  if (jumped && inst.started) join_round(k, inst);
}

void Consensus::handle_ack(std::uint64_t k, std::int64_t r) {
  auto it = instances_.find(k);
  if (it == instances_.end() || it->second.decided) return;
  Instance& inst = it->second;
  auto* round = inst.find_round(r);
  if (round == nullptr || !round->proposed) return;  // never proposed
  if (++round->acks >= inst.majority) decide(k, inst, round->value);
}

void Consensus::handle_nack(std::uint64_t k, std::int64_t r,
                            const std::vector<ProcessId>& members) {
  // A NACK after an ACK does not unlock: the ACKer keeps the value at
  // ts r + 1, and c(r) still counts its ACK.
  leave_round(k, get_instance(k, &members), r);
}

void Consensus::handle_announce(std::uint64_t k, const std::vector<ProcessId>& members,
                                BytesView value) {
  Instance& inst = get_instance(k, &members);
  if (!inst.started && !inst.decided) propose(k, to_bytes(value), members);
}

void Consensus::decide(std::uint64_t k, Instance& inst, BytesView value) {
  if (inst.decided) return;
  inst.decided = true;
  // Our own DECIDE arrives via loopback and runs handle_decide.
  channel_.send_group(inst.members, tag_, decide_frame(k, value));
}

void Consensus::forget_below(std::uint64_t k) {
  forgotten_below_ = std::max(forgotten_below_, k);
  for (auto it = decisions_.begin(); it != decisions_.end();) {
    if (it->first >= k) {
      ++it;
      continue;
    }
    it->second.value.reset();  // back to the pool
    spare_decisions_.erase(decisions_, it++);
  }
}

void Consensus::handle_decide(ProcessId from, std::uint64_t k, BytesView value) {
  if (decisions_.count(k)) return;
  ++decided_count_;
  ctx_.metrics().inc(m_decided_);
  ctx_.trace_instant(obs::Names::get().consensus_decide, MsgId{obs::kConsensusKey, k},
                     static_cast<std::int64_t>(value.size()));
  ctx_.trace_end(obs::Names::get().consensus_instance, MsgId{obs::kConsensusKey, k});
  if (ctx_.log().enabled(LogLevel::kDebug)) {
    ctx_.log().debug("consensus decide k=" + std::to_string(k) + " bytes=" +
                     std::to_string(value.size()));
  }
  // Pooled, and held by the callbacks below: one of them may forget k.
  std::shared_ptr<Bytes> held = pool_.acquire();
  held->assign(value.begin(), value.end());
  Decision& d = spare_decisions_.emplace(decisions_, k)->second;
  d.value = held;
  d.members.clear();
  d.relay_on_suspect = from == ctx_.self() ? kNoProcess : from;
  auto it = instances_.find(k);
  if (it != instances_.end()) {
    Instance& inst = it->second;
    if (inst.started_at >= 0) {
      ctx_.metrics().observe(h_latency_, ctx_.now() - inst.started_at);
    }
    if (inst.proposed_at >= 0) {
      // Coordinator-side ACK-quorum round trip: PROPOSE out -> decision in.
      ctx_.metrics().observe(h_accept_rtt_, ctx_.now() - inst.proposed_at);
      ctx_.trace_end(obs::Names::get().consensus_accept_wait,
                     MsgId{obs::kConsensusKey, k}, inst.round);
      if (!inst.decided) {
        // We proposed but learned the decision from someone else: our
        // ACKers may still wait on us.
        send_to_others(inst.members, decide_frame(k, value));
        d.relay_on_suspect = kNoProcess;
      }
    }
    d.members.assign(inst.members.begin(), inst.members.end());
    spare_instances_.erase(instances_, it);
  }
  if (d.relay_on_suspect != kNoProcess && fd_.suspects(fd_class_, d.relay_on_suspect)) {
    d.relay_on_suspect = kNoProcess;
    channel_.send_group(d.members, tag_, decide_frame(k, value));
  }
  for (const auto& fn : decide_fns_) fn(k, *held);
}

}  // namespace gcs
