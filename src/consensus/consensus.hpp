/// \file consensus.hpp
/// Chandra–Toueg ◇S rotating-coordinator consensus (multi-instance).
///
/// This is the consensus component at the bottom of the paper's new
/// architecture (Fig 6/7/9): it requires only an *eventually strong* (◇S)
/// failure detector — false suspicions are tolerated, so consensus (and the
/// atomic broadcast built on it) never needs a group membership service
/// below it to emulate a perfect failure detector. Tolerates f < n/2
/// crashes among the instance's members.
///
/// Algorithm (per instance, asynchronous rounds r = 0, 1, ...):
///   coordinator c(r) = members[r mod n]
///   phase 1  a proposer sends (ESTIMATE, r, ts, members, v) to c(r)
///   phase 2  c(r) adopts the estimate with the highest ts among a
///            majority and sends (PROPOSE, r, v) to all. Round 0 has no
///            locked value, so c(0) proposes the first estimate it holds,
///            its own or a member's, without waiting for a majority.
///   phase 3  a process in round r that receives PROPOSE adopts v with
///            ts := r + 1, ACKs, and stays in r
///   phase 4  c(r) collects a majority of ACKs and sends DECIDE to all
///
/// A process leaves round r undecided only on suspecting c(r) or on seeing
/// a NACK of round r; leaving, it sends that NACK to all members, so nobody
/// waits forever behind a correct coordinator that was falsely suspected.
/// A fault-free instance is therefore one round of O(n) messages: the
/// estimates, one PROPOSE, one ACK and one DECIDE per member (DESIGN.md
/// §16 has the safety and liveness argument).
///
/// The recovery messages are lazy:
///   - A started process sends ANNOUNCE (members, its value) the first time
///     it leaves round 0, so members with nothing to propose join in.
///   - A decider relays DECIDE to all only once it suspects the process it
///     got the DECIDE from.
///   - A decided process answers ANNOUNCE, NACK and round-≥1 ESTIMATE or
///     PROPOSE with the DECIDE.
/// A process that receives round messages for an instance it has not
/// locally started participates passively (it can coordinate and ACK) and
/// starts driving rounds once propose() is called.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "channel/reliable_channel.hpp"
#include "consensus/consensus_protocol.hpp"
#include "fd/failure_detector.hpp"
#include "sim/context.hpp"
#include "util/buffer_pool.hpp"
#include "util/spare_nodes.hpp"

namespace gcs {

class Consensus final : public ConsensusProtocol {
 public:

  /// \param fd_class   the FD timeout class consensus uses to suspect
  ///                   coordinators; its timeout can be aggressive (◇S).
  /// \param tag        wire tag, so several independent consensus stacks can
  ///                   coexist (the traditional baselines reuse this class).
  Consensus(sim::Context& ctx, ReliableChannel& channel, FailureDetector& fd,
            FailureDetector::ClassId fd_class, Tag tag = Tag::kConsensus);

  /// Propose \p value for instance \p k among \p members (self included).
  /// One correct proposer suffices: if round 0 fails, its ANNOUNCE makes
  /// the other members propose its value. Proposing for a decided instance
  /// re-delivers the decision; for a forgotten one it does nothing.
  void propose(std::uint64_t k, Bytes value, const std::vector<ProcessId>& members) override;

  /// Decision callback; fired exactly once per instance, in no particular
  /// instance order (callers sequence instances themselves).
  void on_decide(DecideFn fn) override { decide_fns_.push_back(std::move(fn)); }

  /// True if instance \p k has decided locally.
  bool decided(std::uint64_t k) const override { return decisions_.count(k) != 0; }

  /// Number of instances decided locally (an "ordering work" metric).
  std::int64_t instances_decided() const override { return decided_count_; }

  std::int64_t open_instances() const override {
    std::int64_t n = 0;
    for (const auto& [k, inst] : instances_) {
      (void)k;
      if (!inst.decided) ++n;
    }
    return n;
  }

  /// Garbage-collect decision values for instances < \p k and drop every
  /// later message for them: a late ANNOUNCE or ESTIMATE restarts nothing.
  /// The caller promises no correct member still needs those decisions
  /// (atomic broadcast forgets 16 instances behind its delivery point).
  void forget_below(std::uint64_t k) override;

  /// Handle one wire message from \p from. The channel subscription calls
  /// it; malformed input is dropped without touching any state.
  void on_message(ProcessId from, BytesView payload);

 private:
  struct Instance {
    std::vector<ProcessId> members;
    int majority = 0;
    bool started = false;     // have we proposed locally?
    bool decided = false;     // we sent DECIDE to all as coordinator
    bool announced = false;   // ANNOUNCE sent (on first leaving round 0)
    Bytes estimate;
    std::int64_t estimate_ts = -1;
    std::int64_t round = 0;
    bool acked = false;       // ACK already sent for `round`
    TimePoint started_at = -1;  // when propose() ran locally (latency metric)

    // Coordinator-side per-round state.
    struct RoundState {
      std::int64_t r = 0;
      int estimates = 0;
      std::int64_t best_ts = -1;
      Bytes value;  // highest-ts estimate so far; the proposal once proposed
      bool proposed = false;
      int acks = 0;
      TimePoint first_estimate_at = -1;  // quorum-assembly start (propose-wait)
    };
    std::vector<RoundState> rounds;  // the rounds we coordinate (every n-th)
    TimePoint proposed_at = -1;  // when we sent PROPOSE (accept-RTT metric)

    ProcessId coordinator(std::int64_t r) const {
      return members[static_cast<std::size_t>(r) % members.size()];
    }
    RoundState& round_state(std::int64_t r);
    RoundState* find_round(std::int64_t r);
    /// Back to a fresh instance, keeping the buffers' capacity.
    void reset(const std::vector<ProcessId>* members_hint);
  };

  /// A locally known decision. `relay_on_suspect` is the process the
  /// DECIDE came from: if it comes to be suspected, the DECIDE is relayed
  /// to `members` (kNoProcess once relayed or when we sent it ourselves).
  struct Decision {
    std::shared_ptr<const Bytes> value;
    std::vector<ProcessId> members;
    ProcessId relay_on_suspect = kNoProcess;
  };

  void handle_estimate(ProcessId from, std::uint64_t k, std::int64_t r, std::int64_t ts,
                       const std::vector<ProcessId>& members, BytesView value);
  void handle_propose(ProcessId from, std::uint64_t k, std::int64_t r, BytesView value);
  void handle_ack(std::uint64_t k, std::int64_t r);
  void handle_nack(std::uint64_t k, std::int64_t r, const std::vector<ProcessId>& members);
  void handle_announce(std::uint64_t k, const std::vector<ProcessId>& members,
                       BytesView value);
  void handle_decide(ProcessId from, std::uint64_t k, BytesView value);
  /// If \p k is decided here, answer \p to with the DECIDE; true if so.
  bool answer_decided(ProcessId to, std::uint64_t k);
  /// A started process takes part in inst.round: estimate to c(round)
  /// unless it already ACKed there, and watch c(round).
  void join_round(std::uint64_t k, Instance& inst);
  /// Leave every round up to \p r undecided: NACK r to all, go to r + 1.
  void leave_round(std::uint64_t k, Instance& inst, std::int64_t r);
  void watch_coordinator(std::uint64_t k, const Instance& inst);
  void announce(std::uint64_t k, Instance& inst);
  void propose_round(std::uint64_t k, Instance& inst, std::int64_t r);
  void decide(std::uint64_t k, Instance& inst, BytesView value);
  void on_fd_suspect(ProcessId q);
  Instance& get_instance(std::uint64_t k, const std::vector<ProcessId>* members_hint);
  /// A pooled wire buffer holding the (kind, instance) header.
  std::shared_ptr<Bytes> frame(std::uint8_t kind, std::uint64_t k);
  /// Send \p wire to every member but ourselves, sharing one buffer.
  void send_to_others(const std::vector<ProcessId>& members, const Payload& wire);
  Payload decide_frame(std::uint64_t k, BytesView value);

  sim::Context& ctx_;
  ReliableChannel& channel_;
  FailureDetector& fd_;
  FailureDetector::ClassId fd_class_;
  Tag tag_;
  MetricId m_started_;
  MetricId m_rounds_;
  MetricId m_decided_;
  MetricId h_latency_;       ///< propose() -> local decision (time-in-consensus)
  MetricId h_propose_wait_;  ///< first estimate -> PROPOSE (coordinator side)
  MetricId h_accept_rtt_;    ///< PROPOSE sent -> local decision (coordinator side)
  std::unordered_map<std::uint64_t, Instance> instances_;
  std::unordered_map<std::uint64_t, Decision> decisions_;
  // Map nodes of finished instances and forgotten decisions, reused so a
  // steady stream of instances allocates no per-instance state. 64 covers
  // the open pipeline window plus the decisions atomic broadcast retains.
  SpareNodes<decltype(instances_)> spare_instances_{64};
  SpareNodes<decltype(decisions_)> spare_decisions_{64};
  std::vector<ProcessId> members_scratch_;  // decode target for member lists
  // Consensus frames are small. In the context's pool, which recycles
  // payload-sized buffers, a NACK queued to a crashed peer until its
  // exclusion would pin a 1 KiB buffer; in this one it pins its own size.
  BufferPool pool_;
  std::uint64_t forgotten_below_ = 0;
  std::vector<DecideFn> decide_fns_;
  std::int64_t decided_count_ = 0;
};

}  // namespace gcs
