/// \file consensus_protocol.hpp
/// The consensus abstraction the rest of the stack builds on.
///
/// The paper observes (§2.3) that every historical architecture was shaped
/// by its ordering algorithm. The new architecture inverts that: anything
/// satisfying this interface — uniform multi-instance consensus over an
/// explicit member set, tolerating false suspicions — can sit at the
/// bottom of the stack. Two implementations are provided:
///   - Consensus        Chandra–Toueg ◇S rotating coordinator (consensus.hpp)
///   - PaxosConsensus   classic single-decree Paxos per instance (paxos.hpp)
/// Both run unchanged under the same atomic broadcast, membership, generic
/// broadcast and replication layers; bench_e8 compares their costs.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "util/types.hpp"

namespace gcs {

class ConsensusProtocol {
 public:
  using DecideFn = std::function<void(std::uint64_t instance, const Bytes& value)>;

  virtual ~ConsensusProtocol() = default;

  /// Propose \p value for instance \p k among \p members (self included).
  virtual void propose(std::uint64_t k, Bytes value,
                       const std::vector<ProcessId>& members) = 0;

  /// Decision callback; fired exactly once per instance per subscriber.
  virtual void on_decide(DecideFn fn) = 0;

  /// True if instance \p k has decided locally.
  virtual bool decided(std::uint64_t k) const = 0;

  /// Number of instances decided locally (ordering-work metric).
  virtual std::int64_t instances_decided() const = 0;

  /// Instances currently tracked locally and not yet decided (probe gauge:
  /// open = in-flight ordering work).
  virtual std::int64_t open_instances() const = 0;

  /// Garbage-collect decision values for instances < \p k.
  virtual void forget_below(std::uint64_t k) = 0;

  /// The process this implementation expects to drive the next decrees, or
  /// kNoProcess when the algorithm has no stable-leader notion (CT's
  /// coordinator rotates per round). Used by fault injection to aim
  /// leader-targeted steps and by tests; never consulted for safety.
  virtual ProcessId stable_leader() const { return kNoProcess; }
};

}  // namespace gcs
