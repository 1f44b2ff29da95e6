#include "obs/oracle.hpp"

#include <algorithm>

namespace gcs::obs {

namespace {

// Packed global coordinates. Batch indexes / resolution positions are
// bounded by in-flight message counts, far below 2^20; clamp defensively so
// a pathological value cannot alias another instance's coordinate space.
constexpr std::uint32_t kIndexBits = 20;
constexpr std::uint32_t kIndexMask = (1u << kIndexBits) - 1;

constexpr std::uint64_t ab_coord(std::uint64_t instance, std::uint32_t index) {
  return (instance << kIndexBits) | (index & kIndexMask);
}

// GB coordinate: (round, phase, pos); phase 0 = fast path, 1 = resolution.
constexpr std::uint64_t gb_coord(std::uint64_t round, bool resolution, std::uint32_t pos) {
  return (round << (kIndexBits + 1)) |
         (static_cast<std::uint64_t>(resolution ? 1 : 0) << kIndexBits) |
         (pos & kIndexMask);
}

constexpr std::uint64_t gb_coord_round(std::uint64_t coord) {
  return coord >> (kIndexBits + 1);
}

constexpr bool gb_coord_resolution(std::uint64_t coord) {
  return ((coord >> kIndexBits) & 1) != 0;
}

std::string members_string(const std::vector<ProcessId>& members) {
  std::string out = "{";
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (i) out += ",";
    out += std::to_string(members[i]);
  }
  return out + "}";
}

}  // namespace

std::string_view property_name(Property p) {
  switch (p) {
    case Property::kAbTotalOrder: return "ab.total_order";
    case Property::kAbNoDuplication: return "ab.no_duplication";
    case Property::kAbNoCreation: return "ab.no_creation";
    case Property::kAbUniformAgreement: return "ab.uniform_agreement";
    case Property::kRbIntegrity: return "rb.integrity";
    case Property::kRbNoDuplication: return "rb.no_duplication";
    case Property::kGbConflictOrder: return "gb.conflict_order";
    case Property::kGbFastPathStability: return "gb.fast_path_stability";
    case Property::kGbNoDuplication: return "gb.no_duplication";
    case Property::kGbNoCreation: return "gb.no_creation";
    case Property::kGbAgreement: return "gb.agreement";
    case Property::kViewAgreement: return "view.agreement";
    case Property::kViewMonotonicity: return "view.monotonicity";
    case Property::kExclusionAccountability: return "membership.accountability";
    case Property::kCount_: break;
  }
  return "?";
}

std::string_view verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kPass: return "pass";
    case Verdict::kViolated: return "violated";
    case Verdict::kNotChecked: return "not_checked";
  }
  return "?";
}

Oracle::Oracle() = default;

Oracle::PerProcess& Oracle::proc(ProcessId p) {
  const auto idx = static_cast<std::size_t>(p < 0 ? 0 : p);
  if (idx >= procs_.size()) procs_.resize(idx + 1);
  return procs_[idx];
}

void Oracle::violate(Property prop, Violation v) {
  v.property = prop;
  ++violation_counts_[static_cast<std::size_t>(prop)];
  if (violations_.size() < kMaxViolations) {
    violations_.push_back(std::move(v));
  } else {
    ++truncated_violations_;
  }
}

void Oracle::on_abcast_submit(ProcessId p, const MsgId& m) {
  (void)p;
  ++stats_.abcast_submits;
  ab_submitted_.insert(m);
}

void Oracle::on_adeliver(ProcessId p, const MsgId& m, std::uint8_t subtag,
                         std::uint64_t instance, std::uint32_t index) {
  (void)subtag;
  ++stats_.adeliveries;
  PerProcess& pp = proc(p);

  if (!pp.ab_delivered_set.insert(m).second) {
    violate(Property::kAbNoDuplication,
            {Property::kAbNoDuplication, p, m, {}, static_cast<std::int64_t>(instance),
             index, "message adelivered twice at p" + std::to_string(p)});
    return;
  }
  ++pp.ab_delivered;

  if (!ab_submitted_.count(m)) {
    violate(Property::kAbNoCreation,
            {Property::kAbNoCreation, p, m, {}, static_cast<std::int64_t>(instance), index,
             "adelivered message " + to_string(m) + " was never abcast"});
  }

  const std::uint64_t coord = ab_coord(instance, index);

  // (instance, index) -> msg must be a global function...
  auto [cit, fresh] = ab_coord_msg_.emplace(coord, m);
  if (!fresh && !(cit->second == m)) {
    violate(Property::kAbTotalOrder,
            {Property::kAbTotalOrder, p, m, cit->second,
             static_cast<std::int64_t>(instance), index,
             "instance " + std::to_string(instance) + "[" + std::to_string(index) +
                 "] delivered as " + to_string(m) + " at p" + std::to_string(p) +
                 " but as " + to_string(cit->second) + " elsewhere"});
  }
  // ... and so must msg -> (instance, index).
  auto [mit, mfresh] = ab_msg_coord_.emplace(m, coord);
  if (!mfresh && mit->second != coord) {
    violate(Property::kAbTotalOrder,
            {Property::kAbTotalOrder, p, m, {}, static_cast<std::int64_t>(instance), index,
             to_string(m) + " delivered at two distinct total-order positions"});
  }

  // Per-process delivery coordinates must strictly grow (a joiner starts at
  // a later instance; that is still monotone).
  if (pp.ab_seen && coord <= pp.ab_last_coord) {
    violate(Property::kAbTotalOrder,
            {Property::kAbTotalOrder, p, m, {}, static_cast<std::int64_t>(instance), index,
             "p" + std::to_string(p) + " delivered " + to_string(m) +
                 " out of total order (coordinate regressed)"});
  }
  pp.ab_seen = true;
  pp.ab_last_coord = coord;
  ab_max_coord_ = std::max(ab_max_coord_, coord);
  ab_any_ = true;
}

void Oracle::on_rb_broadcast(ProcessId p, std::uint8_t tag, const MsgId& m) {
  (void)p;
  ++stats_.rb_broadcasts;
  rb_[tag].broadcast.insert(m);
}

void Oracle::on_rb_deliver(ProcessId p, std::uint8_t tag, const MsgId& m) {
  ++stats_.rb_deliveries;
  TagState& ts = rb_[tag];
  if (!ts.broadcast.count(m)) {
    violate(Property::kRbIntegrity,
            {Property::kRbIntegrity, p, m, {}, tag, 0,
             "rdelivered message " + to_string(m) + " was never broadcast (tag " +
                 std::to_string(tag) + ")"});
  }
  if (!ts.delivered[p].insert(m).second) {
    violate(Property::kRbNoDuplication,
            {Property::kRbNoDuplication, p, m, {}, tag, 0,
             "message rdelivered twice at p" + std::to_string(p) + " (tag " +
                 std::to_string(tag) + ")"});
  }
}

void Oracle::on_gb_submit(ProcessId p, const MsgId& m, std::uint8_t cls) {
  (void)p;
  ++stats_.gb_submits;
  gb_submitted_.emplace(m, cls);
}

void Oracle::on_gdeliver(ProcessId p, const MsgId& m, std::uint8_t cls,
                         std::uint64_t round, bool fast, std::uint32_t pos) {
  ++stats_.gdeliveries;
  if (fast) ++stats_.gb_fast_deliveries;
  PerProcess& pp = proc(p);

  if (!pp.gb_delivered_set.insert(m).second) {
    violate(Property::kGbNoDuplication,
            {Property::kGbNoDuplication, p, m, {}, static_cast<std::int64_t>(round), pos,
             "message gdelivered twice at p" + std::to_string(p)});
    return;
  }
  ++pp.gb_delivered;

  const auto sub = gb_submitted_.find(m);
  if (sub == gb_submitted_.end()) {
    violate(Property::kGbNoCreation,
            {Property::kGbNoCreation, p, m, {}, static_cast<std::int64_t>(round), pos,
             "gdelivered message " + to_string(m) + " was never gbcast"});
  } else if (sub->second != cls) {
    violate(Property::kGbNoCreation,
            {Property::kGbNoCreation, p, m, {}, static_cast<std::int64_t>(round), pos,
             to_string(m) + " gdelivered with class " + std::to_string(cls) +
                 " but gbcast with class " + std::to_string(sub->second)});
  }

  // A message's delivery round is a global invariant: fast in round r at
  // one process means "by end of round r" everywhere. A later round at
  // another process means a fast delivery was reordered past a resolution.
  auto [rit, rfresh] = gb_msg_round_.emplace(m, round);
  if (rfresh) {
    ++gb_distinct_delivered_;
    gb_msg_seen_fast_[m] = fast;
  } else {
    if (rit->second != round) {
      violate(Property::kGbFastPathStability,
              {Property::kGbFastPathStability, p, m, {},
               static_cast<std::int64_t>(round),
               static_cast<std::int64_t>(rit->second),
               to_string(m) + " delivered in round " + std::to_string(round) + " at p" +
                   std::to_string(p) + " but in round " + std::to_string(rit->second) +
                   " elsewhere"});
    }
    if (fast) gb_msg_seen_fast_[m] = true;
  }

  if (fast) {
    // Quorum-intersection core: two conflicting messages can never both
    // assemble a fast quorum in the same round, at any pair of processes.
    auto& by_class = gb_fast_by_round_[round];
    for (const auto& [other_cls, ids] : by_class) {
      if (!conflict(cls, other_cls)) continue;
      for (const MsgId& other : ids) {
        if (other == m) continue;
        violate(Property::kGbConflictOrder,
                {Property::kGbConflictOrder, p, m, other,
                 static_cast<std::int64_t>(round), cls,
                 "conflicting messages " + to_string(m) + " and " + to_string(other) +
                     " both fast-delivered in round " + std::to_string(round)});
      }
    }
    auto& ids = by_class[cls];
    if (std::find(ids.begin(), ids.end(), m) == ids.end() && ids.size() < 4) {
      ids.push_back(m);
    }
  } else {
    // Resolution deliveries are a deterministic global sequence per round:
    // (round, pos) -> msg must be a function.
    const std::uint64_t coord = gb_coord(round, true, pos);
    auto [cit, cfresh] = gb_resolution_msg_.emplace(coord, m);
    if (!cfresh && !(cit->second == m)) {
      violate(Property::kGbConflictOrder,
              {Property::kGbConflictOrder, p, m, cit->second,
               static_cast<std::int64_t>(round), pos,
               "round " + std::to_string(round) + " resolution[" + std::to_string(pos) +
                   "] delivered as " + to_string(m) + " at p" + std::to_string(p) +
                   " but as " + to_string(cit->second) + " elsewhere"});
    }
  }

  // Per-process coordinates are monotone: rounds never regress, and within
  // a round all fast deliveries precede the resolution deliveries. Two
  // fast deliveries of one round are mutually unordered (equal coordinate).
  const std::uint64_t coord = gb_coord(round, !fast, fast ? 0 : pos);
  if (pp.gb_seen) {
    const bool regressed =
        coord < pp.gb_last_coord ||
        (coord == pp.gb_last_coord && gb_coord_resolution(coord));
    if (regressed) {
      const Property prop = gb_coord_round(coord) < gb_coord_round(pp.gb_last_coord)
                                ? Property::kGbFastPathStability
                                : Property::kGbConflictOrder;
      violate(prop, {prop, p, m, {}, static_cast<std::int64_t>(round), pos,
                     "p" + std::to_string(p) + " delivered " + to_string(m) +
                         " out of round order (round " + std::to_string(round) +
                         (fast ? " fast" : " resolution") + " after round " +
                         std::to_string(gb_coord_round(pp.gb_last_coord)) +
                         (gb_coord_resolution(pp.gb_last_coord) ? " resolution" : " fast") +
                         ")"});
    }
  }
  pp.gb_seen = true;
  pp.gb_last_coord = std::max(coord, pp.gb_last_coord);
}

void Oracle::on_view_install(ProcessId p, std::uint64_t view_id,
                             const std::vector<ProcessId>& members,
                             bool via_state_transfer) {
  ++stats_.view_installs;
  // proc(q) below must not grow procs_ while pp (and the view_members it
  // iterates) is held: size procs_ for every id the install can touch first.
  ProcessId top = p;
  for (ProcessId q : proc(p).view_members) top = std::max(top, q);
  proc(top);
  PerProcess& pp = proc(p);

  // View agreement: id -> member list is a global function.
  auto [it, fresh] = view_members_.emplace(view_id, members);
  if (!fresh && it->second != members) {
    violate(Property::kViewAgreement,
            {Property::kViewAgreement, p, {}, {}, static_cast<std::int64_t>(view_id), 0,
             "view " + std::to_string(view_id) + " installed as " +
                 members_string(members) + " at p" + std::to_string(p) + " but as " +
                 members_string(it->second) + " elsewhere"});
  }

  // Monotonicity: installed ids strictly grow per process (a rejoin lands
  // on a strictly later view).
  if (pp.has_view && view_id <= pp.view_id) {
    violate(Property::kViewMonotonicity,
            {Property::kViewMonotonicity, p, {}, {}, static_cast<std::int64_t>(view_id),
             static_cast<std::int64_t>(pp.view_id),
             "p" + std::to_string(p) + " installed view " + std::to_string(view_id) +
                 " after view " + std::to_string(pp.view_id)});
  }

  // Accountability: a member may only disappear from the view if its
  // removal was previously proposed (monitoring decision, administrative
  // remove, or voluntary leave). Checked against the installer's previous
  // view; joins and state-transfer installs have no baseline to diff.
  if (!via_state_transfer && pp.has_view && view_id == pp.view_id + 1) {
    for (ProcessId q : pp.view_members) {
      if (std::find(members.begin(), members.end(), q) != members.end()) continue;
      proc(q).was_excluded = true;
      const std::uint64_t key = (view_id << 16) | static_cast<std::uint64_t>(q & 0xffff);
      if (!accountability_checked_.insert(key).second) continue;
      if (!removal_justifications_.count(q)) {
        violate(Property::kExclusionAccountability,
                {Property::kExclusionAccountability, p, {}, {},
                 static_cast<std::int64_t>(view_id), q,
                 "p" + std::to_string(q) + " excluded in view " + std::to_string(view_id) +
                     " without any prior removal proposal or monitoring suspicion"});
      }
    }
  } else if (!via_state_transfer && pp.has_view && view_id > pp.view_id + 1) {
    // Skipped views (should not happen outside state transfer): mark the
    // disappeared members excluded but do not attribute accountability.
    for (ProcessId q : pp.view_members) {
      if (std::find(members.begin(), members.end(), q) == members.end()) {
        proc(q).was_excluded = true;
      }
    }
  }

  if (!pp.has_view && via_state_transfer) pp.joined_late = true;
  if (!pp.has_view && !via_state_transfer && view_id > 0) pp.joined_late = true;
  pp.has_view = true;
  pp.view_id = view_id;
  pp.view_members = members;
}

void Oracle::on_remove_proposed(ProcessId proposer, ProcessId target, bool voluntary) {
  (void)proposer;
  (void)voluntary;
  ++stats_.remove_proposals;
  ++removal_justifications_[target];
}

void Oracle::on_exclusion_decided(ProcessId at, ProcessId target, int votes) {
  (void)at;
  (void)votes;
  ++stats_.exclusion_decisions;
  ++removal_justifications_[target];
}

void Oracle::on_suspicion(ProcessId at, ProcessId target, bool long_class) {
  (void)at;
  (void)target;
  ++stats_.suspicions;
  if (long_class) ++stats_.long_suspicions;
}

void Oracle::on_restore(ProcessId at, ProcessId target, bool long_class) {
  (void)at;
  (void)target;
  (void)long_class;
}

void Oracle::note_crash(ProcessId p) {
  ++stats_.crashes;
  proc(p).crashed = true;
}

void Oracle::finalize() {
  if (finalized_) return;
  finalized_ = true;

  // Stable processes: founding members that survived the whole run inside
  // the group. Joiners skip history by design (state transfer) and crashed
  // or excluded processes are exempt from completeness, so the agreement
  // checks below are exact for the stable set and silent for the rest.
  std::uint64_t final_view = 0;
  bool any_view = false;
  for (const auto& [id, members] : view_members_) {
    (void)members;
    if (!any_view || id > final_view) final_view = id;
    any_view = true;
  }
  const std::vector<ProcessId>* final_members =
      any_view ? &view_members_.at(final_view) : nullptr;

  for (std::size_t i = 0; i < procs_.size(); ++i) {
    const PerProcess& pp = procs_[i];
    const auto p = static_cast<ProcessId>(i);
    if (!pp.has_view || pp.joined_late || pp.crashed || pp.was_excluded) continue;
    if (final_members && std::find(final_members->begin(), final_members->end(), p) ==
                             final_members->end()) {
      continue;
    }
    if (pp.ab_delivered != ab_coord_msg_.size()) {
      violate(Property::kAbUniformAgreement,
              {Property::kAbUniformAgreement, p, {}, {},
               static_cast<std::int64_t>(pp.ab_delivered),
               static_cast<std::int64_t>(ab_coord_msg_.size()),
               "stable member p" + std::to_string(p) + " adelivered " +
                   std::to_string(pp.ab_delivered) + " of " +
                   std::to_string(ab_coord_msg_.size()) + " globally adelivered messages"});
    }
    if (pp.gb_delivered != gb_distinct_delivered_) {
      violate(Property::kGbAgreement,
              {Property::kGbAgreement, p, {}, {},
               static_cast<std::int64_t>(pp.gb_delivered),
               static_cast<std::int64_t>(gb_distinct_delivered_),
               "stable member p" + std::to_string(p) + " gdelivered " +
                   std::to_string(pp.gb_delivered) + " of " +
                   std::to_string(gb_distinct_delivered_) +
                   " globally gdelivered messages"});
    }
  }
}

Verdict Oracle::verdict(Property p) const {
  if (violation_counts_[static_cast<std::size_t>(p)] > 0) return Verdict::kViolated;
  if ((p == Property::kAbUniformAgreement || p == Property::kGbAgreement) && !finalized_) {
    return Verdict::kNotChecked;
  }
  return Verdict::kPass;
}

std::string Oracle::summary() const {
  std::string out;
  for (std::size_t i = 0; i < kPropertyCount; ++i) {
    const auto p = static_cast<Property>(i);
    out += std::string(property_name(p)) + ": " + std::string(verdict_name(verdict(p)));
    if (violation_counts_[i] > 0) {
      out += " (" + std::to_string(violation_counts_[i]) + ")";
    }
    out += "\n";
  }
  for (const Violation& v : violations_) {
    out += "  !! " + std::string(property_name(v.property)) + ": " + v.detail + "\n";
  }
  if (truncated_violations_ > 0) {
    out += "  (+" + std::to_string(truncated_violations_) + " more violations)\n";
  }
  return out;
}

}  // namespace gcs::obs
