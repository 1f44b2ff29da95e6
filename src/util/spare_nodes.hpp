/// \file spare_nodes.hpp
/// Reuse of the nodes of node-based standard containers (std::map, set,
/// unordered_map). A container that sees a steady stream of inserts and
/// erases (one entry per consensus instance, one per delivered message)
/// otherwise allocates a node per insert; extracting erased nodes into a
/// spare list and inserting through them allocates nothing once warm.
/// Single-threaded; the spare list is capped so a burst does not pin its
/// memory for good.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gcs {

template <typename Container>
class SpareNodes {
 public:
  using Node = typename Container::node_type;

  explicit SpareNodes(std::size_t cap) : cap_(cap) {}

  /// Insert \p key into a map with a default-constructed value, or return
  /// the existing entry; a spare node's value is left as it was, so the
  /// caller resets it (its buffers keep their capacity).
  typename Container::iterator emplace(Container& c, const typename Container::key_type& key) {
    if (auto it = c.find(key); it != c.end()) return it;
    if (spares_.empty()) return c.emplace(key, typename Container::mapped_type{}).first;
    Node node = take();
    node.key() = key;
    return c.insert(std::move(node)).position;
  }

  /// Insert \p key into a set; true if it was not there yet.
  bool insert(Container& c, const typename Container::key_type& key) {
    if (spares_.empty()) return c.insert(key).second;
    Node node = take();
    node.value() = key;
    auto result = c.insert(std::move(node));
    if (!result.inserted) keep(std::move(result.node));
    return result.inserted;
  }

  /// Erase \p it, keeping its node as a spare.
  void erase(Container& c, typename Container::const_iterator it) { keep(c.extract(it)); }

 private:
  Node take() {
    Node node = std::move(spares_.back());
    spares_.pop_back();
    return node;
  }
  void keep(Node node) {
    if (spares_.size() < cap_) spares_.push_back(std::move(node));
  }

  std::vector<Node> spares_;
  std::size_t cap_;
};

}  // namespace gcs
