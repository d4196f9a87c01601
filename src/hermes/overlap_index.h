// Efficient overlap detection between prefix rules (Section 3,
// "Correctness": Hermes "uses an efficient data structure to detect
// overlapping rules").
//
// Prefix overlap is containment, so a binary trie keyed by prefix bits
// answers "which installed rules overlap prefix P?" by combining the
// rules on the root->P path (ancestors of P) with the rules in the
// subtree under P (descendants).
//
// Layout: the trie is flat and index-linked, with no pointers. `nodes_`
// is one vector of 20-byte nodes: two child indices, the head of the
// node's rule list, and the max and min priority over the node's whole
// subtree. The root is index 0, so child index 0 means "no child".
// `records_` holds the rules, each linked to the next rule of its node;
// erased records go on a free list. Nodes stay in place until clear(), so
// no call allocates except when one of the two vectors grows.
//
// Query contract: `visit(p, lo, hi, fn)` calls `fn` on every rule that
// overlaps `p` with lo < priority <= hi, in this order:
//   1. ancestors of `p` root-down, ending with the rules on `p` itself;
//   2. descendants of `p` in a pre-order walk that takes child 0 before
//      child 1, i.e. ordered by (network address, length);
//   3. rules on one node in insertion order.
// Any subtree whose [min, max] priority misses the window is skipped.
// `fn` returns false to stop the walk at once, and must not mutate the
// index.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "net/rule.h"

namespace hermes::core {

class OverlapIndex {
 public:
  OverlapIndex();
  OverlapIndex(OverlapIndex&&) noexcept = default;
  OverlapIndex& operator=(OverlapIndex&&) noexcept = default;
  OverlapIndex(const OverlapIndex&) = delete;
  OverlapIndex& operator=(const OverlapIndex&) = delete;

  void insert(const net::Rule& rule);

  /// Removes the rule with this id stored under `match`; returns whether
  /// anything was removed.
  bool erase(net::RuleId id, const net::Prefix& match);

  /// Rewrites the action of the rule with this id stored under `match`
  /// in one walk, and moves it to the end of its node's rules: the index
  /// ends exactly as erase() + insert() of the rewritten rule would leave
  /// it, visit order included. Returns whether the rule was found.
  bool set_action(net::RuleId id, const net::Prefix& match,
                  const net::Action& action);

  /// Calls `fn(const net::Rule&) -> bool` on every rule overlapping `p`
  /// with lo < priority <= hi, in the order of the header comment, until
  /// `fn` returns false. Returns false iff `fn` stopped the walk.
  template <typename Fn>
  bool visit(const net::Prefix& p, int lo, int hi, Fn&& fn) const;

  /// All rules whose match overlaps `p` and whose priority is strictly
  /// greater than `min_priority_exclusive` (pass INT_MIN for "all"), in
  /// visit order.
  std::vector<net::Rule> overlapping(const net::Prefix& p,
                                     int min_priority_exclusive) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  struct Node {
    std::uint32_t child[2] = {0, 0};
    std::uint32_t head = kNil;  ///< first record of the rules ending here
    int max_priority = std::numeric_limits<int>::min();  ///< over subtree
    int min_priority = std::numeric_limits<int>::max();  ///< over subtree

    bool misses(int lo, int hi) const {
      return max_priority <= lo || min_priority > hi;
    }
  };
  static_assert(sizeof(Node) == 20);

  struct Record {
    net::Rule rule;
    std::uint32_t next = kNil;  ///< next rule of the node, or free-list link
  };

  // Bit i (0 = MSB) of the prefix address.
  static int bit_at(const net::Prefix& p, int i) {
    return (p.address().value() >> (31 - i)) & 1u;
  }

  template <typename Fn>
  bool visit_rules(std::uint32_t r, int lo, int hi, Fn& fn) const;
  template <typename Fn>
  bool visit_subtree(std::uint32_t n, int lo, int hi, Fn& fn) const;

  std::vector<Node> nodes_;
  std::vector<Record> records_;
  std::uint32_t free_ = kNil;
  std::size_t size_ = 0;
};

template <typename Fn>
bool OverlapIndex::visit_rules(std::uint32_t r, int lo, int hi,
                               Fn& fn) const {
  for (; r != kNil; r = records_[r].next) {
    const net::Rule& rule = records_[r].rule;
    if (rule.priority > lo && rule.priority <= hi && !fn(rule)) return false;
  }
  return true;
}

template <typename Fn>
bool OverlapIndex::visit_subtree(std::uint32_t n, int lo, int hi,
                                 Fn& fn) const {
  const Node& node = nodes_[n];
  if (node.misses(lo, hi)) return true;
  if (!visit_rules(node.head, lo, hi, fn)) return false;
  for (std::uint32_t c : node.child)
    if (c != 0 && !visit_subtree(c, lo, hi, fn)) return false;
  return true;
}

template <typename Fn>
bool OverlapIndex::visit(const net::Prefix& p, int lo, int hi,
                         Fn&& fn) const {
  std::uint32_t n = 0;
  for (int i = 0;; ++i) {
    const Node& node = nodes_[n];
    // Every rule still to visit lies in this node's subtree.
    if (node.misses(lo, hi)) return true;
    if (!visit_rules(node.head, lo, hi, fn)) return false;
    if (i == p.length()) break;
    n = node.child[bit_at(p, i)];
    if (n == 0) return true;  // path ends: no descendants either
  }
  for (std::uint32_t c : nodes_[n].child)
    if (c != 0 && !visit_subtree(c, lo, hi, fn)) return false;
  return true;
}

}  // namespace hermes::core
