// Efficient overlap detection between prefix rules (Section 3,
// "Correctness": Hermes "uses an efficient data structure to detect
// overlapping rules").
//
// Prefix overlap is containment, so a binary trie keyed by prefix bits
// answers "which installed rules overlap prefix P?" by combining the
// rules on the root->P path (ancestors of P) with the rules in the
// subtree under P (descendants).
//
// Layout: a path-compressed binary trie, flat and index-linked, with no
// pointers. `nodes_` is one vector of 28-byte nodes: the node's own
// prefix, two child indices, the head of the node's rule list, and the
// max and min priority over the node's whole subtree. The root is index
// 0 and holds 0.0.0.0/0, so child index 0 means "no child". A child's
// prefix lies strictly inside its parent's, on the side of the parent's
// next bit; the bits between the two are not nodes. Every node but the
// root holds rules or is a branch point with two children, so the trie
// has at most 2 x (distinct live prefixes) + 1 nodes: a sparse /32 adds
// at most two. `records_` is one vector of 16-byte records, one per rule:
// its id and priority, linked to the next rule of its node. A rule's
// match is its node's prefix.
//
// Freeing: erase() puts the emptied record on a free list, and with it
// the rule's node if that no longer holds rules or branches, and then
// its parent if that is left a rule-less node with one child. insert()
// takes from the free lists first, so the vectors stay at the peak live
// size and no call allocates except when one of them grows past it.
//
// The index keeps only what overlap queries read, a rule's `Key` (id,
// priority, match), and hands out keys, not rules: no action is stored.
// A caller that needs the whole rule looks the id up in its own table.
//
// Query contract: `visit(p, lo, hi, fn)` calls `fn` on the key of every
// rule that overlaps `p` with lo < priority <= hi, in this order:
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
  /// What the index keeps of a rule.
  struct Key {
    net::RuleId id = net::kInvalidRuleId;
    int priority = 0;
    net::Prefix match;

    friend constexpr bool operator==(const Key&, const Key&) = default;
  };
  static_assert(sizeof(Key) == 24);

  OverlapIndex();
  OverlapIndex(OverlapIndex&&) noexcept = default;
  OverlapIndex& operator=(OverlapIndex&&) noexcept = default;
  OverlapIndex(const OverlapIndex&) = delete;
  OverlapIndex& operator=(const OverlapIndex&) = delete;

  void insert(const net::Rule& rule);

  /// Removes the rule with this id stored under `match`; returns whether
  /// anything was removed.
  bool erase(net::RuleId id, const net::Prefix& match);

  /// Calls `fn(const Key&) -> bool` on every rule overlapping `p` with
  /// lo < priority <= hi, in the order of the header comment, until `fn`
  /// returns false. Returns false iff `fn` stopped the walk.
  template <typename Fn>
  bool visit(const net::Prefix& p, int lo, int hi, Fn&& fn) const;

  /// Keys of all rules whose match overlaps `p` and whose priority is
  /// strictly greater than `min_priority_exclusive` (pass INT_MIN for
  /// "all"), in visit order.
  std::vector<Key> overlapping(const net::Prefix& p,
                               int min_priority_exclusive) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear();

 private:
  friend struct OverlapIndexTestPeer;

  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  struct Node {
    net::Prefix prefix;
    std::uint32_t child[2] = {0, 0};  ///< free-list link in child[0]
    std::uint32_t head = kNil;  ///< first record of the rules ending here
    int max_priority = std::numeric_limits<int>::min();  ///< over subtree
    int min_priority = std::numeric_limits<int>::max();  ///< over subtree

    bool misses(int lo, int hi) const {
      return max_priority <= lo || min_priority > hi;
    }
  };
  static_assert(sizeof(Node) == 28);

  struct Record {
    net::RuleId id = net::kInvalidRuleId;
    int priority = 0;
    std::uint32_t next = kNil;  ///< next rule of the node, or free-list link
  };
  static_assert(sizeof(Record) == 16);

  // Bit i (0 = MSB) of the prefix address.
  static int bit_at(const net::Prefix& p, int i) {
    return (p.address().value() >> (31 - i)) & 1u;
  }

  std::uint32_t new_node(const net::Prefix& prefix, int priority);
  void free_node(std::uint32_t n);

  template <typename Fn>
  bool visit_rules(const Node& node, int lo, int hi, Fn& fn) const;
  template <typename Fn>
  bool visit_subtree(std::uint32_t n, int lo, int hi, Fn& fn) const;

  std::vector<Node> nodes_;
  std::vector<Record> records_;
  std::uint32_t free_node_ = kNil;
  std::uint32_t free_record_ = kNil;
  std::size_t size_ = 0;
};

template <typename Fn>
bool OverlapIndex::visit_rules(const Node& node, int lo, int hi,
                               Fn& fn) const {
  for (std::uint32_t r = node.head; r != kNil; r = records_[r].next) {
    const Record& rec = records_[r];
    if (rec.priority > lo && rec.priority <= hi &&
        !fn(Key{rec.id, rec.priority, node.prefix}))
      return false;
  }
  return true;
}

template <typename Fn>
bool OverlapIndex::visit_subtree(std::uint32_t n, int lo, int hi,
                                 Fn& fn) const {
  const Node& node = nodes_[n];
  if (node.misses(lo, hi)) return true;
  if (!visit_rules(node, lo, hi, fn)) return false;
  for (std::uint32_t c : node.child)
    if (c != 0 && !visit_subtree(c, lo, hi, fn)) return false;
  return true;
}

template <typename Fn>
bool OverlapIndex::visit(const net::Prefix& p, int lo, int hi,
                         Fn&& fn) const {
  const std::uint32_t addr = p.address().value();
  std::uint32_t n = 0;
  for (;;) {
    // `node` contains `p`, and every rule still to visit lies in its
    // subtree.
    const Node& node = nodes_[n];
    if (node.misses(lo, hi)) return true;
    if (!visit_rules(node, lo, hi, fn)) return false;
    const int len = node.prefix.length();
    if (len == p.length()) break;
    n = node.child[bit_at(p, len)];
    if (n == 0) return true;  // path ends: no descendants either
    // One prefix test per level: does the child agree with `p` on every
    // bit both fix? If not, nothing below it overlaps `p`.
    const net::Prefix& cp = nodes_[n].prefix;
    const int shorter = cp.length() < p.length() ? cp.length() : p.length();
    if ((cp.address().value() ^ addr) & net::Prefix::mask_for(shorter))
      return true;
    if (cp.length() > p.length()) return visit_subtree(n, lo, hi, fn);
  }
  for (std::uint32_t c : nodes_[n].child)
    if (c != 0 && !visit_subtree(c, lo, hi, fn)) return false;
  return true;
}

}  // namespace hermes::core
