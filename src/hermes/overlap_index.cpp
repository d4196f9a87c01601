#include "hermes/overlap_index.h"

#include <algorithm>
#include <array>
#include <bit>

namespace hermes::core {

namespace {

// Length of the longest prefix containing both `a` and `b`.
int common_length(const net::Prefix& a, const net::Prefix& b) {
  const int differ =
      std::countl_zero(a.address().value() ^ b.address().value());
  return std::min({differ, a.length(), b.length()});
}

}  // namespace

OverlapIndex::OverlapIndex() : nodes_(1) {}

std::uint32_t OverlapIndex::new_node(const net::Prefix& prefix,
                                     int priority) {
  std::uint32_t n = free_node_;
  if (n == kNil) {
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.emplace_back();
  } else {
    free_node_ = nodes_[n].child[0];
  }
  nodes_[n] = Node{prefix, {0, 0}, kNil, priority, priority};
  return n;
}

void OverlapIndex::free_node(std::uint32_t n) {
  nodes_[n].child[0] = free_node_;
  free_node_ = n;
}

void OverlapIndex::insert(const net::Rule& rule) {
  const net::Prefix& p = rule.match;
  const int priority = rule.priority;
  // Walk down the nodes containing `p`, widening each subtree's priority
  // bounds on the way, to the node holding `p`; make it if it is missing.
  std::uint32_t n = 0;
  for (;;) {
    Node& node = nodes_[n];
    node.max_priority = std::max(node.max_priority, priority);
    node.min_priority = std::min(node.min_priority, priority);
    const int len = node.prefix.length();
    if (len == p.length()) break;
    const int b = bit_at(p, len);
    const std::uint32_t c = node.child[b];
    if (c == 0) {
      const std::uint32_t leaf = new_node(p, priority);  // invalidates `node`
      nodes_[n].child[b] = leaf;
      n = leaf;
      break;
    }
    const Node& child = nodes_[c];
    const int common = common_length(p, child.prefix);
    if (common == child.prefix.length()) {  // the child contains `p`
      n = c;
      continue;
    }
    // `p` and the child part ways below `node`: one new node at their
    // common prefix takes the child's place and adopts it. It is `p`'s
    // own node when `p` contains the child, else a branch point over the
    // child and a new leaf for `p`.
    const int child_bit = bit_at(child.prefix, common);
    const int child_max = child.max_priority;
    const int child_min = child.min_priority;
    const std::uint32_t top =
        new_node(net::Prefix(p.address(), common), priority);
    std::uint32_t target = top;
    if (common < p.length()) {
      target = new_node(p, priority);
      nodes_[top].child[bit_at(p, common)] = target;
    }
    Node& joint = nodes_[top];
    joint.child[child_bit] = c;
    joint.max_priority = std::max(joint.max_priority, child_max);
    joint.min_priority = std::min(joint.min_priority, child_min);
    nodes_[n].child[b] = top;
    n = target;
    break;
  }
  std::uint32_t r = free_record_;
  if (r == kNil) {
    r = static_cast<std::uint32_t>(records_.size());
    records_.push_back({rule.id, priority, kNil});
  } else {
    free_record_ = records_[r].next;
    records_[r] = {rule.id, priority, kNil};
  }
  // Append, so a node's rules stay in insertion order.
  std::uint32_t* link = &nodes_[n].head;
  while (*link != kNil) link = &records_[*link].next;
  *link = r;
  ++size_;
}

bool OverlapIndex::erase(net::RuleId id, const net::Prefix& match) {
  // Each node on the path is strictly longer than its parent, so the
  // path holds at most 33 nodes; path[0] is the root.
  std::array<std::uint32_t, 33> path{};
  int depth = 0;
  while (nodes_[path[depth]].prefix.length() < match.length()) {
    const Node& node = nodes_[path[depth]];
    const std::uint32_t c = node.child[bit_at(match, node.prefix.length())];
    if (c == 0 || !nodes_[c].prefix.contains(match)) return false;
    path[++depth] = c;
  }
  std::uint32_t* link = &nodes_[path[depth]].head;
  while (*link != kNil && records_[*link].id != id)
    link = &records_[*link].next;
  if (*link == kNil) return false;
  const std::uint32_t r = *link;
  *link = records_[r].next;
  records_[r].next = free_record_;
  free_record_ = r;
  --size_;
  // Free the nodes that neither hold rules nor branch any more: the
  // rule's node when it is left with fewer than two children (its one
  // child, if any, takes its place), and then its parent when losing a
  // leaf leaves that a rule-less node with one child.
  while (depth > 0) {
    const std::uint32_t n = path[depth];
    const Node& node = nodes_[n];
    if (node.head != kNil || (node.child[0] != 0 && node.child[1] != 0))
      break;
    const std::uint32_t only = node.child[0] | node.child[1];  // one or none
    Node& parent = nodes_[path[depth - 1]];
    parent.child[parent.child[1] == n ? 1 : 0] = only;
    free_node(n);
    --depth;
    if (only != 0) break;  // spliced: the parent keeps both children
  }
  // Refresh bounds bottom-up. A node's bounds depend only on its own
  // rules and its children's bounds, so once one node's bounds hold
  // still, every ancestor's do too.
  for (; depth >= 0; --depth) {
    Node& node = nodes_[path[depth]];
    int hi = std::numeric_limits<int>::min();
    int lo = std::numeric_limits<int>::max();
    for (std::uint32_t k = node.head; k != kNil; k = records_[k].next) {
      hi = std::max(hi, records_[k].priority);
      lo = std::min(lo, records_[k].priority);
    }
    for (std::uint32_t c : node.child) {
      if (c == 0) continue;
      hi = std::max(hi, nodes_[c].max_priority);
      lo = std::min(lo, nodes_[c].min_priority);
    }
    if (hi == node.max_priority && lo == node.min_priority) break;
    node.max_priority = hi;
    node.min_priority = lo;
  }
  return true;
}

std::vector<OverlapIndex::Key> OverlapIndex::overlapping(
    const net::Prefix& p, int min_priority_exclusive) const {
  std::vector<Key> out;
  visit(p, min_priority_exclusive, std::numeric_limits<int>::max(),
        [&](const Key& k) {
          out.push_back(k);
          return true;
        });
  return out;
}

void OverlapIndex::clear() {
  nodes_.assign(1, Node{});
  records_.clear();
  free_node_ = kNil;
  free_record_ = kNil;
  size_ = 0;
}

}  // namespace hermes::core
