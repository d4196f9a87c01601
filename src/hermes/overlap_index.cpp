#include "hermes/overlap_index.h"

#include <algorithm>
#include <array>

namespace hermes::core {

OverlapIndex::OverlapIndex() : nodes_(1) {}

void OverlapIndex::insert(const net::Rule& rule) {
  // Walk/extend the trie along the prefix bits, widening each subtree's
  // priority bounds on the way down.
  std::uint32_t n = 0;
  for (int i = 0;; ++i) {
    Node& node = nodes_[n];
    node.max_priority = std::max(node.max_priority, rule.priority);
    node.min_priority = std::min(node.min_priority, rule.priority);
    if (i == rule.match.length()) break;
    const int b = bit_at(rule.match, i);
    if (node.child[b] == 0) {
      node.child[b] = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();  // invalidates `node`
    }
    n = nodes_[n].child[b];
  }
  std::uint32_t r = free_;
  if (r == kNil) {
    r = static_cast<std::uint32_t>(records_.size());
    records_.push_back({rule, kNil});
  } else {
    free_ = records_[r].next;
    records_[r] = {rule, kNil};
  }
  // Append, so a node's rules stay in insertion order.
  std::uint32_t* link = &nodes_[n].head;
  while (*link != kNil) link = &records_[*link].next;
  *link = r;
  ++size_;
}

bool OverlapIndex::erase(net::RuleId id, const net::Prefix& match) {
  std::array<std::uint32_t, 33> path{};  // path[0] is the root
  int depth = 0;
  for (; depth < match.length(); ++depth) {
    const std::uint32_t c = nodes_[path[depth]].child[bit_at(match, depth)];
    if (c == 0) return false;
    path[depth + 1] = c;
  }
  std::uint32_t* link = &nodes_[path[depth]].head;
  while (*link != kNil && records_[*link].rule.id != id)
    link = &records_[*link].next;
  if (*link == kNil) return false;
  const std::uint32_t r = *link;
  *link = records_[r].next;
  records_[r].next = free_;
  free_ = r;
  --size_;
  // Refresh bounds bottom-up. A node's bounds depend only on its own
  // rules and its children's bounds, so once one node's bounds hold
  // still, every ancestor's do too.
  for (; depth >= 0; --depth) {
    Node& node = nodes_[path[depth]];
    int hi = std::numeric_limits<int>::min();
    int lo = std::numeric_limits<int>::max();
    for (std::uint32_t k = node.head; k != kNil; k = records_[k].next) {
      hi = std::max(hi, records_[k].rule.priority);
      lo = std::min(lo, records_[k].rule.priority);
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

bool OverlapIndex::set_action(net::RuleId id, const net::Prefix& match,
                              const net::Action& action) {
  std::uint32_t n = 0;
  for (int i = 0; i < match.length(); ++i) {
    n = nodes_[n].child[bit_at(match, i)];
    if (n == 0) return false;
  }
  std::uint32_t* link = &nodes_[n].head;
  while (*link != kNil && records_[*link].rule.id != id)
    link = &records_[*link].next;
  if (*link == kNil) return false;
  // The priority is unchanged, so no bound moves. erase() + insert()
  // would reuse this very record off the free list and append it, so
  // unlink it and re-append it at the tail.
  const std::uint32_t r = *link;
  records_[r].rule.action = action;
  *link = records_[r].next;
  while (*link != kNil) link = &records_[*link].next;
  *link = r;
  records_[r].next = kNil;
  return true;
}

std::vector<net::Rule> OverlapIndex::overlapping(
    const net::Prefix& p, int min_priority_exclusive) const {
  std::vector<net::Rule> out;
  visit(p, min_priority_exclusive, std::numeric_limits<int>::max(),
        [&](const net::Rule& r) {
          out.push_back(r);
          return true;
        });
  return out;
}

void OverlapIndex::clear() {
  nodes_.assign(1, Node{});
  records_.clear();
  free_ = kNil;
  size_ = 0;
}

}  // namespace hermes::core
