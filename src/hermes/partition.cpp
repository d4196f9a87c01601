#include "hermes/partition.h"

#include <algorithm>

#include "net/ipv4.h"

namespace hermes::core {

PartitionResult partition_new_rule(const net::Rule& new_rule,
                                   const OverlapIndex& main_index) {
  PartitionResult result;
  std::vector<OverlapIndex::Key> overlaps =
      main_index.overlapping(new_rule.match, new_rule.priority);

  // Current residual cover of the new rule's match.
  std::vector<net::Prefix> pieces{new_rule.match};
  if (overlaps.empty()) {
    result.pieces = std::move(pieces);
    return result;
  }

  // Cut the most specific (longest) overlaps last or first — order does
  // not affect the final set, but cutting the widest first lets wholesale
  // removals short-circuit the loop early.
  std::sort(overlaps.begin(), overlaps.end(),
            [](const OverlapIndex::Key& a, const OverlapIndex::Key& b) {
              return a.match.length() < b.match.length();
            });

  for (const OverlapIndex::Key& o : overlaps) {
    std::vector<net::Prefix> next;
    next.reserve(pieces.size() + 4);
    bool cut_something = false;
    for (const net::Prefix& piece : pieces) {
      if (o.match.contains(piece)) {
        // Figure 5 (a) applied to this piece: wholly covered, drop it.
        cut_something = true;
        continue;
      }
      if (piece.contains(o.match)) {
        // Figure 5 (b)/(c): carve the covered sub-range out of the piece.
        auto residual = net::prefix_difference(piece, o.match);
        next.insert(next.end(), residual.begin(), residual.end());
        cut_something = true;
        continue;
      }
      next.push_back(piece);  // disjoint: untouched
    }
    if (cut_something) result.cut_against.push_back(o.id);
    pieces = std::move(next);
    if (pieces.empty()) break;
  }

  if (pieces.empty()) {
    result.redundant = true;
    return result;
  }
  result.pieces = net::merge_prefixes(std::move(pieces));
  return result;
}

std::vector<net::Rule> materialize_partitions(const net::Rule& original,
                                              const PartitionResult& result,
                                              net::RuleId first_id) {
  std::vector<net::Rule> rules;
  rules.reserve(result.pieces.size());
  for (const net::Prefix& piece : result.pieces) {
    net::Rule r = original;
    r.id = first_id++;
    r.match = piece;
    rules.push_back(r);
  }
  return rules;
}

}  // namespace hermes::core
