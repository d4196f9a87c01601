// Algorithm 1 (PartitionNewRule) and its supporting analysis (Section 4).
//
// When a new rule is headed for the shadow table, any region of its match
// that a strictly-higher-priority MAIN-table rule covers must be cut away:
// the shadow table is consulted first, so leaving that region in place
// would let the (lower-priority) new rule shadow the higher-priority main
// rule — the Figure 4 correctness violation. The algorithm:
//
//   (i)   detect overlaps between the new rule and higher-priority main
//         rules (OverlapIndex);
//   (ii)  eliminate each overlap by cutting the new rule's prefix into
//         residual prefixes (net::prefix_difference);
//   (iii) merge the residual prefixes into a minimal cover
//         (net::merge_prefixes).
//
// Overlaps with SHADOW rules are fine — the TCAM disambiguates overlapping
// rules within one table by priority.
#pragma once

#include <vector>

#include "hermes/overlap_index.h"
#include "net/rule.h"

namespace hermes::core {

/// Output of Algorithm 1 for one new rule.
struct PartitionResult {
  /// True when higher-priority main rules wholly cover the new rule
  /// (Figure 5 (a)): it could never match in a monolithic table and must
  /// not be inserted at all (footnote 2).
  bool redundant = false;

  /// The residual prefixes the shadow copy must be split into. A single
  /// element equal to the original match means "no partitioning needed".
  std::vector<net::Prefix> pieces;

  /// Physical ids of the main-table rules that actually cut (or covered)
  /// the new rule — the dependency half of the mapping set M, needed to
  /// un-partition when one of them is later deleted (Figure 6).
  std::vector<net::RuleId> cut_against;
};

/// Runs Algorithm 1 for `new_rule` against the main table described by
/// `main_index`. Only strictly-higher-priority main rules cut the new rule
/// (Algo 1 line 3: Prio(r_new) < Prio(r)). For prefix rules the cuts
/// already form a minimal cover, so the final Merge step (line 7) only
/// puts the pieces in net::merge_prefixes' canonical order.
PartitionResult partition_new_rule(const net::Rule& new_rule,
                                   const OverlapIndex& main_index);

/// Expands a partition result into concrete rules: each piece inherits the
/// original priority and action; ids are assigned sequentially starting at
/// `first_id`. Precondition: !result.redundant.
std::vector<net::Rule> materialize_partitions(const net::Rule& original,
                                              const PartitionResult& result,
                                              net::RuleId first_id);

}  // namespace hermes::core
