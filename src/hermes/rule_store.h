// Logical-rule bookkeeping: the "mapping set M" of Algorithm 1, extended
// with the reverse dependencies needed for deletion (Section 4.1).
//
// The controller thinks in LOGICAL rules (one id per flow-mod, below
// 2^32). Hermes may physically represent a logical rule as several
// partition pieces, spread across the shadow and main tables. This store
// records:
//   * logical id -> {original rule, where the pieces live, piece ids},
//   * blocking main rule (logical id) -> logical rules partitioned
//     because of it (to "un-partition" when the blocker is deleted,
//     Figure 6),
//   * the set of shadow-resident logical ids, so a migration lists the
//     few rules it moves without walking every logical rule. link() and
//     unlink() keep it in step with `placement`; no caller gets a mutable
//     LogicalRule, so no caller can move a rule behind the set's back.
//     There is no main-resident set: ids_with_placement(kMain) still
//     scans every logical rule (in the agent only reconciliation asks
//     for it).
//
// Physical ids name their owner, so there is no physical -> logical map.
// An uncut rule's one piece keeps the logical id. Every other piece is
// piece_id(mint, logical id): the logical id in the low 32 bits and a
// mint >= 1 in the high 32, where the agent draws each mint from one
// counter, so no two pieces it makes share an id. owner_of() reads the
// low bits back. logical_of() also checks that the owner still lists the
// piece, which is how reconciliation tells a stray entry from a live one.
#pragma once

#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/rule.h"

namespace hermes::core {

/// Which physical table a logical rule's pieces currently live in.
enum class Placement : std::uint8_t { kShadow, kMain };

struct LogicalRule {
  net::Rule original;  ///< the rule as the controller issued it
  Placement placement = Placement::kShadow;
  /// Physical rule ids realizing this logical rule (== {original.id} when
  /// unpartitioned; partition piece ids otherwise).
  std::vector<net::RuleId> physical_ids;
  /// Logical ids of main-resident rules this rule was cut against.
  std::vector<net::RuleId> cut_against;
};

class RuleStore {
 public:
  /// Registers a logical rule. `cut_against` lists the logical ids of the
  /// main rules that caused partitioning (empty when unpartitioned).
  void add(LogicalRule rule);

  /// Removes a logical rule and all its dependency edges. Returns the
  /// removed record, or nullopt if unknown.
  std::optional<LogicalRule> remove(net::RuleId logical_id);

  const LogicalRule* find(net::RuleId logical_id) const;

  /// Rewrites the action of a logical rule's original (an action-only
  /// modify). `rule` must be what find() returned, so the rewrite costs
  /// no second lookup.
  void set_action(const LogicalRule& rule, const net::Action& action);

  /// Physical id of a logical rule's piece minted as `mint` (>= 1).
  static constexpr net::RuleId piece_id(std::uint64_t mint,
                                        net::RuleId logical_id) {
    return (mint << 32) | logical_id;
  }
  /// The logical id a physical id names, listed or not.
  static constexpr net::RuleId owner_of(net::RuleId physical_id) {
    return physical_id & 0xFFFFFFFFu;
  }

  /// Logical id owning a physical rule id, or nullopt when no live rule
  /// lists that piece.
  std::optional<net::RuleId> logical_of(net::RuleId physical_id) const;

  /// Logical rules that were partitioned because of `blocker_logical_id`
  /// (candidates for un-partitioning when the blocker is deleted).
  std::vector<net::RuleId> dependents_of(net::RuleId blocker_logical_id) const;

  /// Rebinds a logical rule's physical pieces (e.g. after re-partitioning
  /// or migration). Updates the shadow set and dependency edges.
  void rebind(net::RuleId logical_id, Placement placement,
              std::vector<net::RuleId> physical_ids,
              std::vector<net::RuleId> cut_against);

  std::size_t size() const { return logical_.size(); }
  bool contains(net::RuleId logical_id) const {
    return logical_.count(logical_id) > 0;
  }

  /// All logical ids currently placed in the given table, in no set
  /// order. kShadow costs the shadow's size; kMain scans every rule.
  std::vector<net::RuleId> ids_with_placement(Placement placement) const;

  /// Sorts logical ids into the one order every multi-rule move uses
  /// (migration, reinstallation, un-partitioning): priority descending,
  /// then logical id ascending. A total order, so the result never
  /// depends on hash-container iteration order. All ids must be known.
  void sort_by_priority(std::vector<net::RuleId>& logical_ids) const;

  /// Every logical rule as originally issued by the controller, sorted by
  /// descending priority then id (a valid reinstallation order).
  std::vector<net::Rule> all_originals() const;

  void clear();

 private:
  void unlink(const LogicalRule& rule);
  void link(const LogicalRule& rule);

  std::unordered_map<net::RuleId, LogicalRule> logical_;
  std::unordered_map<net::RuleId, std::unordered_set<net::RuleId>>
      dependents_;
  std::unordered_set<net::RuleId> shadow_;  // placement == kShadow
};

}  // namespace hermes::core
