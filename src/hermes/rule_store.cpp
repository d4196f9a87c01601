#include "hermes/rule_store.h"

#include <algorithm>
#include <cassert>

namespace hermes::core {

void RuleStore::add(LogicalRule rule) {
  net::RuleId id = rule.original.id;
  assert(!logical_.count(id));
  link(rule);
  logical_.emplace(id, std::move(rule));
}

std::optional<LogicalRule> RuleStore::remove(net::RuleId logical_id) {
  auto it = logical_.find(logical_id);
  if (it == logical_.end()) return std::nullopt;
  LogicalRule out = std::move(it->second);
  unlink(out);
  logical_.erase(it);
  // Drop the (now dangling) dependency list of this rule as a blocker;
  // callers un-partition dependents before removing a blocker.
  dependents_.erase(logical_id);
  return out;
}

const LogicalRule* RuleStore::find(net::RuleId logical_id) const {
  auto it = logical_.find(logical_id);
  return it == logical_.end() ? nullptr : &it->second;
}

void RuleStore::set_action(const LogicalRule& rule,
                           const net::Action& action) {
  assert(find(rule.original.id) == &rule);
  // The record is the store's own; find() hands it out read-only.
  const_cast<LogicalRule&>(rule).original.action = action;
}

std::optional<net::RuleId> RuleStore::logical_of(
    net::RuleId physical_id) const {
  const LogicalRule* rule = find(owner_of(physical_id));
  if (rule == nullptr ||
      std::find(rule->physical_ids.begin(), rule->physical_ids.end(),
                physical_id) == rule->physical_ids.end())
    return std::nullopt;
  return rule->original.id;
}

std::vector<net::RuleId> RuleStore::dependents_of(
    net::RuleId blocker_logical_id) const {
  auto it = dependents_.find(blocker_logical_id);
  if (it == dependents_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

void RuleStore::rebind(net::RuleId logical_id, Placement placement,
                       std::vector<net::RuleId> physical_ids,
                       std::vector<net::RuleId> cut_against) {
  auto it = logical_.find(logical_id);
  assert(it != logical_.end());
  unlink(it->second);
  it->second.placement = placement;
  it->second.physical_ids = std::move(physical_ids);
  it->second.cut_against = std::move(cut_against);
  link(it->second);
}

std::vector<net::RuleId> RuleStore::ids_with_placement(
    Placement placement) const {
  if (placement == Placement::kShadow) return {shadow_.begin(), shadow_.end()};
  std::vector<net::RuleId> out;
  for (const auto& [id, rule] : logical_) {
    if (rule.placement == placement) out.push_back(id);
  }
  return out;
}

void RuleStore::sort_by_priority(std::vector<net::RuleId>& logical_ids) const {
  std::sort(logical_ids.begin(), logical_ids.end(),
            [&](net::RuleId a, net::RuleId b) {
              const int pa = find(a)->original.priority;
              const int pb = find(b)->original.priority;
              if (pa != pb) return pa > pb;
              return a < b;
            });
}

std::vector<net::Rule> RuleStore::all_originals() const {
  std::vector<net::Rule> out;
  out.reserve(logical_.size());
  for (const auto& [id, rule] : logical_) out.push_back(rule.original);
  std::sort(out.begin(), out.end(),
            [](const net::Rule& a, const net::Rule& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              return a.id < b.id;
            });
  return out;
}

void RuleStore::clear() {
  logical_.clear();
  dependents_.clear();
  shadow_.clear();
}

void RuleStore::unlink(const LogicalRule& rule) {
  if (rule.placement == Placement::kShadow) shadow_.erase(rule.original.id);
  for (net::RuleId blocker : rule.cut_against) {
    auto it = dependents_.find(blocker);
    if (it != dependents_.end()) {
      it->second.erase(rule.original.id);
      if (it->second.empty()) dependents_.erase(it);
    }
  }
}

void RuleStore::link(const LogicalRule& rule) {
  if (rule.placement == Placement::kShadow) shadow_.insert(rule.original.id);
  for (net::RuleId blocker : rule.cut_against)
    dependents_[blocker].insert(rule.original.id);
}

}  // namespace hermes::core
