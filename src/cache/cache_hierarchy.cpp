#include "cache/cache_hierarchy.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "obs/trace.h"

namespace hermes::cache {

namespace {
constexpr int kMinPriority = std::numeric_limits<int>::min();
constexpr int kMaxPriority = std::numeric_limits<int>::max();
/// kCache: max rules installed per promotion round (one tick()).
constexpr int kPromotionBatchMax = 64;
/// kCache: pending promotion candidates beyond this are dropped.
constexpr int kPromotionQueueMax = 4096;
}  // namespace

CacheHierarchy::CacheHierarchy(const tcam::SwitchModel& model,
                               int tcam_capacity, CacheConfig config)
    : config_(config),
      asic_(model, {tcam_capacity}),
      policy_(config.mode == Mode::kCache
                  ? make_policy(config.policy, tcam_capacity)
                  : nullptr),
      next_flush_(config.flush_period) {}

// --- Software tier ------------------------------------------------------------

bool CacheHierarchy::software_erase(net::RuleId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  sw_engine_.erase(it->second.rule);
  entries_.erase(it);
  return true;
}

void CacheHierarchy::software_install(const net::Rule& rule) {
  software_erase(rule.id);
  entries_.emplace(rule.id, Entry{rule, seq_, false});
  sw_engine_.insert(rule, seq_++);
}

int CacheHierarchy::software_resident() const {
  return static_cast<int>(entries_.size()) - cached_count_;
}

// --- Control plane ------------------------------------------------------------

Time CacheHierarchy::handle(Time now, const net::FlowMod& mod) {
  if (config_.mode == Mode::kWriteBack) return write_back_handle(now, mod);
  note_reset_if_any(now);
  switch (mod.type) {
    case net::FlowModType::kInsert:
      return cache_insert(now, mod.rule);
    case net::FlowModType::kDelete:
      return cache_erase(now, mod.rule.id);
    case net::FlowModType::kModify: {
      // Delete + insert with a fresh arrival stamp (Section 4.1's modify
      // decomposition, applied at the hierarchy level).
      Time erased = cache_erase(now, mod.rule.id);
      Time inserted = cache_insert(now, mod.rule);
      return std::max(erased, inserted);
    }
  }
  return now;
}

Time CacheHierarchy::write_back_handle(Time now, const net::FlowMod& mod) {
  switch (mod.type) {
    case net::FlowModType::kInsert: {
      // The control-plane action completes at software speed — that is
      // ShadowSwitch's whole point.
      software_install(mod.rule);
      obs_software_resident_.set(software_resident());
      return now + config_.software_insert;
    }
    case net::FlowModType::kDelete: {
      if (software_erase(mod.rule.id)) {
        obs_software_resident_.set(software_resident());
        return now + config_.software_insert;
      }
      return asic_.submit(now, 0, mod);
    }
    case net::FlowModType::kModify: {
      if (entries_.count(mod.rule.id) > 0) {
        software_install(mod.rule);
        return now + config_.software_insert;
      }
      return asic_.submit(now, 0, mod);
    }
  }
  return now;
}

void CacheHierarchy::tick(Time now) {
  if (config_.mode == Mode::kWriteBack) {
    if (now >= next_flush_ && !entries_.empty()) write_back_flush(now);
    while (next_flush_ <= now) next_flush_ += config_.flush_period;
    return;
  }
  note_reset_if_any(now);
  promote_round(now);
}

Time CacheHierarchy::flush(Time now) {
  if (config_.mode == Mode::kWriteBack) return write_back_flush(now);
  note_reset_if_any(now);
  promote_round(now);
  return now;
}

Time CacheHierarchy::write_back_flush(Time now) {
  if (entries_.empty()) return now;
  std::vector<net::Rule> batch;
  batch.reserve(entries_.size());
  for (const auto& [id, entry] : entries_) batch.push_back(entry.rule);
  // Deterministic flush order: by priority descending then id.
  std::sort(batch.begin(), batch.end(),
            [](const net::Rule& a, const net::Rule& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              return a.id < b.id;
            });
  tcam::Asic::BatchResult result;
  Time done = asic_.submit_batch_insert(now, 0, batch, &result);
  // Whatever fit leaves software; the rest stays for the next flush.
  //
  // `result.inserted` counts a PREFIX of the batch: the single-pass
  // placement stops at the first rule that does not fit, and fault
  // injection truncates the batch at the first failed write. Dropping
  // the software copy is only safe once the TCAM verifiably holds the
  // rule — if the prefix contract ever broke, blindly erasing the first
  // `inserted` entries would drop a skipped rule from BOTH tiers. So
  // verify per entry; a discrepancy keeps the rule software-resident
  // and is counted (cache.flush_orphans, asserted zero by tests).
  for (int i = 0; i < result.inserted; ++i) {
    const net::Rule& r = batch[static_cast<std::size_t>(i)];
    if (asic_.slice(0).contains(r.id)) {
      software_erase(r.id);
    } else {
      assert(false && "batch insert reported a non-resident rule");
      ++flush_orphans_;
      obs_flush_orphans_.inc();
    }
  }
  obs_software_resident_.set(software_resident());
  return done;
}

// --- kCache control plane -----------------------------------------------------

Time CacheHierarchy::cache_insert(Time now, const net::Rule& rule) {
  if (entries_.count(rule.id) > 0) cache_erase(now, rule.id);
  software_install(rule);
  uncached_index_.insert(rule);
  // A new software-only rule must not be shadowed by a lower-or-equal
  // priority cached rule it overlaps: demote any such rule now.
  demote_conflicting(now, rule);
  obs_software_resident_.set(software_resident());
  return now + config_.software_insert;
}

Time CacheHierarchy::cache_erase(Time now, net::RuleId id) {
  auto it = entries_.find(id);
  if (it == entries_.end()) return now;
  const Entry entry = it->second;
  Time completion = now + config_.software_insert;
  if (entry.cached) {
    cached_index_.erase(id, entry.rule.match);
    --cached_count_;
    net::FlowMod del{net::FlowModType::kDelete, net::Rule{id, 0, {}, {}}};
    completion = asic_.submit(now, 0, del);
  } else {
    uncached_index_.erase(id, entry.rule.match);
  }
  policy_->on_remove(id);
  in_queue_.erase(id);
  software_erase(id);
  obs_software_resident_.set(software_resident());
  return completion;
}

void CacheHierarchy::note_reset_if_any(Time now) {
  asic_.poll(now);
  if (asic_.reset_epoch() == seen_reset_epoch_) return;
  seen_reset_epoch_ = asic_.reset_epoch();
  // The wipe emptied the TCAM tier; the software tier is inclusive, so
  // no rule is lost — flip every cached rule back to software-only and
  // let popularity re-fill the cache.
  for (auto& [id, entry] : entries_) {
    if (!entry.cached) continue;
    entry.cached = false;
    cached_index_.erase(id, entry.rule.match);
    uncached_index_.insert(entry.rule);
    policy_->on_evict(id);
  }
  cached_count_ = 0;
  obs_software_resident_.set(software_resident());
}

void CacheHierarchy::enqueue_promotion(net::RuleId id) {
  if (in_queue_.count(id)) return;
  if (static_cast<int>(promo_queue_.size()) >= kPromotionQueueMax) return;
  promo_queue_.push_back(id);
  in_queue_.insert(id);
}

void CacheHierarchy::promote_round(Time now) {
  int budget = kPromotionBatchMax;
  std::unordered_set<net::RuleId> pinned;
  int installed_total = 0;
  while (budget > 0 && !promo_queue_.empty()) {
    const net::RuleId id = promo_queue_.front();
    promo_queue_.pop_front();
    in_queue_.erase(id);
    auto it = entries_.find(id);
    if (it == entries_.end() || it->second.cached) continue;
    const int installed = promote_one(now, id, pinned);
    installed_total += installed;
    budget -= std::max(installed, 1);
  }
  if (installed_total > 0) {
    obs_batch_rules_.record(static_cast<std::uint64_t>(installed_total));
    obs::trace_event(obs::cache_op_event(now, obs::kCachePromote,
                                         installed_total,
                                         static_cast<int>(pins_)));
  }
}

int CacheHierarchy::promote_one(Time now, net::RuleId id,
                                std::unordered_set<net::RuleId>& pinned) {
  // 1. Dependency closure: every software-only rule overlapping a
  //    closure member at >= priority must come along, or a TCAM hit on
  //    the promoted rule could mask it.
  std::vector<net::Rule> closure{entries_.at(id).rule};
  std::unordered_set<net::RuleId> in_closure{id};
  for (std::size_t i = 0; i < closure.size(); ++i) {
    const net::Rule member = closure[i];
    const bool fits = uncached_index_.visit(
        member.match, member.priority - 1, kMaxPriority,
        [&](const net::Rule& s) {
          if (!in_closure.insert(s.id).second) return true;
          closure.push_back(s);
          return static_cast<int>(closure.size()) <= config_.closure_limit;
        });
    if (!fits) {
      ++promotion_aborts_;
      obs_promotion_aborts_.inc();
      return 0;
    }
  }
  obs_closure_size_.record(closure.size());

  // 2. Capacity: evict (cascade-demote) until the closure fits. Victims
  //    whose cascade is oversized get pinned; a round with nothing left
  //    to evict aborts the promotion.
  std::unordered_set<net::RuleId> blocked = pinned;
  blocked.insert(in_closure.begin(), in_closure.end());
  const tcam::TcamTable& tier = asic_.slice(0);
  int guard = 4 * config_.closure_limit + 8;
  while (tier.capacity() - tier.occupancy() <
         static_cast<int>(closure.size())) {
    if (--guard < 0) {
      ++promotion_aborts_;
      obs_promotion_aborts_.inc();
      return 0;
    }
    const net::RuleId vid = policy_->victim(blocked);
    if (vid == net::kInvalidRuleId) {
      ++promotion_aborts_;
      obs_promotion_aborts_.inc();
      return 0;
    }
    auto vit = entries_.find(vid);
    if (vit == entries_.end() || !vit->second.cached) {
      // Stale policy state (should not happen); quarantine the id.
      blocked.insert(vid);
      continue;
    }
    std::vector<net::Rule> cascade = demotion_cascade(vit->second.rule);
    if (cascade.empty()) {  // cascade exceeded closure_limit: pin
      pinned.insert(vid);
      blocked.insert(vid);
      ++pins_;
      obs_pins_.inc();
      continue;
    }
    for (const net::Rule& c : cascade) demote(now, c);
    obs::trace_event(obs::cache_op_event(
        now, obs::kCacheDemote, static_cast<int>(cascade.size()), 0));
  }

  // 3. Install, highest priority first, arrival order within a priority
  //    level — the TCAM's place-below-equal-priority insert then
  //    reproduces the software engine's tie-break exactly.
  std::sort(closure.begin(), closure.end(),
            [this](const net::Rule& a, const net::Rule& b) {
              if (a.priority != b.priority) return a.priority > b.priority;
              return entries_.at(a.id).seq < entries_.at(b.id).seq;
            });
  tcam::Asic::BatchResult result;
  asic_.submit_batch_insert(now, 0, closure, &result);
  for (int i = 0; i < result.inserted; ++i) {
    const net::Rule& r = closure[static_cast<std::size_t>(i)];
    Entry& e = entries_.at(r.id);
    e.cached = true;
    ++cached_count_;
    uncached_index_.erase(r.id, r.match);
    cached_index_.insert(r);
    policy_->on_admit(r.id);
    ++promotions_;
    obs_promotions_.inc();
  }
  // A fault-truncated batch can leave closure members software-only. The
  // truncation is a prefix of a priority-sorted batch, so the only
  // possible invariant break is an equal-priority overlap straddling the
  // cut — repair it with the insert-path maintenance.
  for (std::size_t i = static_cast<std::size_t>(result.inserted);
       i < closure.size(); ++i)
    demote_conflicting(now, closure[i]);
  obs_software_resident_.set(software_resident());
  return result.inserted;
}

void CacheHierarchy::demote_conflicting(Time now, const net::Rule& rule) {
  // BFS from the software-only `rule`: any cached rule at <= priority
  // overlapping an affected rule must leave the TCAM (its hit would mask
  // the software rule), and each demotion can expose further conflicts.
  std::vector<net::Rule> frontier{rule};
  std::unordered_set<net::RuleId> seen{rule.id};
  std::vector<net::Rule> shadowed;
  while (!frontier.empty()) {
    const net::Rule u = frontier.back();
    frontier.pop_back();
    // Collect first: demoting mutates the index the visit walks.
    shadowed.clear();
    cached_index_.visit(u.match, kMinPriority, u.priority,
                        [&](const net::Rule& c) {
                          shadowed.push_back(c);
                          return true;
                        });
    for (const net::Rule& c : shadowed) {
      if (!seen.insert(c.id).second) continue;
      auto it = entries_.find(c.id);
      if (it == entries_.end() || !it->second.cached) continue;
      demote(now, c);
      frontier.push_back(c);
    }
  }
}

void CacheHierarchy::demote(Time now, const net::Rule& rule) {
  Entry& e = entries_.at(rule.id);
  assert(e.cached);
  e.cached = false;
  --cached_count_;
  cached_index_.erase(rule.id, rule.match);
  uncached_index_.insert(rule);
  net::FlowMod del{net::FlowModType::kDelete,
                   net::Rule{rule.id, 0, {}, {}}};
  asic_.submit(now, 0, del);
  policy_->on_evict(rule.id);
  ++demotions_;
  obs_demotions_.inc();
}

std::vector<net::Rule> CacheHierarchy::demotion_cascade(
    const net::Rule& victim) const {
  std::vector<net::Rule> cascade{victim};
  std::unordered_set<net::RuleId> seen{victim.id};
  for (std::size_t i = 0; i < cascade.size(); ++i) {
    const net::Rule member = cascade[i];
    const bool fits = cached_index_.visit(
        member.match, kMinPriority, member.priority,
        [&](const net::Rule& c) {
          if (!seen.insert(c.id).second) return true;
          cascade.push_back(c);
          return static_cast<int>(cascade.size()) <= config_.closure_limit;
        });
    if (!fits) return {};
  }
  return cascade;
}

// --- Data plane ---------------------------------------------------------------

CacheHierarchy::LookupResult CacheHierarchy::classify(
    Time now, net::Ipv4Address addr) {
  LookupResult res;
  if (config_.mode == Mode::kWriteBack) {
    const net::Rule* hw = asic_.lookup_ptr(now, addr);
    const net::Rule* sw = sw_engine_.lookup(addr);
    // Hardware wins priority ties (the TCAM answers before the slow
    // path) — the ShadowSwitch seam semantic.
    if (hw && sw) res.rule = hw->priority >= sw->priority ? hw : sw;
    else res.rule = hw != nullptr ? hw : sw;
    res.tcam_hit = res.rule != nullptr && res.rule == hw;
    res.latency = res.tcam_hit || res.rule == nullptr
                      ? 0
                      : config_.software_latency;
    if (!res.tcam_hit && res.rule != nullptr)
      obs_miss_latency_.record(static_cast<std::uint64_t>(res.latency));
    return res;
  }

  note_reset_if_any(now);
  const net::Rule* hw = asic_.lookup_ptr(now, addr);
  if (hw != nullptr) {
    // Invariant: no software-only rule at >= priority overlaps a cached
    // rule, so the TCAM answer is authoritative.
    res.rule = hw;
    res.tcam_hit = true;
    ++hits_;
    obs_hits_.inc();
    policy_->on_hit(hw->id);
  } else {
    const net::Rule* sw = sw_engine_.lookup(addr);
    res.rule = sw;
    res.latency = config_.software_latency;
    ++misses_;
    obs_misses_.inc();
    obs_miss_latency_.record(static_cast<std::uint64_t>(res.latency));
    if (sw != nullptr) {
      policy_->on_miss(sw->id);
      const Entry& e = entries_.at(sw->id);
      if (!e.cached && policy_->should_promote(sw->id))
        enqueue_promotion(sw->id);
    }
  }
  if (config_.verify_lookups) {
    const net::Rule* oracle = sw_engine_.lookup(addr);
    const net::RuleId got = res.rule ? res.rule->id : net::kInvalidRuleId;
    const net::RuleId want = oracle ? oracle->id : net::kInvalidRuleId;
    if (got != want) {
      ++dependency_violations_;
      obs_violations_.inc();
    }
  }
  return res;
}

const net::Rule* CacheHierarchy::lookup_ptr(Time now,
                                            net::Ipv4Address addr) {
  if (config_.mode == Mode::kCache) return classify(now, addr).rule;
  const net::Rule* hw = asic_.lookup_ptr(now, addr);
  const net::Rule* sw = sw_engine_.lookup(addr);
  if (hw && sw) return hw->priority >= sw->priority ? hw : sw;
  return hw != nullptr ? hw : sw;
}

// --- Invariant oracle ---------------------------------------------------------

bool CacheHierarchy::check_invariant() const {
  if (config_.mode == Mode::kWriteBack) return true;
  int cached_seen = 0;
  for (const auto& [id, entry] : entries_) {
    if (!entry.cached) continue;
    ++cached_seen;
    if (!asic_.slice(0).contains(id)) return false;
    // No software-only rule at >= priority may overlap a cached rule.
    if (!uncached_index_.visit(
            entry.rule.match, entry.rule.priority - 1, kMaxPriority,
            [id = id](const net::Rule& s) { return s.id == id; }))
      return false;
  }
  if (cached_seen != cached_count_) return false;
  if (cached_count_ != asic_.slice(0).occupancy()) return false;
  if (cached_index_.size() != static_cast<std::size_t>(cached_count_))
    return false;
  if (uncached_index_.size() !=
      entries_.size() - static_cast<std::size_t>(cached_count_))
    return false;
  return sw_engine_.check_invariant();
}

}  // namespace hermes::cache
