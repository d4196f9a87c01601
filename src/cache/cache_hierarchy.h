// The rule-cache hierarchy: a bounded TCAM tier layered over an
// unbounded software tier (FDRC, see PAPERS.md: flow-driven rule caching
// treats the TCAM as a cache over the full logical table). The software
// tier is INCLUSIVE (it always holds every rule), the TCAM holds a
// popularity-chosen subset, and a pluggable EvictionPolicy decides
// admission and eviction from per-rule hit counters fed by the
// data-plane lookup path.
//
// Correctness invariant (the "dependency closure" rule): for every
// TCAM-resident rule C there is NO software-only rule S != C with
// S.priority >= C.priority whose match overlaps C's. Under it a TCAM hit
// is authoritative — no higher-or-equal-priority match can be hiding in
// software — and a TCAM miss falls back to the full software table,
// which answers exactly like a monolithic table. (>= not >, so that
// equal-priority overlapping rules are always co-resident and the
// TCAM's arrival-order tie-break matches the software engine's.) The
// invariant is maintained by:
//
//   * promotion closures — promoting R co-promotes every software-only
//     rule that overlaps it at >= priority, transitively (bounded by
//     `kClosureLimit`; oversized closures abort the promotion);
//   * demotion cascades — demoting V also demotes every cached rule V
//     would shadow from software (priority <= V's, overlapping),
//     transitively; a victim whose cascade exceeds `kClosureLimit` is
//     pinned and another victim is chosen;
//   * insert-path maintenance — a new software rule demotes any cached
//     rule it would shadow.
//
// Residency is the TCAM tier's own: a rule is cached iff the tier holds
// its id, and the cached count is the tier's occupancy. The hierarchy
// keeps the two overlap indexes below, one per residency class, and no
// flag or count of its own. A reset wipes the tier without a trace, so
// the index of cached rules is what says which rules to move back.
//
// `verify_lookups` turns every lookup into a differential oracle (the
// answer is compared against the full software engine; mismatches count
// as cache.dependency_violations) — the bench and the fuzz tests run
// with it on and gate on the counter being identically zero.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/eviction_policy.h"
#include "hermes/overlap_index.h"
#include "net/rule.h"
#include "net/time.h"
#include "obs/metrics.h"
#include "tcam/asic.h"
#include "tcam/lookup_engine.h"

namespace hermes::cache {

/// One value: the benchmark's flow_cache workload still assigns it.
enum class Mode : std::uint8_t { kCache };

struct CacheConfig {
  Mode mode = Mode::kCache;
  PolicyKind policy = PolicyKind::kFdrc;
  /// Differential oracle on every lookup (counts mismatches as
  /// cache.dependency_violations). Costs one extra software lookup per
  /// TCAM hit; meant for tests and the gated bench.
  bool verify_lookups = false;
};

class CacheHierarchy {
 public:
  /// Control-plane cost of accepting a rule into the software tier.
  static constexpr Duration kSoftwareInsert = from_micros(30);
  /// Data-plane penalty of a software-tier (miss-path) match — the slow
  /// path the sim charges when the TCAM does not answer.
  static constexpr Duration kSoftwareLatency = from_micros(20);
  /// Promotion closures / demotion cascades larger than this abort
  /// (closure) or pin (cascade) instead of churning the TCAM.
  static constexpr int kClosureLimit = 16;

  CacheHierarchy(const tcam::SwitchModel& model, int tcam_capacity,
                 CacheConfig config = {});

  // --- Control plane (returns completion time) -----------------------------
  Time handle(Time now, const net::FlowMod& mod);
  /// Runs a promotion round (and reconciles after an ASIC reset).
  void tick(Time now);

  // --- Data plane ----------------------------------------------------------
  struct LookupResult {
    const net::Rule* rule = nullptr;  ///< winner, or nullptr on no match
    bool tcam_hit = false;            ///< answered by the TCAM tier
    Duration latency = 0;             ///< modeled data-plane penalty
  };
  /// Full classification with miss-path latency modeling and policy
  /// feedback. The pointer is invalidated by the next mutation.
  LookupResult classify(Time now, net::Ipv4Address addr);

  /// The data-plane read at `now` (applies pending ASIC resets):
  /// classify(now, addr).rule, with its hit/miss accounting and policy
  /// feedback.
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) {
    return classify(now, addr).rule;
  }

  // --- Introspection -------------------------------------------------------
  /// Rules resident ONLY in the software tier (slow data path).
  int software_resident() const;
  int tcam_occupancy() const { return asic_.slice(0).occupancy(); }
  int tcam_capacity() const { return asic_.slice(0).capacity(); }
  std::size_t total_rules() const { return entries_.size(); }
  tcam::Asic& asic() { return asic_; }
  const tcam::TableStats& table_stats() const {
    return asic_.slice(0).stats();
  }
  void set_fault_plan(fault::FaultPlan* plan) {
    asic_.set_fault_plan(plan);
  }
  const CacheConfig& config() const { return config_; }

  // Cumulative totals (mirrored into cache.* obs metrics when a registry
  // is attached; plain members so tests and the bench read them cheaply).
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t promotions() const { return promotions_; }
  std::uint64_t demotions() const { return demotions_; }
  std::uint64_t promotion_aborts() const { return promotion_aborts_; }
  std::uint64_t pins() const { return pins_; }
  std::uint64_t dependency_violations() const {
    return dependency_violations_;
  }

  /// Invariant oracle for tests: every cached rule has no
  /// software-only overlapping rule at >= priority, every TCAM entry is
  /// a known rule, and each overlap index holds exactly its residency
  /// class.
  bool check_invariant() const;

 private:
  struct Entry {
    net::Rule rule;
    std::uint64_t seq = 0;  ///< arrival stamp (tie-break order)
  };
  using Key = core::OverlapIndex::Key;
  static Key key_of(const net::Rule& r) { return {r.id, r.priority, r.match}; }
  /// TCAM-resident (the tier is the record).
  bool cached(net::RuleId id) const { return asic_.slice(0).contains(id); }

  bool software_erase(net::RuleId id);
  void software_install(const net::Rule& rule);

  Time cache_insert(Time now, const net::Rule& rule);
  Time cache_erase(Time now, net::RuleId id);
  void note_reset_if_any(Time now);
  void enqueue_promotion(net::RuleId id);
  void promote_round(Time now);
  /// Promotes `id` with its closure; returns rules installed (0 = abort).
  int promote_one(Time now, net::RuleId id,
                  std::unordered_set<net::RuleId>& pinned);
  /// Demotes every cached rule the (software-only) `rule` would shadow.
  void demote_conflicting(Time now, const net::Rule& rule);
  /// Demotes one cached rule (TCAM delete + bookkeeping). The caller
  /// guarantees the cascade is handled.
  void demote(Time now, net::RuleId id);
  /// Cached rules that must leave with `victim` (victim included),
  /// transitively; empty when the cascade exceeds `kClosureLimit`.
  std::vector<Key> demotion_cascade(const Key& victim) const;

  CacheConfig config_;
  tcam::Asic asic_;
  std::unique_ptr<EvictionPolicy> policy_;

  std::unordered_map<net::RuleId, Entry> entries_;
  tcam::LookupEngine sw_engine_;
  std::uint64_t seq_ = 0;

  /// Overlap tries over the two residency classes. The uncached
  /// index answers promotion-closure queries ("which software-only rules
  /// overlap R at >= priority?"), the cached index demotion cascades and
  /// insert-path maintenance. They hand out keys; a rule's action is read
  /// from `entries_`.
  core::OverlapIndex uncached_index_;
  core::OverlapIndex cached_index_;

  std::deque<net::RuleId> promo_queue_;
  std::unordered_set<net::RuleId> in_queue_;

  int seen_reset_epoch_ = 0;

  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t promotions_ = 0;
  std::uint64_t demotions_ = 0;
  std::uint64_t promotion_aborts_ = 0;
  std::uint64_t pins_ = 0;
  std::uint64_t dependency_violations_ = 0;

  obs::Counter obs_hits_ = obs::attached_counter("cache.hits");
  obs::Counter obs_misses_ = obs::attached_counter("cache.misses");
  obs::Counter obs_promotions_ = obs::attached_counter("cache.promotions");
  obs::Counter obs_demotions_ = obs::attached_counter("cache.demotions");
  obs::Counter obs_promotion_aborts_ =
      obs::attached_counter("cache.promotion_aborts");
  obs::Counter obs_pins_ = obs::attached_counter("cache.pins");
  obs::Counter obs_violations_ =
      obs::attached_counter("cache.dependency_violations");
  obs::Gauge obs_software_resident_ =
      obs::attached_gauge("cache.software_resident");
  obs::Histogram obs_miss_latency_ =
      obs::attached_histogram("cache.miss_latency_ns");
  obs::Histogram obs_batch_rules_ =
      obs::attached_histogram("cache.promotion_batch_rules");
  obs::Histogram obs_closure_size_ =
      obs::attached_histogram("cache.closure_size");
};

}  // namespace hermes::cache
