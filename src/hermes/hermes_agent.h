// The Hermes switch agent (Section 3).
//
// HermesAgent sits between the OpenFlow agent and the ASIC driver. It
// carves the switch TCAM into a small shadow slice (slice 0, highest
// lookup precedence) and a large main slice (slice 1), routes control
// plane actions through the Gate Keeper, keeps the two tables jointly
// equivalent to one monolithic table (Section 4: Algorithm 1
// partitioning, un-partitioning on delete), and periodically migrates
// rules shadow -> main under a predictive trigger (Section 5, the Rule
// Manager; its implementation lives in rule_manager.cpp).
//
// Timing model: all control-plane actions are simulated; each call takes
// a simulated `now` and returns the action's completion time. Table state
// mutates immediately; latency only affects the returned timestamps (and
// per-slice control-channel serialization inside tcam::Asic).
//
// Threading: single-threaded, not reentrant.
#pragma once

#include <memory>
#include <vector>

#include "hermes/config.h"
#include "hermes/gate_keeper.h"
#include "hermes/migration_policy.h"
#include "hermes/overlap_index.h"
#include "hermes/partition.h"
#include "hermes/predictor.h"
#include "hermes/rule_store.h"
#include "net/flow_mod_batch.h"
#include "net/rule.h"
#include "net/time.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tcam/asic.h"

namespace hermes::core {

/// Per-agent operation totals: the agent's own counters, updated in place
/// as operations run (stats() returns a reference to them).
struct AgentStats {
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t modifies = 0;
  std::uint64_t failed_ops = 0;

  std::uint64_t guaranteed_inserts = 0;   ///< took the shadow path
  std::uint64_t main_inserts = 0;         ///< any main-table fallback
  std::uint64_t redundant_inserts = 0;    ///< Figure 5 (a): dropped
  std::uint64_t partition_pieces = 0;     ///< total pieces created
  std::uint64_t repartitions = 0;         ///< shadow rules re-cut by a main insert
  std::uint64_t unpartitions = 0;         ///< Figure 6 restorations

  std::uint64_t migrations = 0;           ///< Rule Manager runs
  std::uint64_t rules_migrated = 0;       ///< logical rules moved
  std::uint64_t pieces_migrated = 0;      ///< physical entries written to main
  std::uint64_t pieces_saved_by_merge = 0;///< optimizer savings (step 2),
                                          ///< counted only for rules that
                                          ///< actually migrated
  std::uint64_t migration_piece_failures = 0;  ///< pieces the ASIC rejected
                                               ///< mid-migration batch
  std::uint64_t migration_rollbacks = 0;  ///< already-written sibling pieces
                                          ///< deleted back out of main after
                                          ///< a partial-batch failure

  std::uint64_t violations = 0;           ///< guarantee missed
  Duration worst_guaranteed_latency = 0;

  // Fault recovery (all zero without an attached fault plan).
  std::uint64_t retries = 0;              ///< failed writes re-submitted
  std::uint64_t migration_requeues = 0;   ///< migration runs re-queued
  std::uint64_t reconcile_runs = 0;       ///< post-reset reconciliations
  std::uint64_t reconcile_rules_reinstalled = 0;
  std::uint64_t reconcile_pieces_reinstalled = 0;
  std::uint64_t reconcile_rules_lost = 0; ///< dropped after retry exhaustion
};

class HermesAgent {
 public:
  /// Creates an agent managing a switch whose TCAM holds
  /// `total_tcam_capacity` entries. The shadow slice size comes from
  /// `config.shadow_capacity`, or is derived from `config.guarantee` by
  /// inverting the latency model.
  HermesAgent(const tcam::SwitchModel& model, int total_tcam_capacity,
              HermesConfig config);

  // --- Control plane entry points (return completion time) ---------------
  Time insert(Time now, const net::Rule& rule);
  Time erase(Time now, net::RuleId logical_id);
  Time modify(Time now, const net::Rule& rule);
  Time handle(Time now, const net::FlowMod& mod);

  /// Applies a whole flow-mod transaction. Maximal runs of fresh inserts
  /// are admitted under ONE Gate Keeper batch decision, partitioned
  /// against one main-table snapshot, and written to the shadow slice as
  /// a single optimized ASIC batch (fallbacks route to main afterwards,
  /// in batch order); deletes, modifies, and inserts with modify
  /// semantics apply per-op in batch order. Fills each mod's result slot
  /// and returns the install barrier (max completion). A one-mod run
  /// takes the per-op path, so singleton batches are bit-identical to
  /// handle().
  Time handle_batch(Time now, net::FlowModBatch& batch);

  /// Advances the Rule Manager clock: closes prediction epochs that ended
  /// at or before `now` and runs migration when the trigger fires.
  /// Call with non-decreasing `now` (typically once per simulated epoch).
  void tick(Time now);

  /// Forces a migration immediately (used by tests and ablations).
  Time migrate_now(Time now);

  /// The migration policy steering tick()'s epoch decisions (the seam
  /// sibling of the predictor; resolved from config at construction).
  const MigrationPolicy& migration_policy() const { return *policy_; }

  // --- Data plane ---------------------------------------------------------
  /// The data-plane read at `now`: applies any scheduled reset that fired
  /// at-or-before `now`, then matches shadow before main (the data plane
  /// observes a wipe immediately). Returns nullptr on a miss; the pointer
  /// is invalidated by any subsequent control-plane activity.
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) {
    return asic_.lookup_ptr(now, addr);
  }

  // --- Introspection --------------------------------------------------------
  Duration guarantee() const { return config_.guarantee; }
  int shadow_capacity() const;
  int main_capacity() const;
  int shadow_occupancy() const;
  int main_occupancy() const;

  /// Fraction of the TCAM spent on the shadow slice (Fig 14's overhead).
  double tcam_overhead() const;

  /// Max guaranteed insertion rate, Equation 2.
  double admitted_rate() const { return admitted_rate_; }

  /// Live totals (take a copy if you need a frozen reading).
  const AgentStats& stats() const { return stats_; }
  const GateKeeper& gate_keeper() const { return *gate_keeper_; }
  const RuleStore& store() const { return store_; }
  tcam::Asic& asic() { return asic_; }
  const tcam::Asic& asic() const { return asic_; }

  /// Rule-installation-time samples (one per controller-visible insert):
  /// completion minus arrival, i.e. including control-channel queueing.
  const std::vector<Duration>& rit_samples() const { return rit_samples_; }
  void clear_rit_samples() {
    rit_samples_.clear();
    op_latency_samples_.clear();
  }

  /// Pure per-operation TCAM latency per insert (sum of the hardware
  /// latencies of its pieces, excluding queueing) — what latency-model
  /// driven simulators like the paper's report.
  const std::vector<Duration>& op_latency_samples() const {
    return op_latency_samples_;
  }

  // --- Sizing helpers (shared with the QoS API, Section 7) ----------------
  /// Shadow capacity delivering `guarantee` on `model` (latency-model
  /// inversion): inserting into a shadow table with at most S-1 resident
  /// entries shifts at most S-1 of them.
  static int derive_shadow_capacity(const tcam::SwitchModel& model,
                                    Duration guarantee);

  /// Equation 2: lambda = S_ST / (r_p * t_m), with t_m the estimated time
  /// to drain a full shadow table into the main table (per Section 5.2).
  static double derive_admitted_rate(const tcam::SwitchModel& model,
                                     int shadow_capacity,
                                     double expected_partitions,
                                     int typical_main_occupancy);

  // --- Write retry policy (active only when the Asic has a fault plan) -----
  /// Max re-submissions of a failed write before giving up on the slice.
  static constexpr int kInsertRetryLimit = 3;
  /// The first retry waits this long after the failure completes; each
  /// later retry doubles the wait, capped at kInsertRetryBackoffCap.
  static constexpr Duration kInsertRetryBackoff = from_micros(100);
  static constexpr Duration kInsertRetryBackoffCap = from_millis(10);

 private:
  // Slice indices within the carved ASIC.
  static constexpr int kShadow = 0;
  static constexpr int kMain = 1;

  // --- The insert planner (hermes_agent.cpp) ------------------------------
  /// Algorithm 1 for one rule against the main table, plus its half of the
  /// mapping set M. Every path that binds a rule for the shadow plans
  /// through plan_insert(): insert(), flush_insert_run(), run_migration(),
  /// reconcile() and repartition_logical().
  struct InsertPlan {
    PartitionResult partition;
    bool cut = false;  ///< the pieces differ from the rule's own match
    /// Logical ids of the main rules that cut (or covered) the rule.
    std::vector<net::RuleId> blockers;
  };
  InsertPlan plan_insert(const net::Rule& rule) const;
  /// The plan's physical pieces. With `keep_uncut_id` (fresh and
  /// reconciled shadow rules) an uncut rule keeps the controller's id;
  /// otherwise (migration, un-partitioning) every piece gets a fresh id.
  /// A redundant plan yields no pieces.
  std::vector<net::Rule> mint_pieces(const net::Rule& rule,
                                     const InsertPlan& plan,
                                     bool keep_uncut_id);

  // --- Gate Keeper path, shared by insert() and flush_insert_run() ---------
  RouteContext route_context() const;
  enum class ShadowFit { kRedundant, kOverflow, kFits };
  /// kRedundant: the rule is recorded software-only (Figure 5 (a)) and is
  /// done. kOverflow: its pieces need more than `shadow_free` slots; the
  /// violation is counted and the caller falls back to main. kFits: the
  /// caller mints and writes the pieces.
  ShadowFit fit_shadow(const net::Rule& rule, InsertPlan& plan,
                       int shadow_free);
  /// Records a guaranteed insert whose shadow pieces all landed.
  void commit_shadow(Time now, const net::Rule& rule,
                     std::vector<net::RuleId> piece_ids, InsertPlan plan);
  /// A rule's shadow write ran out of retries at `at`: deletes its
  /// `landed` sibling pieces and counts the missed guarantee. Returns when
  /// the main-table fallback may start.
  Time rollback_exhausted(Time at, const std::vector<net::RuleId>& landed);
  Time insert_guaranteed(Time now, const net::Rule& rule, InsertPlan plan);
  /// Applies one maximal run of fresh inserts from `batch` (indices in
  /// `run`, batch order) through the batched guaranteed path.
  Time flush_insert_run(Time now, net::FlowModBatch& batch,
                        const std::vector<std::size_t>& run);
  /// `arrival` (when >= 0) is the controller-visible arrival time the RIT
  /// sample is judged against — the retry path lands rules in main well
  /// after the original submission instant.
  Time insert_to_main(Time now, const net::Rule& rule, bool count_violation,
                      Time arrival = -1);

  // --- Fault recovery (active only when the Asic has a fault plan) ---------
  /// One insert pushed through capped exponential backoff. Without a
  /// fault plan this is exactly one submit — bit-identical to the
  /// fault-free path.
  struct RetriedInsert {
    tcam::ApplyResult last;      ///< outcome of the final attempt
    Duration total_latency = 0;  ///< channel occupation across attempts
    Time completion = 0;
  };
  RetriedInsert submit_insert_with_retry(Time now, int slice,
                                         const net::Rule& rule);
  /// The batch form: `rules` written as one optimized batch, the
  /// un-landed suffix of a truncated batch re-submitted with the same
  /// capped backoff. Without a fault plan this is exactly one batch write;
  /// an empty batch writes nothing and completes at `now`.
  struct LandedBatch {
    std::size_t landed = 0;           ///< rules landed (a prefix)
    Time completion = 0;              ///< when the last attempt completed
    std::vector<Duration> latencies;  ///< channel occupation per attempt
  };
  LandedBatch land_batch(Time now, int slice,
                         const std::vector<net::Rule>& rules);
  void note_retry(Time at, int slice, int attempt);

  /// Applies pending scheduled resets and, if the ASIC rebooted since we
  /// last looked, runs a reconciliation pass (rule_manager.cpp).
  void maybe_reconcile(Time now);
  Time reconcile(Time now);

  /// A higher-priority rule landed in main: cut any overlapping
  /// lower-priority shadow-resident rules against it (the symmetric form
  /// of the Figure 4 violation).
  void repartition_shadow_overlaps(Time now, const net::Rule& main_rule);

  /// Re-derives a logical rule's partitions against the current main
  /// index and swaps its physical pieces in `placement` (insert new, then
  /// delete old: per-packet consistency).
  void repartition_logical(Time now, net::RuleId logical_id);

  // --- Physical table mutation (keeps indices + priority set in sync) -----
  Time submit_shadow_insert(Time now, const net::Rule& rule,
                            tcam::ApplyResult* result = nullptr);
  Time submit_shadow_delete(Time now, net::RuleId id,
                            const net::Prefix& match);
  Time submit_main_insert(Time now, const net::Rule& rule,
                          tcam::ApplyResult* result = nullptr);
  Time submit_main_delete(Time now, net::RuleId id, const net::Prefix& match);

  int main_min_priority() const;
  void record_rit(Duration sojourn, Duration op_latency) {
    rit_samples_.push_back(sojourn);
    op_latency_samples_.push_back(op_latency);
    epoch_rit_sum_ += sojourn;
    ++epoch_rit_count_;
    obs_rit_.record(static_cast<std::uint64_t>(sojourn));
    obs_op_latency_.record(static_cast<std::uint64_t>(op_latency));
  }
  void note_guaranteed_latency(Duration latency);

  // --- Rule Manager (rule_manager.cpp) -------------------------------------
  void close_epoch();
  /// The legacy fixed trigger, kept verbatim as the reference
  /// implementation the seam's default policy is property-tested
  /// against (ThresholdMigrationPolicy::decide must agree with it on
  /// every consulted epoch).
  bool migration_due() const;
  /// Snapshot handed to the policy's decide() call.
  PolicyState policy_state(Time now) const;
  /// Executes one policy decision (counts it, traces it, and runs the
  /// matching migration / re-carve).
  void apply_policy_action(MigrationAction action, Time now);
  /// Drains the shadow into main; `max_rules` >= 0 caps how many logical
  /// rules move (highest priority first) — the migrate-small action.
  /// Negative (the default, and the legacy trigger's behavior) drains
  /// everything.
  Time run_migration(Time now, int max_rules = -1);
  void unpartition_dependents(Time now, net::RuleId blocker_logical_id);

  // White-box seam for regression tests that need to stage table states
  // unreachable through the public API (e.g. stale partition bookkeeping).
  friend struct AgentTestPeer;

  HermesConfig config_;
  tcam::Asic asic_;
  std::unique_ptr<GateKeeper> gate_keeper_;
  std::unique_ptr<GrowthEstimator> estimator_;
  std::shared_ptr<MigrationPolicy> policy_;
  RuleStore store_;
  OverlapIndex main_index_;
  OverlapIndex shadow_index_;

  double admitted_rate_ = 0.0;
  net::RuleId piece_id_counter_;
  Time epoch_start_ = 0;
  double arrivals_this_epoch_ = 0;

  // Policy-seam epoch accounting (rolled by close_epoch): the reward
  // signal for learning policies and the fault-rate input of
  // PolicyState. All deterministic in the replayed op sequence.
  Duration epoch_rit_sum_ = 0;
  std::uint64_t epoch_rit_count_ = 0;
  std::uint64_t epoch_violation_mark_ = 0;
  std::uint64_t retries_this_epoch_ = 0;
  double fault_rate_ewma_ = 0;
  PolicyFeedback last_epoch_feedback_;

  // Expand-partition bounds: the shadow slice may grow (via
  // Asic::transfer_capacity) to at most twice its carved size, in
  // expand_step_ increments.
  int initial_shadow_capacity_ = 0;
  int expand_step_ = 0;

  // Fault recovery state: a partially-failed migration re-queues itself
  // with capped exponential backoff instead of waiting for the next
  // trigger; reconciliation watches the ASIC's reset epoch.
  Time migration_retry_at_ = -1;
  Duration migration_retry_backoff_ = 0;
  int seen_reset_epoch_ = 0;

  AgentStats stats_;
  std::vector<Duration> rit_samples_;
  std::vector<Duration> op_latency_samples_;

  // Process-attached aggregates across all agents (detached no-op handles
  // when none is attached); stats_ above holds this agent's own totals.
  obs::Histogram obs_rit_ = obs::attached_histogram("agent.rit_ns");
  obs::Histogram obs_op_latency_ =
      obs::attached_histogram("agent.op_latency_ns");
  obs::Histogram obs_migration_rules_ =
      obs::attached_histogram("migration.batch_rules");
  obs::Histogram obs_migration_pieces_ =
      obs::attached_histogram("migration.batch_pieces");
  obs::Histogram obs_shadow_batch_pieces_ =
      obs::attached_histogram("agent.shadow_batch_pieces");

  obs::Counter obs_retries_ = obs::attached_counter("agent.retries");
  obs::Counter obs_requeues_ =
      obs::attached_counter("agent.migration_requeues");
  obs::Counter obs_reconcile_runs_ = obs::attached_counter("reconcile.runs");
  obs::Counter obs_reconcile_rules_ =
      obs::attached_counter("reconcile.rules_reinstalled");
  obs::Counter obs_reconcile_pieces_ =
      obs::attached_counter("reconcile.pieces_reinstalled");
  obs::Counter obs_reconcile_lost_ =
      obs::attached_counter("reconcile.rules_lost");

  // Migration-policy decisions (the seam's own accounting, one decision
  // per consulted epoch; see docs/METRICS.md "policy.*").
  obs::Counter obs_policy_decisions_ =
      obs::attached_counter("policy.decisions");
  obs::Counter obs_policy_holds_ = obs::attached_counter("policy.holds");
  obs::Counter obs_policy_migrate_small_ =
      obs::attached_counter("policy.migrate_small");
  obs::Counter obs_policy_migrate_large_ =
      obs::attached_counter("policy.migrate_large");
  obs::Counter obs_policy_expands_ = obs::attached_counter("policy.expands");
  obs::Gauge obs_policy_shadow_capacity_ =
      obs::attached_gauge("policy.shadow_capacity");
};

}  // namespace hermes::core
