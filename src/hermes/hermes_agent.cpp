#include "hermes/hermes_agent.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <unordered_set>

namespace hermes::core {

namespace {

// Physical piece ids live in their own namespace so they can never
// collide with controller-chosen logical ids (which we require < 2^32).
constexpr net::RuleId kPieceIdBase = net::RuleId{1} << 32;

// Expected partitions per rule, r_p in Equation 2, when the admitted
// rate is derived rather than configured.
constexpr double kExpectedPartitions = 1.5;

}  // namespace

HermesAgent::HermesAgent(const tcam::SwitchModel& model,
                         int total_tcam_capacity, HermesConfig config)
    : config_(std::move(config)),
      asic_(model,
            [&] {
              int shadow = config_.shadow_capacity > 0
                               ? config_.shadow_capacity
                               : derive_shadow_capacity(model,
                                                        config_.guarantee);
              shadow = std::clamp(shadow, 1, total_tcam_capacity / 2);
              return std::vector<int>{shadow, total_tcam_capacity - shadow};
            }()),
      piece_id_counter_(kPieceIdBase) {
  int shadow = asic_.slice(kShadow).capacity();
  double rate = config_.token_rate > 0
                    ? config_.token_rate
                    : derive_admitted_rate(model, shadow, kExpectedPartitions,
                                           asic_.slice(kMain).capacity() / 2);
  double burst =
      config_.token_burst > 0 ? config_.token_burst : static_cast<double>(shadow);
  admitted_rate_ = rate;
  gate_keeper_ = std::make_unique<GateKeeper>(config_, rate, burst);

  auto predictor = make_predictor(config_.predictor);
  if (!predictor)
    throw std::invalid_argument("unknown predictor: " + config_.predictor);
  auto corrector = make_corrector(config_.corrector, config_.corrector_param);
  if (!corrector)
    throw std::invalid_argument("unknown corrector: " + config_.corrector);
  estimator_ = std::make_unique<GrowthEstimator>(std::move(predictor),
                                                 std::move(corrector));

  policy_ = make_migration_policy(config_);
  initial_shadow_capacity_ = shadow;
  expand_step_ = std::max(1, shadow / 8);
}

int HermesAgent::derive_shadow_capacity(const tcam::SwitchModel& model,
                                        Duration guarantee) {
  // Inserting into a shadow table holding at most S-1 entries shifts at
  // most S-1 of them, so pick the largest S with insert_latency(S-1) <=
  // guarantee.
  return model.max_shifts_within(guarantee) + 1;
}

double HermesAgent::derive_admitted_rate(const tcam::SwitchModel& model,
                                         int shadow_capacity,
                                         double expected_partitions,
                                         int typical_main_occupancy) {
  // Equation 2: lambda = S_ST / (r_p * t_m), with t_m the time to drain a
  // full shadow table into the main table. Draining uses the optimized
  // batch write (Section 5.2, step 2), so t_m is one batch latency.
  double t_m = to_seconds(model.batch_insert_latency(typical_main_occupancy,
                                                     shadow_capacity));
  if (t_m <= 0) return 0;
  return static_cast<double>(shadow_capacity) /
         (expected_partitions * t_m);
}

int HermesAgent::shadow_capacity() const {
  return asic_.slice(kShadow).capacity();
}
int HermesAgent::main_capacity() const {
  return asic_.slice(kMain).capacity();
}
int HermesAgent::shadow_occupancy() const {
  return asic_.slice(kShadow).occupancy();
}
int HermesAgent::main_occupancy() const {
  return asic_.slice(kMain).occupancy();
}

double HermesAgent::tcam_overhead() const {
  return static_cast<double>(shadow_capacity()) /
         static_cast<double>(asic_.total_capacity());
}

int HermesAgent::main_min_priority() const {
  // The main table keeps its entries priority-sorted, so the bound is an
  // O(1) read off the bottom slot (0 when empty, as before).
  return asic_.slice(kMain).min_priority();
}

void HermesAgent::note_guaranteed_latency(Duration latency) {
  stats_.worst_guaranteed_latency =
      std::max(stats_.worst_guaranteed_latency, latency);
  if (latency > config_.guarantee) ++stats_.violations;
}

// --- Fault recovery -----------------------------------------------------------

void HermesAgent::note_retry(Time at, int slice, int attempt) {
  ++stats_.retries;
  obs_retries_.inc();
  ++retries_this_epoch_;
  obs::trace_event(obs::retry_event(at, slice, attempt));
}

HermesAgent::RetriedInsert HermesAgent::submit_insert_with_retry(
    Time now, int slice, const net::Rule& rule) {
  auto submit = [&](Time at, tcam::ApplyResult* result) {
    return slice == kShadow ? submit_shadow_insert(at, rule, result)
                            : submit_main_insert(at, rule, result);
  };
  RetriedInsert r;
  r.completion = submit(now, &r.last);
  r.total_latency = r.last.latency;
  if (r.last.ok || asic_.fault_plan() == nullptr) return r;
  Duration backoff = kInsertRetryBackoff;
  for (int attempt = 1; attempt <= kInsertRetryLimit && !r.last.ok; ++attempt) {
    Time at = r.completion + backoff;
    note_retry(at, slice, attempt);
    r.completion = submit(at, &r.last);
    r.total_latency += r.last.latency;
    backoff = std::min(backoff * 2, kInsertRetryBackoffCap);
  }
  return r;
}

HermesAgent::LandedBatch HermesAgent::land_batch(
    Time now, int slice, const std::vector<net::Rule>& rules) {
  LandedBatch out;
  out.completion = now;
  if (rules.empty()) return out;
  tcam::Asic::BatchResult result;
  out.completion = asic_.submit_batch_insert(now, slice, rules, &result);
  out.latencies.push_back(result.latency);
  out.landed = static_cast<std::size_t>(result.inserted);
  if (asic_.fault_plan() == nullptr) return out;
  // Prefix semantics hold across attempts: each retry resubmits exactly
  // the un-landed suffix.
  Duration backoff = kInsertRetryBackoff;
  for (int attempt = 1;
       attempt <= kInsertRetryLimit && out.landed < rules.size(); ++attempt) {
    Time at = out.completion + backoff;
    note_retry(at, slice, attempt);
    std::vector<net::Rule> rest(
        rules.begin() + static_cast<std::ptrdiff_t>(out.landed), rules.end());
    out.completion = asic_.submit_batch_insert(at, slice, rest, &result);
    out.latencies.push_back(result.latency);
    out.landed += static_cast<std::size_t>(result.inserted);
    backoff = std::min(backoff * 2, kInsertRetryBackoffCap);
  }
  return out;
}

// --- The insert planner -----------------------------------------------------

HermesAgent::InsertPlan HermesAgent::plan_insert(const net::Rule& rule) const {
  InsertPlan plan;
  plan.partition = partition_new_rule(rule, main_index_);
  plan.cut = !(plan.partition.pieces.size() == 1 &&
               plan.partition.pieces[0] == rule.match);
  for (net::RuleId pid : plan.partition.cut_against)
    if (auto lid = store_.logical_of(pid)) plan.blockers.push_back(*lid);
  return plan;
}

std::vector<net::Rule> HermesAgent::mint_pieces(const net::Rule& rule,
                                                const InsertPlan& plan,
                                                bool keep_uncut_id) {
  if (keep_uncut_id && !plan.cut) return {rule};
  std::vector<net::Rule> pieces =
      materialize_partitions(rule, plan.partition, piece_id_counter_);
  piece_id_counter_ += pieces.size();
  return pieces;
}

// --- Control plane entry points ---------------------------------------------

Time HermesAgent::handle(Time now, const net::FlowMod& mod) {
  switch (mod.type) {
    case net::FlowModType::kInsert:
      return insert(now, mod.rule);
    case net::FlowModType::kDelete:
      return erase(now, mod.rule.id);
    case net::FlowModType::kModify:
      return modify(now, mod.rule);
  }
  return now;
}

Time HermesAgent::handle_batch(Time now, net::FlowModBatch& batch) {
  Time barrier = now;
  std::vector<std::size_t> run;
  std::unordered_set<net::RuleId> run_ids;
  auto flush = [&] {
    if (run.empty()) return;
    barrier = std::max(barrier, flush_insert_run(now, batch, run));
    run.clear();
    run_ids.clear();
  };
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const net::FlowMod& mod = batch.mod(i);
    if (mod.type == net::FlowModType::kInsert &&
        !store_.contains(mod.rule.id) && run_ids.count(mod.rule.id) == 0) {
      run.push_back(i);
      run_ids.insert(mod.rule.id);
      continue;
    }
    // A delete/modify — or an insert with modify semantics — breaks the
    // run: flush buffered inserts first so batch order is preserved, then
    // apply this mod per-op.
    flush();
    bool existed = store_.contains(mod.rule.id);
    Time done = handle(now, mod);
    bool ok = mod.type == net::FlowModType::kInsert
                  ? store_.contains(mod.rule.id)
                  : existed;
    batch.complete(i, done, ok);
    barrier = std::max(barrier, done);
  }
  flush();
  return barrier;
}

Time HermesAgent::flush_insert_run(Time now, net::FlowModBatch& batch,
                                   const std::vector<std::size_t>& run) {
  if (run.size() == 1) {
    // Common case (and the fig01/fig09 workloads): identical to the
    // per-op entry point.
    std::size_t i = run.front();
    Time done = insert(now, batch.mod(i).rule);
    batch.complete(i, done, store_.contains(batch.mod(i).rule.id));
    return done;
  }

  std::vector<net::Rule> rules;
  rules.reserve(run.size());
  for (std::size_t i : run) {
    const net::Rule& rule = batch.mod(i).rule;
    assert(rule.id < kPieceIdBase && "logical rule ids must be < 2^32");
    rules.push_back(rule);
    ++stats_.inserts;
  }
  RouteContext ctx = route_context();
  std::vector<Route> routes =
      gate_keeper_->route_insert_batch(now, rules, ctx);

  // Plan every admitted rule against ONE main-table snapshot: main-table
  // fallbacks are deferred until after the shadow batch, so main_index_
  // does not move under the planner.
  struct Planned {
    std::size_t run_pos = 0;      ///< index into run/rules
    InsertPlan plan;
    std::size_t first_piece = 0;  ///< [first_piece, end) in all_pieces
    std::size_t end = 0;
  };
  struct Fallback {
    std::size_t run_pos = 0;
    Time start = 0;  ///< when its main-table write may begin
    bool count_violation = false;
  };
  std::vector<Planned> planned;
  std::vector<Fallback> fallback;
  std::vector<net::Rule> all_pieces;
  int shadow_free = ctx.shadow_free;
  for (std::size_t pos = 0; pos < run.size(); ++pos) {
    const net::Rule& rule = rules[pos];
    if (routes[pos] != Route::kGuaranteed) {
      fallback.push_back({pos, now, routes[pos] == Route::kMainShadowFull});
      continue;
    }
    InsertPlan plan = plan_insert(rule);
    ShadowFit fit = fit_shadow(rule, plan, shadow_free);
    if (fit == ShadowFit::kRedundant) {
      batch.complete(run[pos], now, true);
      continue;
    }
    if (fit == ShadowFit::kOverflow) {
      fallback.push_back({pos, now, false});
      continue;
    }
    std::vector<net::Rule> pieces =
        mint_pieces(rule, plan, /*keep_uncut_id=*/true);
    shadow_free -= static_cast<int>(pieces.size());
    planned.push_back({pos, std::move(plan), all_pieces.size(),
                       all_pieces.size() + pieces.size()});
    all_pieces.insert(all_pieces.end(), pieces.begin(), pieces.end());
  }

  // ONE optimized shadow write for every planned piece.
  Time barrier = now;
  if (!all_pieces.empty()) {
    LandedBatch land = land_batch(now, kShadow, all_pieces);
    obs_shadow_batch_pieces_.record(all_pieces.size());
    // The batch write is one control-plane action on the TCAM (and each
    // retry another): judge the guarantee on each one's channel
    // occupation, like a migration batch.
    for (Duration latency : land.latencies) note_guaranteed_latency(latency);
    stats_.worst_guaranteed_latency =
        std::max(stats_.worst_guaranteed_latency, land.completion - now);
    for (std::size_t i = 0; i < land.landed; ++i)
      shadow_index_.insert(all_pieces[i]);
    for (Planned& p : planned) {
      const std::size_t count = p.end - p.first_piece;
      std::vector<net::RuleId> landed;
      landed.reserve(count);
      for (std::size_t j = p.first_piece; j < std::min(p.end, land.landed);
           ++j)
        landed.push_back(all_pieces[j].id);
      if (landed.size() < count) {
        // Only a fault plan truncates the batch (capacity and duplicate
        // ids are pre-checked): this rule's retries ran dry. As on the
        // per-op path, its landed siblings are rolled back and it falls
        // through to main once the last failed attempt completed.
        fallback.push_back(
            {p.run_pos, rollback_exhausted(land.completion, landed), false});
        continue;
      }
      commit_shadow(now, rules[p.run_pos], std::move(landed),
                    std::move(p.plan));
      // Amortize the batch channel occupation over its pieces so the
      // per-insert op-latency samples still sum to the channel time.
      Duration amortized = static_cast<Duration>(
          static_cast<std::uint64_t>(land.latencies.front()) * count /
          all_pieces.size());
      record_rit(land.completion - now, amortized);
      batch.complete(run[p.run_pos], land.completion, true);
    }
    barrier = std::max(barrier, land.completion);
  }

  // Deferred main-table fallbacks, in batch order. Each one runs
  // repartition_shadow_overlaps, which restores joint-table equivalence
  // for any shadow rule the new main rule masks.
  for (const Fallback& f : fallback) {
    const net::Rule& rule = rules[f.run_pos];
    Time done = insert_to_main(f.start, rule, f.count_violation,
                               /*arrival=*/now);
    batch.complete(run[f.run_pos], done, store_.contains(rule.id));
    barrier = std::max(barrier, done);
  }
  return barrier;
}

RouteContext HermesAgent::route_context() const {
  const tcam::TcamTable& shadow = asic_.slice(kShadow);
  const tcam::TcamTable& main = asic_.slice(kMain);
  RouteContext ctx;
  ctx.shadow_free = shadow.capacity() - shadow.occupancy();
  ctx.pieces_needed = 1;  // provisional; refined after partitioning
  ctx.main_min_priority = main_min_priority();
  ctx.main_empty = main.empty();
  ctx.main_full = main.full();
  return ctx;
}

HermesAgent::ShadowFit HermesAgent::fit_shadow(const net::Rule& rule,
                                               InsertPlan& plan,
                                               int shadow_free) {
  if (plan.partition.redundant) {
    // Figure 5 (a): the rule could never match; record it (with its
    // blockers) so a later blocker deletion can materialize it. Handled
    // entirely in agent software.
    ++stats_.redundant_inserts;
    store_.add(LogicalRule{rule, Placement::kMain, {},
                           std::move(plan.blockers)});
    record_rit(0, 0);
    return ShadowFit::kRedundant;
  }
  if (static_cast<int>(plan.partition.pieces.size()) > shadow_free) {
    // Shadow cannot absorb the pieces: guarantee missed, fall back.
    ++stats_.violations;
    return ShadowFit::kOverflow;
  }
  return ShadowFit::kFits;
}

void HermesAgent::commit_shadow(Time now, const net::Rule& rule,
                                std::vector<net::RuleId> piece_ids,
                                InsertPlan plan) {
  const std::size_t piece_count = piece_ids.size();
  const int blocker_count = static_cast<int>(plan.blockers.size());
  store_.add(LogicalRule{rule, Placement::kShadow, std::move(piece_ids),
                         std::move(plan.blockers)});
  ++stats_.guaranteed_inserts;
  stats_.partition_pieces += piece_count;
  arrivals_this_epoch_ += static_cast<double>(piece_count);
  if (plan.cut) {
    obs::trace_event(obs::partition_expand_event(
        now, static_cast<int>(piece_count), blocker_count));
  }
}

Time HermesAgent::rollback_exhausted(Time at,
                                     const std::vector<net::RuleId>& landed) {
  for (net::RuleId pid : landed) {
    if (const net::Rule* piece = asic_.slice(kShadow).find_ptr(pid))
      shadow_index_.erase(pid, piece->match);
  }
  ++stats_.violations;
  return std::max(at, asic_.submit_batch_delete(at, kShadow, landed));
}

Time HermesAgent::insert(Time now, const net::Rule& rule) {
  assert(rule.id < kPieceIdBase && "logical rule ids must be < 2^32");
  if (store_.contains(rule.id)) return modify(now, rule);
  ++stats_.inserts;

  RouteContext ctx = route_context();
  Route route = gate_keeper_->route_insert(now, rule, ctx);
  if (route != Route::kGuaranteed) {
    return insert_to_main(now, rule,
                          /*count_violation=*/route == Route::kMainShadowFull);
  }
  InsertPlan plan = plan_insert(rule);
  switch (fit_shadow(rule, plan, ctx.shadow_free)) {
    case ShadowFit::kRedundant:
      return now;
    case ShadowFit::kOverflow:
      return insert_to_main(now, rule, /*count_violation=*/false);
    case ShadowFit::kFits:
      break;
  }
  return insert_guaranteed(now, rule, std::move(plan));
}

Time HermesAgent::insert_guaranteed(Time now, const net::Rule& rule,
                                    InsertPlan plan) {
  const std::vector<net::Rule> pieces =
      mint_pieces(rule, plan, /*keep_uncut_id=*/true);
  Time completion = now;
  Duration op_latency = 0;
  Duration worst_piece = 0;
  std::vector<net::RuleId> landed;
  landed.reserve(pieces.size());
  for (const net::Rule& piece : pieces) {
    RetriedInsert r = submit_insert_with_retry(now, kShadow, piece);
    completion = r.completion;
    op_latency += r.total_latency;
    worst_piece = std::max(worst_piece, r.total_latency);
    // Only a fault plan can fail a piece here (capacity is pre-checked and
    // piece ids are unique). Its retries ran dry: undo the landed siblings
    // and fall through to main.
    if (!r.last.ok && asic_.fault_plan() != nullptr) {
      return insert_to_main(rollback_exhausted(completion, landed), rule,
                            /*count_violation=*/false, /*arrival=*/now);
    }
    landed.push_back(piece.id);
  }
  commit_shadow(now, rule, std::move(landed), std::move(plan));

  // The guarantee is per control-plane ACTION on the TCAM: a partitioned
  // insert is several actions, each individually bounded by the shadow
  // size. Violations are judged per action (overflow fallbacks are
  // counted separately at the routing layer).
  Duration latency = completion - now;
  note_guaranteed_latency(worst_piece);
  stats_.worst_guaranteed_latency =
      std::max(stats_.worst_guaranteed_latency, latency);
  record_rit(latency, op_latency);
  return completion;
}

Time HermesAgent::insert_to_main(Time now, const net::Rule& rule,
                                 bool count_violation, Time arrival) {
  RetriedInsert r = submit_insert_with_retry(now, kMain, rule);
  Time completion = r.completion;
  if (!r.last.ok) {
    ++stats_.failed_ops;
    return completion;
  }
  store_.add(LogicalRule{rule, Placement::kMain, {rule.id}, {}});
  ++stats_.main_inserts;
  if (count_violation) ++stats_.violations;
  record_rit(completion - (arrival >= 0 ? arrival : now), r.total_latency);
  // A rule landing in main can shadow-mask lower-priority shadow rules
  // (the mirror of Figure 4): cut them now.
  repartition_shadow_overlaps(now, rule);
  return completion;
}

Time HermesAgent::erase(Time now, net::RuleId logical_id) {
  ++stats_.deletes;
  const LogicalRule* lr = store_.find(logical_id);
  if (!lr) {
    ++stats_.failed_ops;
    return now;
  }
  Time completion = now;
  if (lr->placement == Placement::kMain) {
    // Un-index the blocker first so dependents re-partition against the
    // post-delete main table, then restore them (insert-before-delete
    // inside repartition_logical keeps per-packet consistency), and only
    // then remove the physical entries.
    std::vector<net::RuleId> pieces = lr->physical_ids;
    for (net::RuleId pid : pieces) {
      if (const net::Rule* rule = asic_.slice(kMain).find_ptr(pid))
        main_index_.erase(pid, rule->match);
    }
    unpartition_dependents(now, logical_id);
    for (net::RuleId pid : pieces) {
      net::FlowMod del{net::FlowModType::kDelete, net::Rule{pid, 0, {}, {}}};
      completion = asic_.submit(now, kMain, del);
    }
  } else {
    for (net::RuleId pid : lr->physical_ids) {
      if (const net::Rule* rule = asic_.slice(kShadow).find_ptr(pid))
        completion = submit_shadow_delete(now, pid, rule->match);
    }
  }
  store_.remove(logical_id);
  return completion;
}

Time HermesAgent::modify(Time now, const net::Rule& rule) {
  ++stats_.modifies;
  const LogicalRule* lr = store_.find(rule.id);
  if (!lr) {
    ++stats_.failed_ops;
    return now;
  }
  if (rule.priority == lr->original.priority &&
      rule.match == lr->original.match) {
    // Action-only change: constant-time in-place rewrite of every piece
    // (Section 2.1.1 / 4.1), in the table and in its overlap index.
    Time completion = now;
    int slice_idx = lr->placement == Placement::kShadow ? kShadow : kMain;
    OverlapIndex& index =
        lr->placement == Placement::kShadow ? shadow_index_ : main_index_;
    for (net::RuleId pid : lr->physical_ids) {
      const net::Rule* piece = asic_.slice(slice_idx).find_ptr(pid);
      if (!piece) continue;
      net::Rule updated = *piece;
      updated.action = rule.action;
      completion =
          asic_.submit(now, slice_idx, {net::FlowModType::kModify, updated});
      index.set_action(pid, updated.match, rule.action);
    }
    store_.set_action(rule.id, rule.action);
    return completion;
  }
  // Match or priority change: delete + insert (Section 4.1).
  Time deleted = erase(now, rule.id);
  Time inserted = insert(now, rule);
  return std::max(deleted, inserted);
}

// --- Correctness maintenance --------------------------------------------------

void HermesAgent::repartition_shadow_overlaps(Time now,
                                              const net::Rule& main_rule) {
  std::vector<net::RuleId> logicals;
  shadow_index_.visit(
      main_rule.match, std::numeric_limits<int>::min(),
      main_rule.priority - 1, [&](const net::Rule& piece) {
        if (auto lid = store_.logical_of(piece.id)) {
          if (std::find(logicals.begin(), logicals.end(), *lid) ==
              logicals.end())
            logicals.push_back(*lid);
        }
        return true;
      });
  for (net::RuleId lid : logicals) {
    repartition_logical(now, lid);
    ++stats_.repartitions;
  }
}

void HermesAgent::repartition_logical(Time now, net::RuleId logical_id) {
  const LogicalRule* lr = store_.find(logical_id);
  if (!lr) return;
  const Placement placement = lr->placement;
  const int slice = placement == Placement::kShadow ? kShadow : kMain;
  const net::Rule original = lr->original;
  const std::vector<net::RuleId> old_pieces = lr->physical_ids;
  InsertPlan plan = plan_insert(original);

  // No-op fast path: if the recomputed cover equals the installed one,
  // only refresh the dependency edges — no TCAM churn. (Without this,
  // repeated triggers — e.g. a rule repeatedly skipped by migration —
  // would delete and reinsert identical pieces forever.)
  {
    const tcam::TcamTable& table = asic_.slice(slice);
    std::vector<net::Prefix> current;
    current.reserve(old_pieces.size());
    for (net::RuleId pid : old_pieces)
      if (const net::Rule* rule = table.find_ptr(pid))
        current.push_back(rule->match);
    std::vector<net::Prefix> target = plan.partition.pieces;
    std::sort(current.begin(), current.end());
    std::sort(target.begin(), target.end());
    if (current == target && current.size() == old_pieces.size()) {
      store_.rebind(logical_id, placement, old_pieces,
                    std::move(plan.blockers));
      return;
    }
  }

  // Insert the replacement pieces first, then delete the old ones: at
  // every instant each packet matches either the old or the new cover.
  // That needs room for both covers at once; a shadow without it moves
  // the rule to main instead, as a migration would.
  const tcam::TcamTable& table = asic_.slice(slice);
  const bool to_main =
      placement == Placement::kShadow &&
      static_cast<int>(plan.partition.pieces.size()) >
          table.capacity() - table.occupancy();
  const std::vector<net::Rule> new_pieces =
      mint_pieces(original, plan, /*keep_uncut_id=*/false);
  std::vector<net::RuleId> new_ids;
  new_ids.reserve(new_pieces.size());
  for (const net::Rule& piece : new_pieces) {
    RetriedInsert r =
        submit_insert_with_retry(now, to_main ? kMain : slice, piece);
    // A piece the table still rejects (retries ran dry, or the table is
    // full) is dropped from the cover and counted as a failed op.
    if (r.last.ok) {
      new_ids.push_back(piece.id);
    } else {
      ++stats_.failed_ops;
    }
  }
  for (net::RuleId pid : old_pieces) {
    if (const net::Rule* rule = asic_.slice(slice).find_ptr(pid)) {
      if (placement == Placement::kShadow) {
        submit_shadow_delete(now, pid, rule->match);
      } else {
        submit_main_delete(now, pid, rule->match);
      }
    }
  }
  store_.rebind(logical_id, to_main ? Placement::kMain : placement,
                std::move(new_ids), std::move(plan.blockers));
  // From main the rule can be masked by lower-priority shadow rules (the
  // mirror of Figure 4): cut them, as insert_to_main() does.
  if (to_main) repartition_shadow_overlaps(now, original);
}

// --- Physical mutation helpers -------------------------------------------------

Time HermesAgent::submit_shadow_insert(Time now, const net::Rule& rule,
                                       tcam::ApplyResult* result) {
  tcam::ApplyResult local;
  Time done =
      asic_.submit(now, kShadow, {net::FlowModType::kInsert, rule}, &local);
  if (local.ok) shadow_index_.insert(rule);
  if (result) *result = local;
  return done;
}

Time HermesAgent::submit_shadow_delete(Time now, net::RuleId id,
                                       const net::Prefix& match) {
  shadow_index_.erase(id, match);
  net::FlowMod del{net::FlowModType::kDelete, net::Rule{id, 0, {}, {}}};
  return asic_.submit(now, kShadow, del);
}

Time HermesAgent::submit_main_insert(Time now, const net::Rule& rule,
                                     tcam::ApplyResult* result) {
  tcam::ApplyResult local;
  Time done =
      asic_.submit(now, kMain, {net::FlowModType::kInsert, rule}, &local);
  if (local.ok) main_index_.insert(rule);
  if (result) *result = local;
  return done;
}

Time HermesAgent::submit_main_delete(Time now, net::RuleId id,
                                     const net::Prefix& match) {
  if (asic_.slice(kMain).contains(id)) main_index_.erase(id, match);
  net::FlowMod del{net::FlowModType::kDelete, net::Rule{id, 0, {}, {}}};
  return asic_.submit(now, kMain, del);
}

}  // namespace hermes::core
