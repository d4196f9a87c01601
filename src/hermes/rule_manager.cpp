// The Rule Manager half of HermesAgent (Section 5): epoch-based
// prediction, the migration trigger, the four-step migration workflow of
// Figure 7, and un-partitioning on blocker deletion (Figure 6).
#include <algorithm>

#include "hermes/hermes_agent.h"

namespace hermes::core {

void HermesAgent::tick(Time now) {
  maybe_reconcile(now);
  if (migration_retry_at_ >= 0 && now >= migration_retry_at_) {
    // A partially-failed migration re-queued itself: run it again now,
    // before the regular epoch machinery.
    migration_retry_at_ = -1;
    run_migration(now);
  }
  if (config_.simple_threshold >= 0) {
    // Hermes-SIMPLE: the policy is consulted on every tick — with a 0%
    // threshold "migration is constantly happening in the background"
    // (Section 8.5).
    while (epoch_start_ + config_.epoch <= now)
      epoch_start_ += config_.epoch;  // keep the epoch clock moving
    apply_policy_action(policy_->decide(policy_state(now)), now);
    return;
  }
  while (epoch_start_ + config_.epoch <= now) {
    close_epoch();
    epoch_start_ += config_.epoch;
    // Reward for the decision that governed the epoch just closed, then
    // the decision for the next one. The default ThresholdMigrationPolicy
    // ignores feedback and reproduces the legacy migration_due() trigger
    // bit-for-bit.
    policy_->feedback(last_epoch_feedback_);
    apply_policy_action(policy_->decide(policy_state(epoch_start_)),
                        epoch_start_);
  }
}

Time HermesAgent::migrate_now(Time now) { return run_migration(now); }

void HermesAgent::close_epoch() {
  // Forecast-vs-actual sample for the epoch that just ended: what the
  // estimator would have predicted BEFORE seeing this epoch's count.
  // Built only when a registry can receive it.
  if (obs::attached())
    obs::trace_event(obs::predictor_sample_event(
        epoch_start_ + config_.epoch, estimator_->raw_prediction(),
        arrivals_this_epoch_));
  estimator_->observe(arrivals_this_epoch_);
  arrivals_this_epoch_ = 0;

  // Roll the policy-seam epoch accounting: the reward signal for the
  // epoch that just closed, and the fault-rate EWMA PolicyState carries.
  last_epoch_feedback_.mean_insert_latency_us =
      epoch_rit_count_ == 0
          ? 0.0
          : static_cast<double>(epoch_rit_sum_) /
                (1e3 * static_cast<double>(epoch_rit_count_));
  last_epoch_feedback_.violations =
      static_cast<double>(stats_.violations - epoch_violation_mark_);
  epoch_violation_mark_ = stats_.violations;
  epoch_rit_sum_ = 0;
  epoch_rit_count_ = 0;
  fault_rate_ewma_ =
      0.5 * static_cast<double>(retries_this_epoch_) + 0.5 * fault_rate_ewma_;
  retries_this_epoch_ = 0;
}

PolicyState HermesAgent::policy_state(Time now) const {
  PolicyState state;
  state.now = now;
  state.shadow_occupancy = shadow_occupancy();
  state.shadow_capacity = shadow_capacity();
  if (state.shadow_occupancy > 0)
    state.predicted_next = estimator_->predicted_next();
  std::span<const double> history = estimator_->history();
  if (history.size() >= 2) {
    state.arrival_trend =
        history[history.size() - 1] - history[history.size() - 2];
  } else if (history.size() == 1) {
    state.arrival_trend = history[0];
  }
  state.recent_fault_rate = fault_rate_ewma_;
  return state;
}

void HermesAgent::apply_policy_action(MigrationAction action, Time now) {
  obs_policy_decisions_.inc();
  if (obs::attached())
    obs::trace_event(obs::policy_decision_event(
        now, static_cast<std::uint8_t>(action), shadow_occupancy(),
        shadow_capacity()));
  switch (action) {
    case MigrationAction::kHold:
      obs_policy_holds_.inc();
      return;
    case MigrationAction::kMigrateSmall:
      obs_policy_migrate_small_.inc();
      run_migration(now, std::max(1, shadow_occupancy() / 2));
      return;
    case MigrationAction::kMigrateLarge:
      obs_policy_migrate_large_.inc();
      run_migration(now);
      return;
    case MigrationAction::kExpandPartition:
      obs_policy_expands_.inc();
      // Maximum-headroom composite: re-carve one step of main capacity
      // into the shadow (bounded at twice the carved size, and only out
      // of slots the main slice isn't using) AND drain the shadow. The
      // re-carve is a ratchet — once at the bound the action degrades to
      // migrate-large.
      if (shadow_capacity() + expand_step_ <= 2 * initial_shadow_capacity_ &&
          asic_.transfer_capacity(kMain, kShadow, expand_step_)) {
        obs_policy_shadow_capacity_.set(shadow_capacity());
      }
      run_migration(now);
      return;
  }
}

bool HermesAgent::migration_due() const {
  int occupancy = shadow_occupancy();
  if (occupancy == 0) return false;
  int capacity = shadow_capacity();
  if (config_.simple_threshold >= 0) {
    // Hermes-SIMPLE (Section 8.5): plain occupancy threshold. A 0%
    // threshold means "migrate whenever anything is resident".
    return static_cast<double>(occupancy) >=
           config_.simple_threshold * static_cast<double>(capacity);
  }
  // Predictive trigger (Section 5.1): migrate when the corrected forecast
  // of next epoch's arrivals would push the shadow past its operating
  // watermark. The watermark sits at HALF the capacity: the shadow must
  // stay "relatively empty" (Section 3) — both because insertion latency
  // grows with occupancy and to leave burst headroom — and the
  // slack/deadzone-inflated forecast pulls migration earlier as the
  // arrival rate ramps, which is exactly the mechanism Figure 13 sweeps.
  double predicted = estimator_->predicted_next();
  return static_cast<double>(occupancy) + predicted >=
         config_.migration_watermark * static_cast<double>(capacity);
}

Time HermesAgent::run_migration(Time now, int max_rules) {
  std::vector<net::RuleId> shadow_lids =
      store_.ids_with_placement(Placement::kShadow);
  if (shadow_lids.empty()) return now;
  ++stats_.migrations;

  // Migrate higher-priority rules first so that, if the main table runs
  // out of room mid-migration, the rules left behind in the shadow table
  // are the low-priority ones (which partition worst anyway).
  store_.sort_by_priority(shadow_lids);
  // A partial migration (the migrate-small policy action) moves only the
  // highest-priority prefix, keeping the control channel occupation — and
  // hence the stall risk for guaranteed inserts — bounded per epoch.
  if (max_rules >= 0 && static_cast<int>(shadow_lids.size()) > max_rules)
    shadow_lids.resize(static_cast<std::size_t>(max_rules));

  // Step 1+2 (Figure 7): copy rules out and optimize. Each logical rule
  // is re-partitioned against the PRE-migration main table: co-migrating
  // rules need no cuts between themselves (the main TCAM disambiguates
  // same-table overlaps by priority), and blockers deleted since the
  // original cut get their regions merged back — this is the
  // "defragmentation" that makes the optimizer worthwhile.
  struct Planned {
    net::RuleId lid;
    std::vector<net::Rule> pieces;
    std::vector<net::RuleId> blockers;
  };
  std::vector<Planned> plan;
  plan.reserve(shadow_lids.size());
  for (net::RuleId lid : shadow_lids) {
    const net::Rule& original = store_.find(lid)->original;
    InsertPlan p = plan_insert(original);
    plan.push_back({lid, mint_pieces(original, p, /*keep_uncut_id=*/false),
                    std::move(p.blockers)});
  }

  // Step 3: write the optimized rules into the main table as one batch
  // per migration (the Section 5.2 optimized write). The shadow copies
  // are still live, so every packet keeps matching a rule throughout.
  tcam::TcamTable& main = asic_.slice(kMain);
  std::vector<net::Rule> batch;
  struct Span {
    std::size_t plan_idx;
    std::size_t begin;  // [begin, end) range of this rule's pieces in batch
    std::size_t end;
  };
  std::vector<Span> spans;
  std::vector<std::size_t> skipped;
  int free_slots = main.capacity() - main.occupancy();
  for (std::size_t i = 0; i < plan.size(); ++i) {
    int needed = static_cast<int>(plan[i].pieces.size());
    if (needed > free_slots) {
      skipped.push_back(i);
      continue;
    }
    free_slots -= needed;
    spans.push_back({i, batch.size(), batch.size() + plan[i].pieces.size()});
    batch.insert(batch.end(), plan[i].pieces.begin(), plan[i].pieces.end());
  }
  Time main_done = now;
  std::vector<char> piece_ok(batch.size(), 1);
  if (!batch.empty()) {
    if (config_.batched_migration) {
      // One optimized update transaction (Section 5.2, step 2).
      tcam::Asic::BatchResult result;
      main_done = asic_.submit_batch_insert(now, kMain, batch, &result);
      // The batch stops at the first rejected insert: only the prefix is
      // resident in the ASIC.
      std::fill(piece_ok.begin() + result.inserted, piece_ok.end(), 0);
    } else {
      // Ablation: naive per-rule reinsertion — each insert pays its own
      // occupancy-deep shifting cost on the main channel.
      for (std::size_t i = 0; i < batch.size(); ++i) {
        tcam::ApplyResult apply;
        main_done = asic_.submit(now, kMain,
                                 {net::FlowModType::kInsert, batch[i]},
                                 &apply);
        piece_ok[i] = apply.ok ? 1 : 0;
      }
    }
    // Index only what the ASIC actually accepted — bookkeeping must never
    // run ahead of the hardware, even in release builds.
    for (std::size_t i = 0; i < batch.size(); ++i)
      if (piece_ok[i]) main_index_.insert(batch[i]);
  }

  // Sort spans into fully-landed rules (migrated) and failures. A rule
  // with any rejected piece cannot move: its already-written sibling
  // pieces are rolled back out of main and the rule stays in the shadow
  // table (it will be re-cut against the updated main table below).
  std::vector<std::size_t> migrated;  // indices into `plan`
  std::vector<net::RuleId> rollback;
  for (const Span& span : spans) {
    std::size_t failed = 0;
    for (std::size_t i = span.begin; i < span.end; ++i)
      if (!piece_ok[i]) ++failed;
    if (failed == 0) {
      migrated.push_back(span.plan_idx);
      continue;
    }
    stats_.migration_piece_failures += failed;
    for (std::size_t i = span.begin; i < span.end; ++i) {
      if (!piece_ok[i]) continue;
      main_index_.erase(batch[i].id, batch[i].match);
      rollback.push_back(batch[i].id);
      ++stats_.migration_rollbacks;
    }
    skipped.push_back(span.plan_idx);
  }
  if (!rollback.empty())
    main_done = asic_.submit_batch_delete(now, kMain, rollback);

  // Step 4: empty the migrated rules out of the shadow table as one
  // batched invalidation (deletes move nothing) and rebind bookkeeping.
  std::vector<net::RuleId> drained;
  for (std::size_t i : migrated) {
    const LogicalRule* lr = store_.find(plan[i].lid);
    for (net::RuleId pid : lr->physical_ids)
      if (asic_.slice(kShadow).contains(pid)) drained.push_back(pid);
  }
  Time shadow_done =
      drained.empty() ? now
                      : asic_.submit_batch_delete(now, kShadow, drained);
  std::uint64_t pieces_this_run = 0;
  std::uint64_t failures_this_run = 0;
  for (const Span& span : spans) {
    for (std::size_t i = span.begin; i < span.end; ++i)
      if (!piece_ok[i]) ++failures_this_run;
  }
  for (std::size_t i : migrated) {
    Planned& item = plan[i];
    // Optimizer-savings accounting (Section 5.2 / Fig 7): credited here,
    // after the batch landed, so rules skipped or rolled back never
    // overstate the merge savings.
    if (const LogicalRule* lr = store_.find(item.lid)) {
      if (lr->physical_ids.size() > item.pieces.size())
        stats_.pieces_saved_by_merge +=
            lr->physical_ids.size() - item.pieces.size();
    }
    std::vector<net::RuleId> new_ids;
    new_ids.reserve(item.pieces.size());
    for (const net::Rule& piece : item.pieces) new_ids.push_back(piece.id);
    store_.rebind(item.lid, Placement::kMain, std::move(new_ids),
                  std::move(item.blockers));
    ++stats_.rules_migrated;
    stats_.pieces_migrated += item.pieces.size();
    pieces_this_run += item.pieces.size();
  }

  // Rules that did not fit stay in the shadow table; they would now mask
  // the freshly migrated higher-priority pieces, so re-cut them against
  // the updated main table.
  for (std::size_t i : skipped) {
    repartition_logical(now, plan[i].lid);
    ++stats_.repartitions;
  }

  Time done = std::max(main_done, shadow_done);
  if (asic_.fault_plan() != nullptr) {
    if (failures_this_run > 0) {
      // Instead of waiting for the next trigger (and rolling back for
      // good), re-queue the run with capped exponential backoff — the
      // skipped rules are still shadow-resident and will be re-planned.
      migration_retry_backoff_ =
          migration_retry_backoff_ <= 0
              ? kInsertRetryBackoff
              : std::min(migration_retry_backoff_ * 2, kInsertRetryBackoffCap);
      migration_retry_at_ = done + migration_retry_backoff_;
      ++stats_.migration_requeues;
      obs_requeues_.inc();
    } else {
      migration_retry_at_ = -1;
      migration_retry_backoff_ = 0;
    }
  }
  obs_migration_rules_.record(migrated.size());
  obs_migration_pieces_.record(pieces_this_run);
  obs::trace_event(obs::migration_batch_event(
      now, static_cast<int>(migrated.size()),
      static_cast<int>(pieces_this_run),
      static_cast<int>(failures_this_run), done - now));
  return done;
}

// --- Post-reset reconciliation (the fault-recovery half of the Rule
// Manager): diff the RuleStore — the agent's durable intent — against
// what actually survived in the ASIC slices, purge strays and orphaned
// partial covers, and reinstall the damaged rules through the optimized
// batch path.

void HermesAgent::maybe_reconcile(Time now) {
  if (asic_.fault_plan() == nullptr) return;
  asic_.poll(now);
  if (asic_.reset_epoch() == seen_reset_epoch_) return;
  seen_reset_epoch_ = asic_.reset_epoch();
  reconcile(now);
}

Time HermesAgent::reconcile(Time now) {
  ++stats_.reconcile_runs;
  obs_reconcile_runs_.inc();
  Time done = now;
  std::uint64_t rules_reinstalled = 0;
  std::uint64_t pieces_reinstalled = 0;

  // The main index is rebuilt from scratch off what the diff below finds
  // intact (plus what gets reinstalled).
  main_index_.clear();

  // 1. Purge physical entries no logical rule claims, then classify each
  //    placed rule as intact (all pieces present; main pieces are
  //    reindexed) or damaged (purge the surviving partial cover,
  //    reinstall below).
  auto survey = [&](Placement placement,
                    int slice) -> std::vector<net::RuleId> {
    const tcam::TcamTable& table = asic_.slice(slice);
    std::vector<net::RuleId> purge;
    for (const net::Rule& resident : table.rules_view())
      if (!store_.logical_of(resident.id)) purge.push_back(resident.id);
    std::vector<net::RuleId> damaged;
    for (net::RuleId lid : store_.ids_with_placement(placement)) {
      const LogicalRule* lr = store_.find(lid);
      if (lr->physical_ids.empty()) continue;  // software-only (redundant)
      bool intact = true;
      for (net::RuleId pid : lr->physical_ids)
        if (!table.contains(pid)) intact = false;
      if (intact) {
        if (slice == kMain)
          for (net::RuleId pid : lr->physical_ids)
            main_index_.insert(*table.find_ptr(pid));
      } else {
        for (net::RuleId pid : lr->physical_ids)
          if (table.contains(pid)) purge.push_back(pid);
        damaged.push_back(lid);
      }
    }
    if (!purge.empty())
      done = std::max(done, asic_.submit_batch_delete(now, slice, purge));
    return damaged;
  };
  std::vector<net::RuleId> damaged_main = survey(Placement::kMain, kMain);
  std::vector<net::RuleId> damaged_shadow =
      survey(Placement::kShadow, kShadow);

  // 2. Reinstall damaged MAIN rules whole (ids are the logical ids, so no
  //    piece bookkeeping) as one batch, highest priority first — the main
  //    TCAM disambiguates same-table overlaps by priority, so no cuts are
  //    needed between them.
  store_.sort_by_priority(damaged_main);
  std::vector<net::Rule> main_batch;
  main_batch.reserve(damaged_main.size());
  for (net::RuleId lid : damaged_main)
    main_batch.push_back(store_.find(lid)->original);
  LandedBatch main_land = land_batch(now, kMain, main_batch);
  done = std::max(done, main_land.completion);
  for (std::size_t i = 0; i < damaged_main.size(); ++i) {
    net::RuleId lid = damaged_main[i];
    if (i < main_land.landed) {
      main_index_.insert(main_batch[i]);
      store_.rebind(lid, Placement::kMain, {main_batch[i].id}, {});
      ++rules_reinstalled;
      ++pieces_reinstalled;
    } else {
      // Retry exhaustion: the rule is gone from the data plane and the
      // agent stops pretending otherwise.
      store_.remove(lid);
      ++stats_.reconcile_rules_lost;
      obs_reconcile_lost_.inc();
    }
  }

  // 3. Re-cut damaged SHADOW rules against the rebuilt main table and
  //    reinstall them as one optimized shadow batch. Highest priority
  //    first: anything demoted whole into main along the way then blocks
  //    (rather than being masked by) the lower-priority rules after it.
  store_.sort_by_priority(damaged_shadow);
  struct Span {
    net::RuleId lid;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::vector<net::RuleId> blockers;
  };
  std::vector<net::Rule> shadow_batch;
  std::vector<Span> spans;
  int shadow_free = asic_.slice(kShadow).capacity() -
                    asic_.slice(kShadow).occupancy();
  for (net::RuleId lid : damaged_shadow) {
    const net::Rule original = store_.find(lid)->original;
    InsertPlan plan = plan_insert(original);
    if (plan.partition.redundant) {
      // Fully masked by what survived/reinstalled in main: keep it as a
      // software-only record, like a redundant insert.
      store_.rebind(lid, Placement::kMain, {}, std::move(plan.blockers));
      continue;
    }
    if (static_cast<int>(plan.partition.pieces.size()) > shadow_free) {
      // No shadow room post-reset: demote the rule whole into main.
      RetriedInsert r = submit_insert_with_retry(now, kMain, original);
      done = std::max(done, r.completion);
      if (r.last.ok) {
        store_.rebind(lid, Placement::kMain, {original.id}, {});
        ++rules_reinstalled;
        ++pieces_reinstalled;
      } else {
        store_.remove(lid);
        ++stats_.reconcile_rules_lost;
        obs_reconcile_lost_.inc();
      }
      continue;
    }
    std::vector<net::Rule> pieces =
        mint_pieces(original, plan, /*keep_uncut_id=*/true);
    shadow_free -= static_cast<int>(pieces.size());
    spans.push_back({lid, shadow_batch.size(),
                     shadow_batch.size() + pieces.size(),
                     std::move(plan.blockers)});
    shadow_batch.insert(shadow_batch.end(), pieces.begin(), pieces.end());
  }
  LandedBatch shadow_land = land_batch(now, kShadow, shadow_batch);
  done = std::max(done, shadow_land.completion);
  std::vector<net::RuleId> partial;  // landed pieces of a straddling span
  for (Span& span : spans) {
    if (span.end <= shadow_land.landed) {
      std::vector<net::RuleId> ids;
      ids.reserve(span.end - span.begin);
      for (std::size_t i = span.begin; i < span.end; ++i)
        ids.push_back(shadow_batch[i].id);
      pieces_reinstalled += ids.size();
      ++rules_reinstalled;
      store_.rebind(span.lid, Placement::kShadow, std::move(ids),
                    std::move(span.blockers));
    } else {
      for (std::size_t i = span.begin;
           i < std::min(span.end, shadow_land.landed); ++i)
        partial.push_back(shadow_batch[i].id);
      store_.remove(span.lid);
      ++stats_.reconcile_rules_lost;
      obs_reconcile_lost_.inc();
    }
  }
  if (!partial.empty())
    done = std::max(done, asic_.submit_batch_delete(done, kShadow, partial));

  stats_.reconcile_rules_reinstalled += rules_reinstalled;
  obs_reconcile_rules_.inc(rules_reinstalled);
  stats_.reconcile_pieces_reinstalled += pieces_reinstalled;
  obs_reconcile_pieces_.inc(pieces_reinstalled);
  obs::trace_event(obs::reconcile_event(
      now, static_cast<int>(rules_reinstalled),
      static_cast<int>(pieces_reinstalled), done - now));
  return done;
}

void HermesAgent::unpartition_dependents(Time now,
                                         net::RuleId blocker_logical_id) {
  std::vector<net::RuleId> deps = store_.dependents_of(blocker_logical_id);
  // Restore higher-priority dependents first: lower-priority ones are then
  // re-partitioned against the already-expanded higher-priority pieces.
  store_.sort_by_priority(deps);
  for (net::RuleId lid : deps) {
    repartition_logical(now, lid);
    ++stats_.unpartitions;
  }
}

}  // namespace hermes::core
