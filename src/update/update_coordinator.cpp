#include "update/update_coordinator.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace hermes::update {

namespace {

net::FlowMod delete_mod(net::RuleId id) {
  return net::FlowMod{net::FlowModType::kDelete, net::Rule{id, 0, {}, {}}};
}

}  // namespace

UpdateCoordinator::UpdateCoordinator(sim::EventQueue& events,
                                     BatchDispatch batch,
                                     CoordinatorConfig config)
    : events_(events), batch_(std::move(batch)), config_(config) {
  // kSegway's switches release each other directly: its ops pay no
  // controller round-trips or send gaps.
  if (!two_phase()) {
    config_.ctrl_rtt = 0;
    config_.ctrl_send_gap = 0;
  }
}

UpdateCoordinator::Txn* UpdateCoordinator::find(std::uint64_t id) {
  auto it = txns_.find(id);
  return it == txns_.end() ? nullptr : &it->second;
}

bool UpdateCoordinator::is_virtual(const Txn& t, net::NodeId node) const {
  return t.req.old_rules.find(node) == t.req.old_rules.end() &&
         t.req.new_rules.find(node) == t.req.new_rules.end();
}

net::NodeId UpdateCoordinator::new_successor(const Txn& t, int seg) const {
  const net::UpdateSegment& s =
      t.req.plan.segments[static_cast<std::size_t>(seg)];
  return s.add_nodes.empty() ? s.exit : s.add_nodes.front();
}

net::NodeId UpdateCoordinator::old_successor(const Txn& t,
                                             net::NodeId node) const {
  const net::Path& old_path = t.req.plan.old_path;
  for (std::size_t i = 0; i + 1 < old_path.size(); ++i)
    if (old_path[i] == node) return old_path[i + 1];
  return net::kInvalidNode;
}

net::FlowMod UpdateCoordinator::flip_mod(const Txn& t, int seg) const {
  const net::NodeId entry =
      t.req.plan.segments[static_cast<std::size_t>(seg)].entry;
  auto old_it = t.req.old_rules.find(entry);
  if (old_it != t.req.old_rules.end()) {
    // The common keeps its rule id and table position; only the action
    // changes (old next hop -> new next hop). This is what makes a flip
    // atomic from the data plane's point of view.
    net::Rule rule = old_it->second;
    auto new_it = t.req.new_rules.find(entry);
    rule.action = new_it != t.req.new_rules.end()
                      ? new_it->second.action
                      : net::forward_to(static_cast<int>(new_successor(t, seg)));
    return net::FlowMod{net::FlowModType::kModify, rule};
  }
  auto new_it = t.req.new_rules.find(entry);
  if (new_it != t.req.new_rules.end())
    // First install for this flow at this common: the insert IS the flip.
    return net::FlowMod{net::FlowModType::kInsert, new_it->second};
  // Virtual node (source host / perfect control plane): synthesize the
  // effect for the observer.
  return net::FlowMod{
      net::FlowModType::kModify,
      net::Rule{net::kInvalidRuleId, 0, {},
                net::forward_to(static_cast<int>(new_successor(t, seg)))}};
}

std::pair<Time, bool> UpdateCoordinator::dispatch_op(Time now, net::NodeId sw,
                                                     const net::FlowMod& mod,
                                                     bool virt) {
  Time completion = now;
  bool ok = true;
  if (!virt) {
    net::FlowModBatch batch;
    batch.push(mod);
    batch_(now, sw, batch);
    const net::ModResult& r = batch.result(0);
    ok = r.status == net::ModStatus::kApplied;
    completion = std::max(now, r.completion);
  }
  if (observer_) {
    events_.schedule(completion, [this, sw, mod, ok](Time t2) {
      observer_(t2, sw, mod, ok);
    });
  }
  return {completion, ok};
}

std::uint64_t UpdateCoordinator::begin(Time now, TxnRequest req, DoneFn done) {
  const std::uint64_t id = next_id_++;
  Txn& t = txns_[id];
  t.req = std::move(req);
  t.done = std::move(done);
  t.out.txn = id;
  t.out.begin = now;

  const int nsegs = static_cast<int>(t.req.plan.segments.size());
  t.out.segments = nsegs;
  t.segs.resize(static_cast<std::size_t>(nsegs));
  t.dependents.resize(static_cast<std::size_t>(nsegs));
  t.flips_left = nsegs;
  for (int i = 0; i < nsegs; ++i) {
    const net::UpdateSegment& seg =
        t.req.plan.segments[static_cast<std::size_t>(i)];
    SegState& s = t.segs[static_cast<std::size_t>(i)];
    s.adds_pending = static_cast<int>(seg.add_nodes.size());
    s.deps_pending = static_cast<int>(seg.flip_deps.size());
    s.needs_signal = !seg.add_nodes.empty() || !seg.flip_deps.empty();
    for (int d : seg.flip_deps)
      t.dependents[static_cast<std::size_t>(d)].push_back(i);
  }
  t.removal_pending.reserve(t.req.plan.removals.size());
  for (const net::RemovalGroup& g : t.req.plan.removals)
    t.removal_pending.push_back(static_cast<int>(g.gate_flips.size()));

  ++active_;
  obs_txns_.inc();
  obs_segments_.record(static_cast<std::uint64_t>(nsegs));
  if (t.req.plan.out_of_order()) obs_out_of_order_.inc();
  obs::trace_event(obs::update_phase_event(now, obs::kUpdateBegin,
                                           static_cast<std::uint32_t>(id),
                                           static_cast<std::uint32_t>(nsegs)));

  // Every add goes out at once (kTwoPhase: after the command's half-RTT,
  // one send gap apart): new-path-only switches are unreachable until
  // their segment's entry flips, so installing early is always safe.
  Time send = now + config_.ctrl_rtt / 2;
  for (int i = 0; i < nsegs; ++i) {
    for (net::NodeId sw :
         t.req.plan.segments[static_cast<std::size_t>(i)].add_nodes) {
      ++t.outstanding;
      events_.schedule(send, [this, id, i, sw](Time tnow) {
        issue_add(tnow, id, i, sw);
      });
      send += config_.ctrl_send_gap;
    }
    // kSegway: a segment with no adds releases itself.
    if (!two_phase() && t.segs[static_cast<std::size_t>(i)].adds_pending == 0)
      events_.schedule(now, [this, id, i](Time tnow) {
        maybe_flip(tnow, id, i);
      });
  }
  // kTwoPhase with nothing to add starts its flip phase at once.
  if (two_phase() && t.outstanding == 0)
    events_.schedule(now, [this, id](Time tnow) { two_phase_flips(tnow, id); });
  return id;
}

void UpdateCoordinator::issue_add(Time now, std::uint64_t id, int seg,
                                  net::NodeId sw) {
  Txn* t = find(id);
  if (!t) return;
  if (t->failed || t->cancelled) {
    --t->outstanding;
    check_stalled(now, id);
    return;
  }
  auto new_it = t->req.new_rules.find(sw);
  const bool virt = new_it == t->req.new_rules.end();
  const net::Rule rule = virt ? net::Rule{} : new_it->second;
  auto [c, ok] =
      dispatch_op(now, sw, net::FlowMod{net::FlowModType::kInsert, rule}, virt);
  const net::RuleId rid = virt ? net::kInvalidRuleId : rule.id;
  // kTwoPhase: the controller learns of the completion one half-RTT later.
  events_.schedule(c + config_.ctrl_rtt / 2,
                   [this, id, seg, sw, rid, ok](Time t2) {
                     on_add_done(t2, id, seg, sw, rid, ok);
                   });
}

void UpdateCoordinator::on_add_done(Time now, std::uint64_t id, int seg,
                                    net::NodeId sw, net::RuleId rule,
                                    bool ok) {
  Txn* t = find(id);
  if (!t) return;
  --t->outstanding;
  if (ok) {
    ++t->out.adds;
    obs_adds_.inc();
    if (rule != net::kInvalidRuleId) t->added.emplace_back(sw, rule);
  } else {
    note_failed_op(*t);
    t->failed = true;
  }
  SegState& s = t->segs[static_cast<std::size_t>(seg)];
  --s.adds_pending;
  if (t->failed || t->cancelled) {
    check_stalled(now, id);
    return;
  }
  if (two_phase()) {
    // Controller barrier: acks fire in completion order, so the event
    // that drains `outstanding` runs at the phase's last ack.
    if (t->outstanding == 0) two_phase_flips(now, id);
    return;
  }
  if (s.adds_pending == 0) maybe_flip(now, id, seg);
}

void UpdateCoordinator::maybe_flip(Time now, std::uint64_t id, int seg) {
  Txn* t = find(id);
  if (!t || t->failed || t->cancelled) return;
  SegState& s = t->segs[static_cast<std::size_t>(seg)];
  if (s.flip_issued || s.adds_pending > 0 || s.deps_pending > 0) return;
  s.flip_issued = true;
  // The release reaches the entry by a switch-to-switch signal when it
  // originated at another switch (an internal add barrier or a dependent
  // flip); a segment with neither flips on the entry's own initiative.
  const Time when = now + (s.needs_signal ? config_.signal_delay : 0);
  ++t->outstanding;
  events_.schedule(when, [this, id, seg](Time tnow) {
    issue_flip(tnow, id, seg);
  });
}

void UpdateCoordinator::issue_flip(Time now, std::uint64_t id, int seg) {
  Txn* t = find(id);
  if (!t) return;
  // kTwoPhase keeps firing its flips after one failed: that is how it
  // strands a mixed state.
  if (t->cancelled || (t->failed && !two_phase())) {
    --t->outstanding;
    check_stalled(now, id);
    return;
  }
  const net::NodeId entry =
      t->req.plan.segments[static_cast<std::size_t>(seg)].entry;
  const net::FlowMod mod = flip_mod(*t, seg);
  // A flip with no pre-existing rule is an insert; remember its id so
  // rollback/cancel can retire it like any other installed rule.
  const net::RuleId inserted =
      mod.type == net::FlowModType::kInsert ? mod.rule.id
                                            : net::kInvalidRuleId;
  auto [c, ok] = dispatch_op(now, entry, mod, is_virtual(*t, entry));
  events_.schedule(c + config_.ctrl_rtt / 2,
                   [this, id, seg, entry, inserted, c, ok](Time t2) {
                     Txn* txn = find(id);
                     if (txn && ok && inserted != net::kInvalidRuleId)
                       txn->added.emplace_back(entry, inserted);
                     on_flip_done(t2, id, seg, c, ok);
                   });
}

void UpdateCoordinator::on_flip_done(Time now, std::uint64_t id, int seg,
                                     Time landed, bool ok) {
  Txn* t = find(id);
  if (!t) return;
  --t->outstanding;
  // kSegway drops a cancelled transaction's late flips; the two-phase
  // controller counts every ack up to its barrier.
  if (t->cancelled && !two_phase()) {
    check_stalled(now, id);
    return;
  }
  if (ok) {
    ++t->out.flips;
    obs_flips_.inc();
    t->flip_order.push_back(seg);
    t->last_flip = std::max(t->last_flip, landed);
    obs::trace_event(obs::update_phase_event(
        landed, obs::kUpdateFlip, static_cast<std::uint32_t>(id),
        static_cast<std::uint32_t>(seg)));
  } else {
    note_failed_op(*t);
    t->failed = true;
  }
  if (two_phase()) {
    // The flip phase's barrier, as for the adds.
    if (t->outstanding == 0) two_phase_finish(now, id);
    return;
  }
  if (t->failed) {
    check_stalled(now, id);
    return;
  }
  --t->flips_left;

  // Release dependents (out-of-order segments waiting on this flip).
  for (int d : t->dependents[static_cast<std::size_t>(seg)]) {
    SegState& ds = t->segs[static_cast<std::size_t>(d)];
    if (--ds.deps_pending == 0) maybe_flip(now, id, d);
  }
  // Release removal groups this flip was gating.
  const auto& groups = t->req.plan.removals;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& gate = groups[g].gate_flips;
    if (std::find(gate.begin(), gate.end(), seg) == gate.end()) continue;
    if (--t->removal_pending[g] == 0)
      maybe_remove(now, id, static_cast<int>(g));
  }

  if (t->flips_left == 0) {
    commit(now, *t);
    finish(now, id);
  }
}

std::vector<UpdateCoordinator::OldRule> UpdateCoordinator::removals(
    const Txn& t, int group) const {
  const net::RemovalGroup& g =
      t.req.plan.removals[static_cast<std::size_t>(group)];
  std::vector<OldRule> olds;
  olds.reserve(g.remove_nodes.size());
  for (net::NodeId n : g.remove_nodes) {
    auto it = t.req.old_rules.find(n);
    if (it != t.req.old_rules.end()) {
      olds.push_back(OldRule{n, it->second, false});
    } else {
      net::Rule synth{net::kInvalidRuleId, 0, {},
                      net::forward_to(static_cast<int>(old_successor(t, n)))};
      olds.push_back(OldRule{n, synth, true});
    }
  }
  return olds;
}

void UpdateCoordinator::maybe_remove(Time now, std::uint64_t id, int group) {
  Txn* t = find(id);
  if (!t || t->failed || t->cancelled) return;
  // Capture the rules by value: the transaction may commit (and be
  // erased) before the removal signal arrives.
  events_.schedule(now + config_.signal_delay,
                   [this, id, olds = removals(*t, group)](Time tnow) {
                     for (const OldRule& old : olds)
                       issue_removal(tnow, id, old);
                   });
}

void UpdateCoordinator::issue_removal(Time now, std::uint64_t id,
                                      const OldRule& old) {
  Txn* t = find(id);
  if (t && (t->failed || t->cancelled)) return;
  obs_removes_.inc();
  // While the transaction is alive the delete counts as an outstanding
  // op, so an abort elsewhere waits for it (rollback must re-install
  // AFTER the delete completed, not racing it).
  if (t) ++t->outstanding;
  auto [c, ok] = dispatch_op(now, old.sw, delete_mod(old.rule.id), old.virt);
  if (!t) return;
  events_.schedule(c, [this, id, old, ok](Time t2) {
    Txn* txn = find(id);
    if (!txn) return;
    --txn->outstanding;
    if (ok) {
      txn->removed.push_back(old);
    } else {
      // The old rule survived its delete — nothing for rollback to
      // restore; counted, not fatal (the update itself is already
      // consistent).
      note_failed_op(*txn);
    }
    check_stalled(t2, id);
  });
}

void UpdateCoordinator::check_stalled(Time now, std::uint64_t id) {
  Txn* t = find(id);
  if (!t || t->outstanding > 0 || t->rolling_back) return;
  if (t->cancelled) {
    finish_cancelled(now, id);
  } else if (t->failed) {
    start_rollback(now, id);
  }
}

void UpdateCoordinator::start_rollback(Time now, std::uint64_t id) {
  Txn& t = *find(id);
  t.rolling_back = true;
  note_abort(now, t);
  // Reverse of add-before-flip: FIRST re-install the old rules whose
  // gated removal already landed (their upstream commons are about to be
  // un-flipped back onto them), THEN un-flip, THEN delete the adds.
  if (t.removed.empty()) {
    rollback_next_flip(now, id, t.flip_order.size());
    return;
  }
  t.outstanding = static_cast<int>(t.removed.size());
  for (const OldRule& old : t.removed) {
    auto [c, ok] = dispatch_op(
        now, old.sw, net::FlowMod{net::FlowModType::kInsert, old.rule},
        old.virt);
    if (!ok) note_failed_op(t);
    events_.schedule(c, [this, id](Time t2) {
      Txn* txn = find(id);
      if (txn && --txn->outstanding == 0)
        rollback_next_flip(t2, id, txn->flip_order.size());
    });
  }
}

void UpdateCoordinator::rollback_next_flip(Time now, std::uint64_t id,
                                           std::size_t idx) {
  Txn* t = find(id);
  if (!t) return;
  if (idx == 0) {
    // All flipped entries restored — the add rules are unreachable again
    // and can be deleted without a barrier.
    delete_adds(now, *t);
    obs_rollback_flips_.inc(
        static_cast<std::uint64_t>(t->out.rollback_flips));
    finish(now, id);
    return;
  }
  const int seg = t->flip_order[idx - 1];
  const net::NodeId entry =
      t->req.plan.segments[static_cast<std::size_t>(seg)].entry;
  const bool virt = is_virtual(*t, entry);
  auto old_it = t->req.old_rules.find(entry);
  if (old_it == t->req.old_rules.end() && !virt) {
    // The flip was an insert (no pre-existing rule at this common): it
    // is recorded in `added` and retired by delete_adds() once every
    // upstream entry has been restored. Nothing to un-flip here.
    events_.schedule(now + config_.signal_delay, [this, id, idx](Time t3) {
      rollback_next_flip(t3, id, idx - 1);
    });
    return;
  }
  const net::Rule restore =
      virt ? net::Rule{net::kInvalidRuleId, 0, {},
                       net::forward_to(
                           static_cast<int>(old_successor(*t, entry)))}
           : old_it->second;
  ++t->out.rollback_flips;
  auto [c, ok] = dispatch_op(
      now, entry, net::FlowMod{net::FlowModType::kModify, restore}, virt);
  events_.schedule(c, [this, id, idx, entry, restore, ok](Time t2) {
    Txn* txn = find(id);
    if (!txn) return;
    Time next = t2;
    if (!ok) {
      // The modify was refused — a reset wiped the flipped rule. Hermes
      // reconciliation reinstalls from the RuleStore; mirror that by
      // re-inserting the original old rule so the abort still converges
      // to the OLD state.
      note_failed_op(*txn);
      auto [c2, ok2] = dispatch_op(
          t2, entry, net::FlowMod{net::FlowModType::kInsert, restore}, false);
      if (!ok2) note_failed_op(*txn);
      next = c2;
    }
    events_.schedule(next + config_.signal_delay, [this, id, idx](Time t3) {
      rollback_next_flip(t3, id, idx - 1);
    });
  });
}

void UpdateCoordinator::delete_adds(Time now, Txn& t) {
  for (const auto& [sw, rid] : t.added)
    dispatch_op(now, sw, delete_mod(rid), false);
}

void UpdateCoordinator::note_failed_op(Txn& t) {
  ++t.out.failed_ops;
  obs_failed_ops_.inc();
}

void UpdateCoordinator::note_abort(Time now, const Txn& t) {
  obs_aborted_.inc();
  obs::trace_event(obs::update_phase_event(
      now, obs::kUpdateAbort, static_cast<std::uint32_t>(t.out.txn), 0,
      static_cast<std::uint32_t>(t.out.failed_ops)));
}

void UpdateCoordinator::commit(Time now, Txn& t) {
  t.out.committed = true;
  t.out.done = t.last_flip;
  obs_committed_.inc();
  obs_completion_ns_.record(
      static_cast<std::uint64_t>(t.out.done - t.out.begin));
  obs::trace_event(obs::update_phase_event(
      now, obs::kUpdateCommit, static_cast<std::uint32_t>(t.out.txn),
      static_cast<std::uint32_t>(t.out.flips)));
}

void UpdateCoordinator::finish_cancelled(Time now, std::uint64_t id) {
  delete_adds(now, *find(id));
  obs_cancelled_.inc();
  finish(now, id);
}

void UpdateCoordinator::finish(Time now, std::uint64_t id) {
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  Txn t = std::move(it->second);
  txns_.erase(it);
  --active_;
  t.out.cancelled = t.cancelled;
  if (!t.out.committed) t.out.done = now;
  if (t.done) t.done(now, t.out);
}

// --- kTwoPhase -------------------------------------------------------------

void UpdateCoordinator::two_phase_flips(Time now, std::uint64_t id) {
  Txn* t = find(id);
  if (!t) return;
  // The naive controller fires every flip as fast as it can serialize
  // them, ignoring segment dependencies — this is where out-of-order
  // reroutes transiently loop.
  Time send = now + config_.ctrl_rtt / 2;
  for (int seg = 0; seg < static_cast<int>(t->segs.size()); ++seg) {
    ++t->outstanding;
    events_.schedule(send, [this, id, seg](Time tnow) {
      issue_flip(tnow, id, seg);
    });
    send += config_.ctrl_send_gap;
  }
}

void UpdateCoordinator::two_phase_finish(Time now, std::uint64_t id) {
  Txn& t = *find(id);
  if (t.cancelled) {
    finish_cancelled(now, id);
    return;
  }
  if (t.failed) {
    // The naive controller has no per-segment rollback protocol: a
    // phase-2 partial failure simply gives up, stranding the network in
    // a MIXED old/new state (some entries flipped, some not). The update
    // regression suite pins this down as the behavior Hermes avoids.
    note_abort(now, t);
    finish(now, id);
    return;
  }
  commit(now, t);
  // Phase 3: retire every old-path-only rule, one controller fan-out.
  // The transaction finishes first, so nothing waits for these deletes.
  Time send = now + config_.ctrl_rtt / 2;
  for (int g = 0; g < static_cast<int>(t.req.plan.removals.size()); ++g) {
    for (const OldRule& old : removals(t, g)) {
      events_.schedule(send, [this, id, old](Time tnow) {
        issue_removal(tnow, id, old);
      });
      send += config_.ctrl_send_gap;
    }
  }
  finish(now, id);
}

void UpdateCoordinator::cancel(std::uint64_t txn) {
  Txn* t = find(txn);
  if (!t || t->cancelled) return;
  t->cancelled = true;
  // With nothing in flight no completion will notice the cancel, so
  // finish it from the queue.
  if (t->outstanding == 0 && !t->rolling_back)
    events_.schedule(events_.now(), [this, txn](Time now) {
      check_stalled(now, txn);
    });
}

}  // namespace hermes::update
