#include "tcam/asic.h"

#include <algorithm>
#include <cassert>
#include <span>

namespace hermes::tcam {

Asic::Asic(const SwitchModel& model, std::vector<int> slice_sizes)
    : model_(&model) {
  assert(!slice_sizes.empty());
  slices_.reserve(slice_sizes.size());
  for (int size : slice_sizes) slices_.emplace_back(size);
  busy_until_.assign(slice_sizes.size(), 0);
  channel_stats_.assign(slice_sizes.size(), ChannelStats{});
}

void Asic::apply_pending_resets(Time now) {
  if (fault_plan_ == nullptr) return;
  int fired = fault_plan_->consume_resets(now);
  if (fired == 0) return;
  reset_epoch_ += fired;
  // The switch rebooted: every slice loses its contents and the control
  // channels come back idle from the reset instant.
  for (TcamTable& t : slices_) t.clear();
  Time rebooted = fault_plan_->last_reset_time();
  for (Time& t : busy_until_) t = rebooted;
}

int Asic::total_capacity() const {
  int total = 0;
  for (const TcamTable& t : slices_) total += t.capacity();
  return total;
}

int Asic::total_occupancy() const {
  int total = 0;
  for (const TcamTable& t : slices_) total += t.occupancy();
  return total;
}

bool Asic::modify_changes_priority(int slice_idx,
                                   const net::FlowMod& mod) const {
  const net::Rule* existing = slice(slice_idx).find_ptr(mod.rule.id);
  return existing != nullptr && existing->priority != mod.rule.priority;
}

ApplyResult Asic::apply(int slice_idx, const net::FlowMod& mod,
                        bool inject_insert_failure) {
  TcamTable& table = slice(slice_idx);
  switch (mod.type) {
    case net::FlowModType::kInsert: {
      OpResult r = table.insert(mod.rule);
      // A failed insert still costs a (wasted) control-channel round.
      return {r.ok, r.ok ? model_->insert_latency(r.shifts)
                         : model_->base_latency(),
              r.shifts};
    }
    case net::FlowModType::kDelete: {
      OpResult r = table.erase(mod.rule.id);
      return {r.ok, model_->delete_latency(), 0};
    }
    case net::FlowModType::kModify: {
      const net::Rule* existing = table.find_ptr(mod.rule.id);
      if (!existing) return {false, model_->base_latency(), 0};
      if (existing->priority == mod.rule.priority) {
        // Constant-time in-place rewrite (Section 2.1.1). An action-only
        // modify leaves the engine's match key alone.
        if (existing->match != mod.rule.match)
          table.modify_match(mod.rule.id, mod.rule.match);
        table.modify_action(*existing, mod.rule.action);
        return {true, model_->modify_latency(), 0};
      }
      // Priority change: delete + insert (Section 4.1). The delete always
      // lands, so a failed re-insert must restore the original rule —
      // otherwise the modify silently deletes it and retries fail at the
      // find above.
      net::Rule original = *existing;
      table.erase(mod.rule.id);
      OpResult ins = inject_insert_failure ? OpResult{false, 0}
                                           : table.insert(mod.rule);
      if (!ins.ok) {
        OpResult back = table.insert(original);
        assert(back.ok);  // the erase freed the slot
        obs_modify_rollbacks_.inc();
        // Charged: the delete, the wasted insert round, and the restore.
        return {false,
                model_->delete_latency() + model_->base_latency() +
                    model_->insert_latency(back.shifts),
                back.shifts};
      }
      return {true,
              model_->delete_latency() + model_->insert_latency(ins.shifts),
              ins.shifts};
    }
  }
  return {false, 0, 0};
}

const net::Rule* Asic::lookup_ptr(Time now, net::Ipv4Address addr) {
  apply_pending_resets(now);
  for (TcamTable& t : slices_) {
    if (const net::Rule* r = t.lookup_ptr(addr)) return r;
  }
  return nullptr;
}

Time Asic::occupy_channel(Time now, int slice_idx, Duration& latency,
                          bool injected_failure) {
  ChannelStats& cs = channel_stats_[static_cast<std::size_t>(slice_idx)];
  if (injected_failure) ++cs.injected_failures;
  if (fault_plan_ != nullptr) {
    Duration stall = fault_plan_->stall(now, slice_idx);
    latency += stall;
    cs.stall_ns += stall;
  }
  Time& channel = busy_until_[static_cast<std::size_t>(slice_idx)];
  channel = std::max(now, channel) + latency;
  ++cs.ops;
  cs.busy_ns += latency;
  return channel;
}

Time Asic::submit_batch_insert(Time now, int slice_idx,
                               const std::vector<net::Rule>& rules,
                               BatchResult* result) {
  apply_pending_resets(now);
  // An empty batch is a no-op: no channel occupation, no accounting.
  if (rules.empty()) {
    if (result) *result = {0, 0};
    return now;
  }
  TcamTable& table = slice(slice_idx);
  int occupancy_before = table.occupancy();
  // Fault injection keeps the sequential prefix contract: draw a failure
  // verdict per rule in order and truncate the batch at the first
  // injected failure (the rules after it are never attempted, so they
  // burn no draws — identical to resubmitting them as a fresh batch).
  std::size_t attempt = rules.size();
  bool injected = false;
  if (fault_plan_ != nullptr) {
    for (std::size_t i = 0; i < rules.size(); ++i) {
      if (fault_plan_->fail_write(now, slice_idx)) {
        attempt = i;
        injected = true;
        break;
      }
    }
  }
  const int inserted =
      table
          .insert_batch(std::span<const net::Rule>(rules).first(attempt),
                        /*per_op=*/nullptr, /*stop_at_first_failure=*/true)
          .inserted;
  Duration latency =
      model_->batch_insert_latency(occupancy_before, inserted);
  // The failed attempt still burned a wasted control-channel round.
  if (injected) latency += model_->base_latency();
  Time done = occupy_channel(now, slice_idx, latency, injected);
  obs_batch_ops_.inc();
  obs_batch_rules_.inc(static_cast<std::uint64_t>(inserted));
  obs_batch_latency_.record(static_cast<std::uint64_t>(latency));
  if (result) *result = {inserted, latency};
  return done;
}

Time Asic::submit_batch_delete(Time now, int slice_idx,
                               const std::vector<net::RuleId>& ids,
                               BatchResult* result) {
  apply_pending_resets(now);
  // An empty batch is a no-op: no channel occupation, no accounting.
  if (ids.empty()) {
    if (result) *result = {0, 0};
    return now;
  }
  int removed = slice(slice_idx).erase_batch(ids);
  Duration latency = model_->batch_delete_latency(removed);
  // Deletes never fail under the fault model (a delete on a rebooted
  // switch is a harmless no-op), but they do ride the same stalled
  // channel.
  Time done = occupy_channel(now, slice_idx, latency,
                             /*injected_failure=*/false);
  obs_batch_ops_.inc();
  obs_batch_rules_.inc(static_cast<std::uint64_t>(removed));
  obs_batch_latency_.record(static_cast<std::uint64_t>(latency));
  if (result) *result = {removed, latency};
  return done;
}

Time Asic::submit(Time now, int slice_idx, const net::FlowMod& mod,
                  ApplyResult* result) {
  apply_pending_resets(now);
  ApplyResult r;
  // A write-failure draw is burned only for ops that reach the TCAM
  // insert step: every insert (as before) and a priority-changing modify
  // of a resident rule. In-place modifies and deletes burn no draw, so
  // existing replay sequences are unchanged.
  bool inject =
      fault_plan_ != nullptr &&
      (mod.type == net::FlowModType::kInsert ||
       (mod.type == net::FlowModType::kModify &&
        modify_changes_priority(slice_idx, mod))) &&
      fault_plan_->fail_write(now, slice_idx);
  if (inject && mod.type == net::FlowModType::kInsert) {
    // Injected write failure: the attempt still costs a wasted
    // control-channel round, same as an organic rejection.
    r = {false, model_->base_latency(), 0};
  } else {
    // For a modify the failure strikes the re-insert inside apply(),
    // which rolls the original rule back.
    r = apply(slice_idx, mod, /*inject_insert_failure=*/inject);
  }
  Time done = occupy_channel(now, slice_idx, r.latency, inject);
  obs_op_latency_.record(static_cast<std::uint64_t>(r.latency));
  if (r.ok && r.shifts > 0)
    obs::trace_event(
        obs::tcam_shift_event(now, slice_idx, r.shifts, r.latency));
  if (result) *result = r;
  return done;
}

Time Asic::submit_action(Time now, int slice_idx, const net::Rule& entry,
                         const net::Action& action) {
  const int epoch = reset_epoch_;
  apply_pending_resets(now);
  // A reset that fired just now cleared `entry` with its slice: the
  // modify finds nothing, as apply() would.
  ApplyResult r{false, model_->base_latency(), 0};
  if (reset_epoch_ == epoch) {
    slice(slice_idx).modify_action(entry, action);
    r = {true, model_->modify_latency(), 0};
  }
  Time done = occupy_channel(now, slice_idx, r.latency,
                             /*injected_failure=*/false);
  obs_op_latency_.record(static_cast<std::uint64_t>(r.latency));
  return done;
}

}  // namespace hermes::tcam
