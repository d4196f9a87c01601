#include "baselines/tango.h"

#include <algorithm>
#include <map>

namespace hermes::baselines {

TangoSwitch::TangoSwitch(const tcam::SwitchModel& model, int tcam_capacity,
                         Duration batch_window)
    : asic_(model, {tcam_capacity}), batch_window_(batch_window) {}

Time TangoSwitch::handle(Time now, const net::FlowMod& mod) {
  switch (mod.type) {
    case net::FlowModType::kInsert: {
      if (logical_.count(mod.rule.id)) {
        // Overwrite semantics: drop the old incarnation first.
        erase_logical(now, mod.rule.id);
      }
      if (pending_.empty()) window_deadline_ = now + batch_window_;
      pending_.push_back({now, mod.rule});
      return window_deadline_;
    }
    case net::FlowModType::kDelete:
      return erase_logical(now, mod.rule.id);
    case net::FlowModType::kModify: {
      // Splitting an aggregate to mutate one constituent is not worth the
      // bookkeeping Tango does not describe; delete + reinstall directly.
      Time t = erase_logical(now, mod.rule.id);
      net::Rule rule = mod.rule;
      logical_[rule.id] = rule;
      net::Rule phys = rule;
      phys.id = next_physical_id_++;
      physical_[phys.id] = PhysicalEntry{phys, {rule.id}};
      logical_to_physical_[rule.id] = phys.id;
      return insert_with_retry(std::max(t, now), phys);
    }
  }
  return now;
}

Time TangoSwitch::handle_batch(Time now, net::FlowModBatch& batch) {
  obs_batch_size_.record(batch.size());
  Time barrier = now;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Time done = handle(now, batch.mod(i));
    batch.complete(i, done);
    if (done > barrier) barrier = done;
  }
  return barrier;
}

void TangoSwitch::tick(Time now) {
  if (!pending_.empty() && now >= window_deadline_) flush(now);
}

Time TangoSwitch::flush(Time now) {
  if (pending_.empty()) return now;
  std::vector<Pending> batch;
  batch.swap(pending_);

  // Rewrite phase: aggregate within (priority, action) groups.
  std::map<std::pair<int, int>, std::vector<Pending>> groups;
  for (Pending& p : batch) {
    int action_key = p.rule.action.type == net::ActionType::kForward
                         ? p.rule.action.port
                         : -1 - static_cast<int>(p.rule.action.type);
    groups[{p.rule.priority, action_key}].push_back(std::move(p));
  }
  // Reorder phase: rewrite every group first, then push the whole
  // schedule (descending priority: no intra-batch shifting) to the
  // hardware as ONE update transaction — existing entries move at most
  // once.
  std::vector<net::Rule> schedule;
  std::vector<Pending> all;
  for (auto it = groups.rbegin(); it != groups.rend(); ++it) {
    const net::Action action = it->second.front().rule.action;
    rewrite_group(it->first.first, action, it->second, schedule);
    for (Pending& p : it->second) all.push_back(std::move(p));
  }
  tcam::Asic::BatchResult result;
  Time last = asic_.submit_batch_insert(now, 0, schedule, &result);
  if (asic_.fault_plan() != nullptr) {
    // Immediately re-submit the suffix an injected failure cut off.
    std::size_t landed = static_cast<std::size_t>(result.inserted);
    for (int attempt = 1;
         attempt <= kFaultRetryLimit && landed < schedule.size(); ++attempt) {
      obs_retries_.inc();
      std::vector<net::Rule> rest(
          schedule.begin() + static_cast<std::ptrdiff_t>(landed),
          schedule.end());
      tcam::Asic::BatchResult r2;
      last = asic_.submit_batch_insert(last, 0, rest, &r2);
      landed += static_cast<std::size_t>(r2.inserted);
    }
  }
  for (const Pending& p : all) rit_samples_.push_back(last - p.arrival);
  return last;
}

Time TangoSwitch::insert_with_retry(Time now, const net::Rule& phys) {
  tcam::ApplyResult result;
  Time done = asic_.submit(now, 0, {net::FlowModType::kInsert, phys}, &result);
  if (!result.ok && asic_.fault_plan() != nullptr) {
    for (int attempt = 1; attempt <= kFaultRetryLimit && !result.ok;
         ++attempt) {
      obs_retries_.inc();
      done =
          asic_.submit(done, 0, {net::FlowModType::kInsert, phys}, &result);
    }
  }
  return done;
}

void TangoSwitch::rewrite_group(int priority, const net::Action& action,
                                const std::vector<Pending>& group,
                                std::vector<net::Rule>& batch) {
  std::vector<net::Prefix> matches;
  matches.reserve(group.size());
  for (const Pending& p : group) matches.push_back(p.rule.match);
  std::vector<net::Prefix> merged = net::merge_prefixes(std::move(matches));
  saved_ += group.size() - merged.size();

  std::vector<net::RuleId> phys_ids;
  phys_ids.reserve(merged.size());
  for (const net::Prefix& prefix : merged) {
    net::Rule phys{next_physical_id_++, priority, prefix, action};
    batch.push_back(phys);
    physical_.emplace(phys.id, PhysicalEntry{phys, {}});
    phys_ids.push_back(phys.id);
  }
  for (const Pending& p : group) {
    logical_[p.rule.id] = p.rule;
    for (net::RuleId pid : phys_ids) {
      if (physical_[pid].rule.match.contains(p.rule.match)) {
        physical_[pid].covers.insert(p.rule.id);
        logical_to_physical_[p.rule.id] = pid;
        break;
      }
    }
  }
}

Time TangoSwitch::erase_logical(Time now, net::RuleId id) {
  // The rule may still be waiting in the pending batch.
  auto pending_it =
      std::find_if(pending_.begin(), pending_.end(),
                   [&](const Pending& p) { return p.rule.id == id; });
  if (pending_it != pending_.end()) {
    pending_.erase(pending_it);
    return now;
  }
  auto log_it = logical_.find(id);
  if (log_it == logical_.end()) return now;
  net::RuleId pid = logical_to_physical_.at(id);
  PhysicalEntry& entry = physical_.at(pid);
  entry.covers.erase(id);
  logical_.erase(log_it);
  logical_to_physical_.erase(id);

  net::FlowMod del{net::FlowModType::kDelete,
                   net::Rule{pid, 0, {}, {}}};
  Time last = asic_.submit(now, 0, del);
  std::vector<net::RuleId> survivors(entry.covers.begin(),
                                     entry.covers.end());
  int priority = entry.rule.priority;
  net::Action action = entry.rule.action;
  physical_.erase(pid);

  if (!survivors.empty()) {
    // Reinstall a (re-merged) cover for the remaining constituents.
    std::vector<net::Prefix> matches;
    for (net::RuleId lid : survivors) {
      matches.push_back(logical_.at(lid).match);
      logical_to_physical_.erase(lid);
    }
    std::vector<net::Prefix> merged = net::merge_prefixes(std::move(matches));
    std::vector<net::RuleId> new_ids;
    for (const net::Prefix& prefix : merged) {
      net::Rule phys{next_physical_id_++, priority, prefix, action};
      last = insert_with_retry(now, phys);
      physical_.emplace(phys.id, PhysicalEntry{phys, {}});
      new_ids.push_back(phys.id);
    }
    for (net::RuleId lid : survivors) {
      for (net::RuleId npid : new_ids) {
        if (physical_[npid].rule.match.contains(logical_.at(lid).match)) {
          physical_[npid].covers.insert(lid);
          logical_to_physical_[lid] = npid;
          break;
        }
      }
    }
  }
  return last;
}

const net::Rule* TangoSwitch::lookup_ptr(Time now, net::Ipv4Address addr) {
  return asic_.lookup_ptr(now, addr);
}

}  // namespace hermes::baselines
