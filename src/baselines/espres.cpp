#include "baselines/espres.h"

#include <algorithm>

namespace hermes::baselines {

EspresSwitch::EspresSwitch(const tcam::SwitchModel& model, int tcam_capacity,
                           Duration batch_window)
    : asic_(model, {tcam_capacity}), batch_window_(batch_window) {}

Time EspresSwitch::handle(Time now, const net::FlowMod& mod) {
  // Deletes and modifies are cheap and order-insensitive: pass through.
  if (mod.type != net::FlowModType::kInsert) return asic_.submit(now, 0, mod);
  if (pending_.empty()) window_deadline_ = now + batch_window_;
  // An insert of an id the switch already holds replaces it: drop the
  // queued copy, or delete the installed one.
  auto queued = std::find_if(
      pending_.begin(), pending_.end(),
      [&](const Pending& p) { return p.mod.rule.id == mod.rule.id; });
  if (queued != pending_.end()) {
    pending_.erase(queued);
  } else if (asic_.slice(0).contains(mod.rule.id)) {
    asic_.submit(now, 0, {net::FlowModType::kDelete, mod.rule});
  }
  pending_.push_back({now, mod});
  // The insert completes when its batch flushes; report the deadline as a
  // lower bound (tick() refines the recorded RIT with the real value).
  return window_deadline_;
}

void EspresSwitch::tick(Time now) {
  if (!pending_.empty() && now >= window_deadline_) flush(now);
}

Time EspresSwitch::flush(Time now) {
  if (pending_.empty()) return now;
  // Schedule: descending priority => every batched insert appends below
  // the previously flushed ones, eliminating intra-batch shifting, and
  // the whole schedule goes to the hardware as ONE update transaction
  // (existing entries move at most once). Stable sort keeps arrival
  // order within one priority level.
  std::stable_sort(pending_.begin(), pending_.end(),
                   [](const Pending& a, const Pending& b) {
                     return a.mod.rule.priority > b.mod.rule.priority;
                   });
  std::vector<net::Rule> batch;
  batch.reserve(pending_.size());
  for (const Pending& p : pending_) batch.push_back(p.mod.rule);
  // The scheduler has no backoff: a failure that truncates the schedule
  // re-submits the un-landed suffix at once, keeping the window's
  // transaction going.
  Time last = submit_batch_with_retry(asic_, now, batch);
  for (const Pending& p : pending_)
    rit_samples_.push_back(last - p.arrival);
  pending_.clear();
  return last;
}

const net::Rule* EspresSwitch::lookup_ptr(Time now, net::Ipv4Address addr) {
  return asic_.lookup_ptr(now, addr);
}

}  // namespace hermes::baselines
