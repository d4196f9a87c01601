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
  pending_.push_back({now, mod});
  // The insert completes when its batch flushes; report the deadline as a
  // lower bound (tick() refines the recorded RIT with the real value).
  return window_deadline_;
}

Time EspresSwitch::handle_batch(Time now, net::FlowModBatch& batch) {
  obs_batch_size_.record(batch.size());
  Time barrier = now;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Time done = handle(now, batch.mod(i));
    batch.complete(i, done);
    if (done > barrier) barrier = done;
  }
  return barrier;
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
  tcam::Asic::BatchResult result;
  Time last = asic_.submit_batch_insert(now, 0, batch, &result);
  if (asic_.fault_plan() != nullptr) {
    // An injected failure truncated the schedule: immediately re-submit
    // the un-landed suffix (the scheduler has no backoff — it just keeps
    // the window's transaction going).
    std::size_t landed = static_cast<std::size_t>(result.inserted);
    for (int attempt = 1;
         attempt <= kFaultRetryLimit && landed < batch.size(); ++attempt) {
      obs_retries_.inc();
      std::vector<net::Rule> rest(
          batch.begin() + static_cast<std::ptrdiff_t>(landed), batch.end());
      tcam::Asic::BatchResult r2;
      last = asic_.submit_batch_insert(last, 0, rest, &r2);
      landed += static_cast<std::size_t>(r2.inserted);
    }
  }
  for (const Pending& p : pending_)
    rit_samples_.push_back(last - p.arrival);
  pending_.clear();
  return last;
}

const net::Rule* EspresSwitch::lookup_ptr(Time now, net::Ipv4Address addr) {
  return asic_.lookup_ptr(now, addr);
}

}  // namespace hermes::baselines
