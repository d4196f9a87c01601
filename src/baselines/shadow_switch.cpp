#include "baselines/shadow_switch.h"

#include <algorithm>
#include <cassert>

namespace hermes::baselines {

ShadowSwitchBackend::ShadowSwitchBackend(const tcam::SwitchModel& model,
                                         int tcam_capacity,
                                         Duration software_insert,
                                         Duration flush_period)
    : asic_(model, {tcam_capacity}),
      software_insert_(software_insert),
      flush_period_(flush_period),
      next_flush_(flush_period) {}

bool ShadowSwitchBackend::software_erase(net::RuleId id) {
  auto it = software_.find(id);
  if (it == software_.end()) return false;
  sw_engine_.erase(it->second);
  software_.erase(it);
  return true;
}

void ShadowSwitchBackend::software_install(const net::Rule& rule) {
  software_erase(rule.id);
  software_.emplace(rule.id, rule);
  sw_engine_.insert(rule, seq_++);
}

Time ShadowSwitchBackend::handle(Time now, const net::FlowMod& mod) {
  switch (mod.type) {
    case net::FlowModType::kInsert: {
      // The control-plane action completes at software speed — that is
      // ShadowSwitch's whole point. A flushed copy of the id is replaced,
      // so it leaves the TCAM.
      if (asic_.slice(0).contains(mod.rule.id))
        asic_.submit(now, 0, {net::FlowModType::kDelete, mod.rule});
      software_install(mod.rule);
      obs_software_resident_.set(software_resident());
      rit_samples_.push_back(software_insert_);
      return now + software_insert_;
    }
    case net::FlowModType::kDelete: {
      if (software_erase(mod.rule.id)) {
        obs_software_resident_.set(software_resident());
        return now + software_insert_;
      }
      return asic_.submit(now, 0, mod);
    }
    case net::FlowModType::kModify: {
      if (software_.count(mod.rule.id) > 0) {
        software_install(mod.rule);
        return now + software_insert_;
      }
      return asic_.submit(now, 0, mod);
    }
  }
  return now;
}

void ShadowSwitchBackend::tick(Time now) {
  if (now >= next_flush_ && !software_.empty()) flush(now);
  while (next_flush_ <= now) next_flush_ += flush_period_;
}

Time ShadowSwitchBackend::flush(Time now) {
  if (software_.empty()) return now;
  std::vector<net::Rule> batch;
  batch.reserve(software_.size());
  for (const auto& [id, rule] : software_) batch.push_back(rule);
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
  // `inserted` entries would drop a skipped rule from BOTH tables. So
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

const net::Rule* ShadowSwitchBackend::lookup_ptr(Time now,
                                                 net::Ipv4Address addr) {
  const net::Rule* hw = asic_.lookup_ptr(now, addr);
  const net::Rule* sw = sw_engine_.lookup(addr);
  if (hw && sw) return hw->priority >= sw->priority ? hw : sw;
  return hw != nullptr ? hw : sw;
}

}  // namespace hermes::baselines
