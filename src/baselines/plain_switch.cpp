#include "baselines/plain_switch.h"

namespace hermes::baselines {

PlainSwitch::PlainSwitch(const tcam::SwitchModel& model, int tcam_capacity)
    : name_(model.name()), asic_(model, {tcam_capacity}) {}

Time PlainSwitch::submit_with_retry(Time now, const net::FlowMod& mod,
                                    tcam::ApplyResult* result) {
  tcam::ApplyResult local;
  Time done = asic_.submit(now, 0, mod, &local);
  if (!local.ok && asic_.fault_plan() != nullptr &&
      mod.type == net::FlowModType::kInsert) {
    for (int attempt = 1; attempt <= kFaultRetryLimit && !local.ok;
         ++attempt) {
      obs_retries_.inc();
      done = asic_.submit(done, 0, mod, &local);
    }
  }
  if (result) *result = local;
  return done;
}

Time PlainSwitch::handle(Time now, const net::FlowMod& mod) {
  Time done = submit_with_retry(now, mod, nullptr);
  if (mod.type == net::FlowModType::kInsert)
    rit_samples_.push_back(done - now);
  return done;
}

Time PlainSwitch::handle_batch(Time now, net::FlowModBatch& batch) {
  obs_batch_size_.record(batch.size());
  Time barrier = now;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const net::FlowMod& mod = batch.mod(i);
    tcam::ApplyResult result;
    Time done = submit_with_retry(now, mod, &result);
    if (mod.type == net::FlowModType::kInsert)
      rit_samples_.push_back(done - now);
    batch.complete(i, done, result.ok);
    if (done > barrier) barrier = done;
  }
  return barrier;
}

const net::Rule* PlainSwitch::lookup_ptr(Time now, net::Ipv4Address addr) {
  return asic_.lookup_ptr(now, addr);
}

}  // namespace hermes::baselines
