#include "baselines/plain_switch.h"

namespace hermes::baselines {

PlainSwitch::PlainSwitch(const tcam::SwitchModel& model, int tcam_capacity)
    : name_(model.name()), asic_(model, {tcam_capacity}) {}

Time PlainSwitch::handle(Time now, const net::FlowMod& mod) {
  Time done = submit_with_retry(asic_, now, mod);
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
    Time done = submit_with_retry(asic_, now, mod, &result);
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
