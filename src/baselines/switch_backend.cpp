#include "baselines/switch_backend.h"

#include "tcam/asic.h"

namespace hermes::baselines {

Time SwitchBackend::submit_with_retry(tcam::Asic& asic, Time now,
                                      const net::FlowMod& mod,
                                      tcam::ApplyResult* result) {
  tcam::ApplyResult local;
  Time done = asic.submit(now, 0, mod, &local);
  if (!local.ok && asic.fault_plan() != nullptr &&
      mod.type == net::FlowModType::kInsert) {
    for (int attempt = 1; attempt <= kFaultRetryLimit && !local.ok;
         ++attempt) {
      obs_retries_.inc();
      done = asic.submit(done, 0, mod, &local);
    }
  }
  if (result) *result = local;
  return done;
}

Time SwitchBackend::submit_batch_with_retry(
    tcam::Asic& asic, Time now, const std::vector<net::Rule>& rules) {
  tcam::Asic::BatchResult result;
  Time last = asic.submit_batch_insert(now, 0, rules, &result);
  if (asic.fault_plan() == nullptr) return last;
  std::size_t landed = static_cast<std::size_t>(result.inserted);
  for (int attempt = 1; attempt <= kFaultRetryLimit && landed < rules.size();
       ++attempt) {
    obs_retries_.inc();
    std::vector<net::Rule> rest(
        rules.begin() + static_cast<std::ptrdiff_t>(landed), rules.end());
    last = asic.submit_batch_insert(last, 0, rest, &result);
    landed += static_cast<std::size_t>(result.inserted);
  }
  return last;
}

}  // namespace hermes::baselines
