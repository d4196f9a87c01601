#include "hermes/qos_api.h"

#include <algorithm>
#include <utility>

namespace hermes::core {

void QoSManager::register_switch(SwitchId id, const tcam::SwitchModel& model,
                                 int tcam_capacity) {
  switches_[id] = SwitchEntry{&model, tcam_capacity, kInvalidShadowId};
}

void QoSManager::carve(QosEntry& entry, const SwitchEntry& sw,
                       Duration guarantee, RulePredicate predicate) {
  HermesConfig config;
  config.guarantee = guarantee;
  config.predicate = predicate;
  auto agent = std::make_unique<HermesAgent>(*sw.model, sw.tcam_capacity,
                                             std::move(config));
  // Re-carving TCAM slices requires an empty shadow slice on real
  // hardware too, so the old agent's installed rules are replayed into
  // the new one.
  if (entry.agent)
    for (const net::Rule& rule : entry.agent->store().all_originals())
      agent->insert(0, rule);
  entry.agent = std::move(agent);
  entry.predicate = std::move(predicate);
  entry.descriptor.guarantee = guarantee;
  entry.descriptor.shadow_capacity = entry.agent->shadow_capacity();
  entry.descriptor.max_burst_rate = entry.agent->admitted_rate();
  entry.descriptor.tcam_overhead = entry.agent->tcam_overhead();
}

std::optional<QoSDescriptor> QoSManager::CreateTCAMQoS(
    SwitchId switch_id, Duration perf_guarantee,
    RulePredicate match_predicate) {
  auto it = switches_.find(switch_id);
  if (it == switches_.end()) return std::nullopt;
  SwitchEntry& sw = it->second;
  if (sw.active != kInvalidShadowId) return std::nullopt;  // already configured
  if (sw.model->base_latency() > perf_guarantee) return std::nullopt;

  QosEntry entry;
  entry.descriptor.id = next_shadow_id_++;
  entry.descriptor.switch_id = switch_id;
  carve(entry, sw, perf_guarantee, std::move(match_predicate));
  sw.active = entry.descriptor.id;
  QoSDescriptor desc = entry.descriptor;
  configs_.emplace(desc.id, std::move(entry));
  return desc;
}

bool QoSManager::DeleteQoS(ShadowId shadow_id) {
  auto it = configs_.find(shadow_id);
  if (it == configs_.end()) return false;
  auto sw = switches_.find(it->second.descriptor.switch_id);
  if (sw != switches_.end()) sw->second.active = kInvalidShadowId;
  configs_.erase(it);
  return true;
}

bool QoSManager::ModQoSConfig(ShadowId shadow_id, Duration perf_guarantee) {
  auto it = configs_.find(shadow_id);
  if (it == configs_.end()) return false;
  QosEntry& entry = it->second;
  auto sw = switches_.find(entry.descriptor.switch_id);
  if (sw == switches_.end()) return false;
  if (sw->second.model->base_latency() > perf_guarantee) return false;
  carve(entry, sw->second, perf_guarantee, entry.predicate);
  return true;
}

bool QoSManager::ModQoSMatch(ShadowId shadow_id,
                             RulePredicate match_predicate) {
  auto it = configs_.find(shadow_id);
  if (it == configs_.end()) return false;
  QosEntry& entry = it->second;
  auto sw = switches_.find(entry.descriptor.switch_id);
  if (sw == switches_.end()) return false;
  // The predicate only affects future routing decisions, but HermesAgent
  // takes it at construction: re-carve with the same guarantee.
  carve(entry, sw->second, entry.descriptor.guarantee,
        std::move(match_predicate));
  return true;
}

double QoSManager::QoSOverheads(SwitchId switch_id, Duration perf_guarantee,
                                const RulePredicate&) const {
  auto it = switches_.find(switch_id);
  if (it == switches_.end()) return -1.0;
  const SwitchEntry& sw = it->second;
  if (sw.model->base_latency() > perf_guarantee) return -1.0;
  int shadow =
      HermesAgent::derive_shadow_capacity(*sw.model, perf_guarantee);
  shadow = std::min(shadow, sw.tcam_capacity / 2);
  return static_cast<double>(shadow) / static_cast<double>(sw.tcam_capacity);
}

HermesAgent* QoSManager::agent(ShadowId shadow_id) {
  auto it = configs_.find(shadow_id);
  return it == configs_.end() ? nullptr : it->second.agent.get();
}

const QoSDescriptor* QoSManager::descriptor(ShadowId shadow_id) const {
  auto it = configs_.find(shadow_id);
  return it == configs_.end() ? nullptr : &it->second.descriptor;
}

}  // namespace hermes::core
