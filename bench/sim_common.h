// Shared simulation scenarios for the figure benches (Figs 1, 8, 9, 10,
// 11): the Facebook MapReduce data-center scenario and the Geant ISP
// scenario, plus helpers to run them against a chosen control-plane
// backend and to record the flow-mod stream a scenario generates.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/espres.h"
#include "baselines/hermes_backend.h"
#include "baselines/plain_switch.h"
#include "baselines/tango.h"
#include "bench/common.h"
#include "sim/simulation.h"
#include "tcam/switch_model.h"
#include "workloads/facebook.h"
#include "workloads/gravity.h"

namespace hermes::bench {

struct SimScenario {
  std::string name;
  net::Topology topology;
  std::vector<workloads::Job> jobs;
  std::vector<workloads::FlowArrival> isp_flows;
  sim::SimConfig base_config;
};

/// Facebook MapReduce on a fat-tree. The paper runs k=16 (1024 hosts);
/// the default here is k=8 for bench runtime — pass 16 to reproduce at
/// full scale.
inline SimScenario facebook_scenario(int k = 8, int job_count = 450,
                                     std::uint64_t seed = 1) {
  SimScenario s;
  s.name = "Facebook";
  // 1 Gbps access links: the cluster runs hot enough that elephants
  // collide and the TE app has real work (the paper's k=16/40G cluster is
  // proportionally loaded by its 24402-job trace).
  s.topology = net::fat_tree(k, /*link_bps=*/1e9);
  workloads::FacebookConfig fb;
  fb.job_count = job_count;
  fb.duration_s = 30.0;
  fb.mean_flow_mb = 6.0;
  fb.seed = seed;
  s.jobs = workloads::facebook_jobs(fb, s.topology.hosts());
  s.base_config.congestion_threshold = 0.40;
  s.base_config.max_moves_per_cycle = 256;
  s.base_config.te_period = from_millis(100);
  s.base_config.seed = seed;
  return s;
}

/// Gravity-model traffic on the Geant ISP topology.
inline SimScenario geant_scenario(std::uint64_t seed = 1) {
  SimScenario s;
  s.name = "Geant";
  s.topology = net::geant();
  workloads::GravityConfig g;
  g.total_traffic_bps = 14e9;
  g.mean_flow_bytes = 2e7;
  g.duration_s = 20.0;
  g.seed = seed;
  s.isp_flows = workloads::gravity_flows(s.topology, g);
  s.base_config.congestion_threshold = 0.55;
  s.base_config.te_period = from_millis(100);
  s.base_config.seed = seed;
  return s;
}

/// Pre-installs `count` steady-state rules (the switch's resident FIB /
/// ACL content) below the TE app's priority band. This occupancy is what
/// makes priority-bearing inserts expensive on real switches — an empty
/// TCAM would hide the entire effect (Section 2.1).
inline void prepopulate(baselines::SwitchBackend& sw, int count) {
  for (int i = 0; i < count; ++i) {
    net::Rule rule{static_cast<net::RuleId>(3'000'000 + i),
                   1 + (i % 90),
                   net::Prefix(net::Ipv4Address(
                                   0xC0000000u +
                                   (static_cast<std::uint32_t>(i) << 8)),
                               24),
                   net::forward_to(i % 48)};
    sw.handle(0, {net::FlowModType::kInsert, rule});
  }
  // Settle the baseline at t=0: flush batching baselines, drain Hermes's
  // shadow table, and reset the control channel so the workload starts
  // against a quiet, fully-populated switch.
  if (auto* espres = dynamic_cast<baselines::EspresSwitch*>(&sw)) {
    espres->flush(0);
    espres->asic().reset_channel();
  }
  if (auto* tango = dynamic_cast<baselines::TangoSwitch*>(&sw)) {
    tango->flush(0);
    tango->asic().reset_channel();
  }
  if (auto* hermes = dynamic_cast<baselines::HermesBackend*>(&sw)) {
    hermes->agent().migrate_now(0);
    hermes->agent().asic().reset_channel();
  }
  if (auto* plain = dynamic_cast<baselines::PlainSwitch*>(&sw))
    plain->asic().reset_channel();
  sw.clear_rit_samples();
}

inline constexpr int kBaselineRules = 800;

/// Backend kinds understood by run_scenario. "perfect" = zero-latency
/// control plane (the Figure 1 ideal).
inline sim::BackendFactory scenario_factory(const std::string& kind,
                                            const tcam::SwitchModel& model,
                                            int tcam_capacity = 4000,
                                            int baseline_rules =
                                                kBaselineRules) {
  if (kind == "perfect") return nullptr;
  return [kind, &model, tcam_capacity, baseline_rules](
             net::NodeId, const std::string&)
             -> std::unique_ptr<baselines::SwitchBackend> {
    auto backend = baselines::make_backend(kind, model, tcam_capacity);
    prepopulate(*backend, baseline_rules);
    return backend;
  };
}

struct SimOutcome {
  std::vector<sim::JobResult> jobs;
  std::vector<sim::FlowResult> flows;
  std::vector<double> rit_ms;
  int moves = 0;
};

inline SimOutcome run_scenario(const SimScenario& scenario,
                               const std::string& backend_kind,
                               const tcam::SwitchModel& model) {
  sim::SimConfig config = scenario.base_config;
  config.backend_factory = scenario_factory(backend_kind, model);
  sim::Simulation simulation(scenario.topology, config);
  if (!scenario.jobs.empty()) simulation.add_jobs(scenario.jobs);
  if (!scenario.isp_flows.empty()) simulation.add_flows(scenario.isp_flows);
  simulation.run();
  SimOutcome outcome;
  outcome.jobs = simulation.job_results();
  outcome.flows = simulation.flow_results();
  outcome.rit_ms = to_ms(simulation.all_rit_samples());
  outcome.moves = simulation.total_moves();
  return outcome;
}

/// A zero-latency backend that records every flow-mod it receives, used
/// to extract the control-plane trace a scenario drives into its busiest
/// switch (so replay-style benches exercise the exact same stream).
class RecordingBackend final : public baselines::SwitchBackend {
 public:
  Time handle(Time now, const net::FlowMod& mod) override {
    trace_.push_back({now, mod});
    if (mod.type == net::FlowModType::kInsert) rit_.push_back(0);
    return now;
  }
  void tick(Time) override {}
  const net::Rule* lookup_ptr(Time, net::Ipv4Address) override {
    return nullptr;
  }
  std::string_view name() const override { return "recorder"; }
  const std::vector<Duration>& rit_samples() const override { return rit_; }
  void clear_rit_samples() override { rit_.clear(); }

  const workloads::RuleTrace& trace() const { return trace_; }

 private:
  workloads::RuleTrace trace_;
  std::vector<Duration> rit_;
};

/// Runs the scenario once with recording backends and returns the flow-mod
/// trace seen by the switch that received the most actions.
inline workloads::RuleTrace busiest_switch_trace(
    const SimScenario& scenario) {
  sim::SimConfig config = scenario.base_config;
  std::vector<RecordingBackend*> recorders;
  config.backend_factory = [&recorders](net::NodeId, const std::string&) {
    auto recorder = std::make_unique<RecordingBackend>();
    recorders.push_back(recorder.get());
    return recorder;
  };
  sim::Simulation simulation(scenario.topology, config);
  if (!scenario.jobs.empty()) simulation.add_jobs(scenario.jobs);
  if (!scenario.isp_flows.empty()) simulation.add_flows(scenario.isp_flows);
  simulation.run();
  const RecordingBackend* busiest = nullptr;
  for (const RecordingBackend* r : recorders) {
    if (!busiest || r->trace().size() > busiest->trace().size()) busiest = r;
  }
  return busiest ? busiest->trace() : workloads::RuleTrace{};
}

}  // namespace hermes::bench
