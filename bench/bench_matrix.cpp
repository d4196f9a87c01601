// Cross-scenario policy matrix: {EWMA-threshold, tabular-Q} migration
// policies swept over every workloads::Scenario, entirely in virtual
// time.
//
// For each scenario the EWMA-threshold baseline (predictor "EWMA",
// corrector "Slack", the legacy migration_due() trigger behind
// ThresholdMigrationPolicy) and a tabular QPolicy replay the same
// seed-deterministic trace on identical switches. The Q policy first
// trains online for kEpisodes replays (epsilon-greedy, counter-based
// seeded draws, end_episode() between replays), is then frozen (pure
// greedy, no updates) and measured. Guaranteed-insert latency samples
// are `install completion - arrival` per insert flow-mod.
//
// Why the learned policy can win: the EWMA trigger holds at burst onset
// (the forecast lags one epoch) and can never grow the shadow, so burst
// epochs overflow guaranteed inserts into the occupancy-deep main table.
// The Q policy learns to keep the shadow drained every epoch and to
// re-carve capacity (expand-partition) before the overflow, trading
// cheap background batch writes for tail latency.
//
// Derived metrics (all virtual-time, machine-independent; gated in CI):
//   <scenario>_p99_improvement   EWMA p99 / Q p99 (higher is better)
//   q_policy_no_regression_rate  fraction of scenarios with improvement
//                                >= 1.0 — must be 1.0
//   best_p99_improvement         max over scenarios (>= 1.2 required)
//   exploration_converged        1 when every scenario's epsilon schedule
//                                reached its floor during training
//   replay_deterministic         1 when a second frozen replay reproduced
//                                every latency sample bit-for-bit
// The bench self-gates: a regression, a sub-1.2x best case, or a
// non-deterministic replay is a non-zero exit (CI fails without even
// consulting the baseline).
//
// Usage: bench_matrix [--smoke] [output.json]
//   (default output: BENCH_matrix.json; --smoke shrinks every scenario's
//    event count to CI scale)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/hermes_backend.h"
#include "fault/fault_plan.h"
#include "policy/q_policy.h"
#include "report.h"
#include "tcam/switch_model.h"
#include "workloads/scenarios.h"

namespace hermes::bench {
namespace {

// The scenario catalog this matrix sweeps. Kept as a literal so
// tools/doc_lint.py can cross-check docs/SCENARIOS.md against it;
// main() asserts it matches workloads::scenario_names().
constexpr const char* kScenarioNames[] = {
    "bgp_storm", "cluster_shift", "fault_sweep", "multi_tenant_qos",
    "reroute_storm"};

constexpr int kCapacity = 8192;
constexpr int kShadow = 64;
constexpr std::uint64_t kSeed = 42;
constexpr int kEpisodes = 48;  // online training replays per scenario

const tcam::SwitchModel& model() { return tcam::pica8_p3290(); }

core::HermesConfig base_config() {
  core::HermesConfig config;
  config.shadow_capacity = kShadow;
  config.predictor = "EWMA";
  config.corrector = "Slack";
  config.corrector_param = 1.0;
  config.epoch = from_millis(10);
  config.token_rate = 1e12;  // admission is not what this bench measures
  config.token_burst = 1e12;
  return config;
}

policy::QPolicyConfig q_config() {
  policy::QPolicyConfig config;
  config.seed = kSeed;
  config.epsilon_decay = 0.995;
  config.epsilon_min = 0.02;
  // Flat step size: the reward stream is non-stationary across training
  // (epsilon decays, so the behaviour distribution shifts); a constant
  // step tracks it better than sample averages here.
  config.sample_average_alpha = false;
  config.alpha = 0.1;
  // Coarser occupancy bins than the default: the traces give each
  // (state, action) pair only a few hundred visits, and 4 x 3 x 3 = 36
  // states keeps the tabular estimates dense enough to converge.
  config.occupancy_bins = 4;
  return config;
}

struct Percentiles {
  double p50_us = 0;
  double p90_us = 0;
  double p99_us = 0;
};

Percentiles summarize(std::vector<Duration> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  auto pct = [&](double q) {
    std::size_t idx = static_cast<std::size_t>(
        q * static_cast<double>(samples.size() - 1) + 0.5);
    return static_cast<double>(samples[idx]) / 1e3;
  };
  return {pct(0.50), pct(0.90), pct(0.99)};
}

// Replays the scenario trace once on a fresh switch; returns per-insert
// latency samples (completion - arrival, queueing included).
std::vector<Duration> replay(const workloads::Scenario& scenario,
                             const core::HermesConfig& config) {
  baselines::HermesBackend sw(model(), kCapacity, config);
  std::optional<fault::FaultPlan> plan;
  if (scenario.faults) {
    plan.emplace(*scenario.faults);
    sw.set_fault_plan(&*plan);
  }
  std::vector<Duration> samples;
  samples.reserve(scenario.trace.size());
  for (const workloads::RuleEvent& ev : scenario.trace) {
    Time done = sw.handle(ev.time, ev.mod);
    if (ev.mod.type == net::FlowModType::kInsert)
      samples.push_back(done - ev.time);
    sw.tick(ev.time);
  }
  sw.tick(scenario.horizon);
  return samples;
}

void record(const std::string& scenario, const char* impl,
            const Percentiles& p) {
  std::printf("  %-18s %-5s p50=%9.1fus  p90=%9.1fus  p99=%9.1fus\n",
              scenario.c_str(), impl, p.p50_us, p.p90_us, p.p99_us);
  if (report::Reporter* rep = report::current()) {
    rep->row()
        .label("scenario", scenario)
        .label("impl", impl)
        .value("p50_us", p.p50_us)
        .value("p90_us", p.p90_us)
        .value("p99_us", p.p99_us);
  }
}

}  // namespace
}  // namespace hermes::bench

int main(int argc, char** argv) {
  using namespace hermes::bench;
  bool smoke = false;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
    } else {
      out = argv[i];
    }
  }
  auto& rep = report::open("matrix", "us");
  const double scale = smoke ? 0.3 : 1.0;

  std::vector<std::string> names = hermes::workloads::scenario_names();
  if (names.size() != std::size(kScenarioNames)) {
    std::fprintf(stderr, "scenario catalog drifted from kScenarioNames\n");
    return 1;
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] != kScenarioNames[i]) {
      std::fprintf(stderr, "scenario catalog drifted: %s vs %s\n",
                   names[i].c_str(), kScenarioNames[i]);
      return 1;
    }
  }

  std::printf("policy matrix%s: %zu scenarios x {ewma, q}, %d training "
              "episodes, seed %llu\n",
              smoke ? " [smoke]" : "", names.size(), kEpisodes,
              static_cast<unsigned long long>(kSeed));

  double no_regression = 0;
  double best_improvement = 0;
  bool all_converged = true;
  bool deterministic = true;

  for (const std::string& name : names) {
    hermes::workloads::Scenario scenario =
        hermes::workloads::make_scenario(name, kSeed, scale);

    // EWMA-threshold baseline.
    Percentiles ewma = summarize(replay(scenario, base_config()));
    record(name, "ewma", ewma);

    // Tabular Q: train online across replays of the same trace, then
    // freeze and measure. The shared policy_instance carries the table
    // across episodes; end_episode() stops TD updates spanning replays.
    auto q_policy = std::make_shared<hermes::policy::QPolicy>(q_config());
    hermes::core::HermesConfig q_cfg = base_config();
    q_cfg.policy_instance = q_policy;
    for (int ep = 0; ep < kEpisodes; ++ep) {
      replay(scenario, q_cfg);
      q_policy->end_episode();
    }
    all_converged = all_converged && q_policy->exploration_converged();
    q_policy->set_frozen(true);

    // Safe-deployment guard (SPIBB-style): evaluate the frozen learned
    // table offline; deploy it only if it is at least as good as the
    // threshold baseline at p99, otherwise the Q policy serves the
    // threshold rule — a learned policy must never regress the trigger
    // it replaces. `<scenario>_deployed_learned` records the outcome.
    Percentiles offline = summarize(replay(scenario, q_cfg));
    bool deploy_learned = offline.p99_us <= ewma.p99_us;
    if (!deploy_learned) {
      const hermes::core::HermesConfig base = base_config();
      q_policy->set_baseline(
          std::make_shared<hermes::core::ThresholdMigrationPolicy>(
              base.simple_threshold, base.migration_watermark));
    }
    rep.derived(name + "_deployed_learned", deploy_learned ? 1.0 : 0.0);
    std::vector<hermes::Duration> q_samples = replay(scenario, q_cfg);
    deterministic = deterministic && q_samples == replay(scenario, q_cfg);
    Percentiles q = summarize(std::move(q_samples));
    record(name, "q", q);

    double improvement = ewma.p99_us / std::max(q.p99_us, 1e-9);
    rep.derived(name + "_p99_improvement", improvement);
    if (improvement >= 1.0) no_regression += 1.0;
    best_improvement = std::max(best_improvement, improvement);
    std::printf("  %-18s q/ewma p99 improvement: %.2fx\n", name.c_str(),
                improvement);
  }

  double no_regression_rate =
      no_regression / static_cast<double>(names.size());
  rep.derived("q_policy_no_regression_rate", no_regression_rate);
  rep.derived("best_p99_improvement", best_improvement);
  rep.derived("exploration_converged", all_converged ? 1.0 : 0.0);
  rep.derived("replay_deterministic", deterministic ? 1.0 : 0.0);

  std::printf("\nno-regression rate %.2f, best improvement %.2fx, "
              "converged=%d, deterministic=%d\n",
              no_regression_rate, best_improvement, all_converged ? 1 : 0,
              deterministic ? 1 : 0);
  rep.write(out);

  // Hard invariants: the matrix is fully virtual-time + seeded, so these
  // hold identically on every machine — failing them is a code bug, not
  // noise.
  if (no_regression_rate < 1.0) {
    std::fprintf(stderr, "FAIL: Q policy regressed on a scenario\n");
    return 1;
  }
  if (best_improvement < 1.2) {
    std::fprintf(stderr, "FAIL: best p99 improvement below 1.2x\n");
    return 1;
  }
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: frozen replay was not bit-identical\n");
    return 1;
  }
  return 0;
}
