// Determinism property tests (runs under ASan/UBSan via the sanitize
// preset): two runs with the same FaultPlan seed and the same operation
// sequence must produce bit-identical fault schedules, retry behavior,
// completion times, and final slice contents — including the batch path
// and scheduled resets. This is what makes fault experiments replayable.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "baselines/hermes_backend.h"
#include "baselines/plain_switch.h"
#include "fault/fault_plan.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "support/switch_faults.h"
#include "tcam/asic.h"
#include "tcam/switch_model.h"
#include "workloads/trace.h"

namespace hermes::fault {
namespace {

using net::Rule;

Rule synth_rule(net::RuleId id, std::mt19937_64& rng) {
  int priority = static_cast<int>(rng() % 512);
  auto addr = net::Ipv4Address(static_cast<std::uint32_t>(rng()));
  int length = 8 + static_cast<int>(rng() % 17);
  return Rule{id, priority, net::Prefix(addr, length),
              net::forward_to(static_cast<int>(rng() % 8))};
}

FaultPlanConfig stress_config() {
  FaultPlanConfig fc;
  fc.seed = 0xD373;
  fc.default_slice.write_failure_prob = 0.2;
  fc.default_slice.stall_min = from_micros(5);
  fc.default_slice.stall_max = from_micros(80);
  fc.resets = {from_millis(40)};
  return fc;
}

/// Everything observable about one run, for whole-struct comparison.
struct RunRecord {
  std::vector<Time> completions;
  std::vector<std::vector<Rule>> slices;
  std::uint64_t plan_failures = 0;
  std::uint64_t plan_resets = 0;
  Duration plan_stall = 0;

  bool operator==(const RunRecord&) const = default;
};

// Drives a raw Asic through a mixed per-op / batch sequence.
RunRecord drive_asic(std::uint64_t op_seed) {
  FaultPlan plan(stress_config());
  tcam::Asic asic(tcam::pica8_p3290(), {64, 256});
  asic.set_fault_plan(&plan);

  RunRecord rec;
  std::mt19937_64 rng(op_seed);
  Time t = 0;
  net::RuleId next_id = 1;
  for (int round = 0; round < 30; ++round) {
    t += from_millis(2);
    int slice = round % 2;
    // One per-op insert...
    rec.completions.push_back(asic.submit(
        t, slice, {net::FlowModType::kInsert, synth_rule(next_id++, rng)}));
    // ...and one batch of four (exercises the prefix-truncation path).
    std::vector<Rule> batch;
    for (int i = 0; i < 4; ++i) batch.push_back(synth_rule(next_id++, rng));
    tcam::Asic::BatchResult result;
    rec.completions.push_back(
        asic.submit_batch_insert(t, slice, batch, &result));
    rec.completions.push_back(static_cast<Time>(result.inserted));
  }
  for (int s = 0; s < 2; ++s) rec.slices.push_back(asic.slice(s).rules_view());
  rec.plan_failures = plan.write_failures();
  rec.plan_resets = plan.resets_fired();
  rec.plan_stall = plan.total_stall();
  return rec;
}

TEST(FaultDeterminism, AsicRunsAreBitIdentical) {
  RunRecord a = drive_asic(123);
  RunRecord b = drive_asic(123);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.plan_failures, 0u);  // the plan actually injected faults
  EXPECT_EQ(a.plan_resets, 1u);
}

// Drives a full HermesAgent (retry/backoff, migration requeue,
// post-reset reconciliation) and records everything fault-related.
RunRecord drive_agent(std::uint64_t op_seed) {
  FaultPlan plan(stress_config());
  core::HermesConfig config;
  config.token_rate = 1e9;
  config.token_burst = 1e9;
  baselines::HermesBackend sw(tcam::pica8_p3290(), 1024, config);
  sw.set_fault_plan(&plan);

  RunRecord rec;
  std::mt19937_64 rng(op_seed);
  Time t = 0;
  net::RuleId next_id = 1;
  for (int round = 0; round < 60; ++round) {
    t += from_millis(2);  // crosses the 40 ms reset mid-run
    rec.completions.push_back(sw.handle(
        t, {net::FlowModType::kInsert, synth_rule(next_id++, rng)}));
    if (round % 7 == 3) {
      net::Rule victim{next_id - 2, 0, {}, {}};
      rec.completions.push_back(
          sw.handle(t, {net::FlowModType::kDelete, victim}));
    }
    sw.tick(t);
  }
  const core::AgentStats& stats = sw.agent().stats();
  rec.completions.push_back(static_cast<Time>(stats.retries));
  rec.completions.push_back(static_cast<Time>(stats.migration_requeues));
  rec.completions.push_back(static_cast<Time>(stats.reconcile_runs));
  rec.completions.push_back(
      static_cast<Time>(stats.reconcile_rules_reinstalled));
  rec.completions.push_back(static_cast<Time>(stats.failed_ops));
  for (int s = 0; s < 2; ++s)
    rec.slices.push_back(sw.agent().asic().slice(s).rules_view());
  rec.plan_failures = plan.write_failures();
  rec.plan_resets = plan.resets_fired();
  rec.plan_stall = plan.total_stall();
  return rec;
}

TEST(FaultDeterminism, AgentRunsAreBitIdentical) {
  RunRecord a = drive_agent(99);
  RunRecord b = drive_agent(99);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.plan_failures, 0u);
  EXPECT_EQ(a.plan_resets, 1u);
}

TEST(FaultDeterminism, PlainBackendRunsAreBitIdentical) {
  auto drive = [] {
    FaultPlanConfig fc = stress_config();
    fc.resets.clear();  // plain has no reconciliation; keep its table
    FaultPlan plan(fc);
    baselines::PlainSwitch sw(tcam::pica8_p3290(), 512);
    sw.set_fault_plan(&plan);
    RunRecord rec;
    std::mt19937_64 rng(5);
    Time t = 0;
    for (net::RuleId id = 1; id <= 80; ++id) {
      t += from_millis(1);
      rec.completions.push_back(
          sw.handle(t, {net::FlowModType::kInsert, synth_rule(id, rng)}));
    }
    rec.slices.push_back(sw.asic().slice(0).rules_view());
    rec.plan_failures = plan.write_failures();
    rec.plan_stall = plan.total_stall();
    return rec;
  };
  RunRecord a = drive();
  RunRecord b = drive();
  EXPECT_EQ(a, b);
  EXPECT_GT(a.plan_failures, 0u);
}

// One faulty TE simulation on fat_tree(4): `jobs` single-flow jobs of
// `bytes` each, one a millisecond, over Hermes backends.
struct SimProfile {
  const char* name;
  int jobs;
  double bytes;
  double write_failure_prob;
  bool stalls_and_reset;  ///< 1-30 us channel stalls, a reset at 300 ms
  bool aborts;            ///< some moves must abort and roll back
};

/// Everything observable about one simulator run.
struct SimRecord {
  std::vector<Duration> rit;
  std::vector<Time> flow_completions;
  std::vector<Time> job_completions;
  int total_moves = 0;
  int moves_aborted = 0;
  /// obs::export_json with the value of sim.wall_time_ns (host time, the
  /// one non-virtual figure in it) erased.
  std::string metrics;
};

SimRecord drive_simulation(const SimProfile& profile) {
  obs::Registry registry(/*trace_capacity=*/0);
  obs::attach(&registry);
  net::Topology topo = net::fat_tree(4);
  sim::SimConfig config;
  config.congestion_threshold = 0.5;
  test_support::SwitchFaults faults;
  faults.slice.write_failure_prob = profile.write_failure_prob;
  if (profile.stalls_and_reset) {
    faults.seed = 0xFEED;
    faults.slice.stall_min = from_micros(1);
    faults.slice.stall_max = from_micros(30);
    faults.resets = {from_millis(300)};
  }
  config.backend_factory = test_support::with_faults(
      [](net::NodeId, const std::string&)
          -> std::unique_ptr<baselines::SwitchBackend> {
        return std::make_unique<baselines::HermesBackend>(
            tcam::pica8_p3290(), 4000);
      },
      faults);
  auto hosts = topo.hosts();
  std::vector<workloads::Job> jobs;
  for (int i = 0; i < profile.jobs; ++i) {
    workloads::Job job;
    job.id = i;
    job.arrival = from_millis(i);
    job.flows.push_back(
        workloads::FlowSpec{hosts[static_cast<std::size_t>(i % 8)],
                            hosts[static_cast<std::size_t>(8 + i % 8)],
                            profile.bytes});
    jobs.push_back(job);
  }
  SimRecord rec;
  {
    sim::Simulation simulation(topo, config);
    simulation.add_jobs(jobs);
    simulation.run();
    rec.rit = simulation.all_rit_samples();
    for (const sim::FlowResult& f : simulation.flow_results())
      rec.flow_completions.push_back(f.completion);
    for (const sim::JobResult& j : simulation.job_results())
      rec.job_completions.push_back(j.completion);
    rec.total_moves = simulation.total_moves();
    rec.moves_aborted = simulation.moves_aborted();
  }
  obs::attach(nullptr);
  rec.metrics = obs::export_json(registry);
  const std::string key = "\"sim.wall_time_ns\":";
  const std::size_t at = rec.metrics.find(key);
  EXPECT_NE(at, std::string::npos);
  if (at != std::string::npos) {
    const std::size_t from = at + key.size();
    rec.metrics.erase(from, rec.metrics.find_first_of(",}", from) - from);
  }
  return rec;
}

// Full simulator runs with faults enabled reproduce exactly: same
// fault_seed, same workload -> identical completions, rule-installation
// samples, move counts (aborts included) and obs export. Retries are
// scheduled in virtual time, so nothing but sim.wall_time_ns depends on
// the wall clock. The second profile fails 60% of writes, so moves abort
// and roll back.
TEST(FaultDeterminism, SimulationRunsAreBitIdentical) {
  const SimProfile profiles[] = {
      {"8 x 4 GB, 15% faults, stalls, reset", 8, 4e9, 0.15, true, false},
      {"12 x 8 GB, 60% faults", 12, 8e9, 0.6, false, true},
  };
  for (const SimProfile& profile : profiles) {
    SCOPED_TRACE(profile.name);
    SimRecord a = drive_simulation(profile);
    SimRecord b = drive_simulation(profile);
    EXPECT_EQ(a.rit, b.rit);
    EXPECT_EQ(a.flow_completions, b.flow_completions);
    EXPECT_EQ(a.job_completions, b.job_completions);
    EXPECT_EQ(a.total_moves, b.total_moves);
    EXPECT_EQ(a.moves_aborted, b.moves_aborted);
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_FALSE(a.rit.empty());
    EXPECT_EQ(a.job_completions.size(),
              static_cast<std::size_t>(profile.jobs));
    if (profile.aborts) {
      EXPECT_GT(a.moves_aborted, 0);
    }
  }
}

TEST(FaultDeterminism, UnattemptedBatchSuffixBurnsNoDraws) {
  // The batch path pre-draws failures sequentially and stops at the first
  // injected one; rules after it must not consume draws, so resubmitting
  // the suffix sees exactly the schedule a fresh submission would.
  FaultPlanConfig fc;
  fc.seed = 31;
  fc.default_slice.write_failure_prob = 1.0;  // first rule always fails
  FaultPlan plan(fc);
  tcam::Asic asic(tcam::pica8_p3290(), {64});
  asic.set_fault_plan(&plan);

  std::mt19937_64 rng(8);
  std::vector<Rule> batch;
  for (net::RuleId id = 1; id <= 10; ++id)
    batch.push_back(synth_rule(id, rng));
  tcam::Asic::BatchResult result;
  asic.submit_batch_insert(0, 0, batch, &result);
  EXPECT_EQ(result.inserted, 0);
  EXPECT_EQ(plan.draws(0), 1u);  // only the first rule drew
}

}  // namespace
}  // namespace hermes::fault
