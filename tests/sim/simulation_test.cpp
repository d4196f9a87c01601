#include "sim/simulation.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "baselines/hermes_backend.h"
#include "baselines/plain_switch.h"
#include "tcam/switch_model.h"
#include "workloads/facebook.h"

namespace hermes::sim {
namespace {

using workloads::FlowSpec;
using workloads::Job;

SimConfig perfect_config() {
  SimConfig config;
  config.backend_factory = nullptr;  // zero-latency control plane
  return config;
}

BackendFactory plain_factory(const tcam::SwitchModel& model) {
  return [&model](net::NodeId, const std::string&) {
    return std::make_unique<baselines::PlainSwitch>(model, 4000);
  };
}

BackendFactory hermes_factory(const tcam::SwitchModel& model) {
  return [&model](net::NodeId, const std::string&) {
    return std::make_unique<baselines::HermesBackend>(model, 4000);
  };
}

Job one_flow_job(int id, Time arrival, net::NodeId src, net::NodeId dst,
                 double bytes) {
  Job job;
  job.id = id;
  job.arrival = arrival;
  job.flows.push_back(FlowSpec{src, dst, bytes});
  return job;
}

TEST(Simulation, SingleFlowCompletesAtLineRate) {
  net::Topology topo = net::fat_tree(4);  // 40 Gbps links = 5 GB/s
  Simulation sim(topo, perfect_config());
  auto hosts = topo.hosts();
  sim.add_jobs({one_flow_job(0, 0, hosts[0], hosts[1], 5e9)});
  sim.run();
  ASSERT_EQ(sim.flow_results().size(), 1u);
  const FlowResult& f = sim.flow_results()[0];
  EXPECT_NEAR(f.fct_s(), 1.0, 0.01);  // 5 GB at 5 GB/s
  auto jobs = sim.job_results();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_NEAR(jobs[0].jct_s(), 1.0, 0.01);
  EXPECT_FALSE(jobs[0].is_short);  // 5 GB > 1 GB
}

TEST(Simulation, JobCompletesWhenLastFlowDoes) {
  net::Topology topo = net::fat_tree(4);
  Simulation sim(topo, perfect_config());
  auto hosts = topo.hosts();
  Job job;
  job.id = 7;
  job.arrival = from_seconds(2);
  job.flows = {FlowSpec{hosts[0], hosts[5], 1e9},
               FlowSpec{hosts[1], hosts[6], 5e9}};
  sim.add_jobs({job});
  sim.run();
  auto jobs = sim.job_results();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].job_id, 7);
  // Disjoint host pairs: the 5 GB flow dominates (~1 s).
  EXPECT_NEAR(jobs[0].jct_s(), 1.0, 0.05);
  EXPECT_EQ(jobs[0].arrival, from_seconds(2));
}

TEST(Simulation, TeAppMovesFlowsOffCongestedLinks) {
  // Many flows between the same pod pair: ECMP hashing plus TE rebalance
  // should spread them across core paths.
  net::Topology topo = net::fat_tree(4);
  SimConfig config = perfect_config();
  config.congestion_threshold = 0.6;
  Simulation sim(topo, config);
  auto hosts = topo.hosts();
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    jobs.push_back(one_flow_job(i, 0, hosts[0], hosts[12],
                                20e9));  // all same src/dst pair
  }
  sim.add_jobs(jobs);
  sim.run();
  EXPECT_EQ(sim.flow_results().size(), 8u);
  // Same-pair flows cannot avoid the shared edge links, so moves may be
  // futile; use distinct sources instead for a meaningful assertion.
  net::Topology topo2 = net::fat_tree(4);
  Simulation sim2(topo2, config);
  auto hosts2 = topo2.hosts();
  std::vector<Job> jobs2;
  for (int i = 0; i < 6; ++i)
    jobs2.push_back(one_flow_job(i, 0, hosts2[static_cast<std::size_t>(i)],
                                 hosts2[15], 20e9));
  sim2.add_jobs(jobs2);
  sim2.run();
  EXPECT_EQ(sim2.flow_results().size(), 6u);
}

TEST(Simulation, RealControlPlaneInflatesCompletionTimes) {
  // The Figure 1 experiment in miniature: identical workload, perfect vs
  // Pica8 control plane; slow rule installation delays TE moves and
  // inflates JCT.
  net::Topology topo = net::fat_tree(4);
  auto hosts = topo.hosts();
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i)
    jobs.push_back(one_flow_job(i, from_millis(i), hosts[static_cast<std::size_t>(i % 8)],
                                hosts[static_cast<std::size_t>(8 + (i % 8))], 8e9));

  SimConfig ideal = perfect_config();
  ideal.congestion_threshold = 0.5;
  Simulation sim_ideal(topo, ideal);
  sim_ideal.add_jobs(jobs);
  sim_ideal.run();

  SimConfig real = ideal;
  real.backend_factory = plain_factory(tcam::pica8_p3290());
  Simulation sim_real(topo, real);
  sim_real.add_jobs(jobs);
  sim_real.run();

  double ideal_total = 0, real_total = 0;
  for (const auto& j : sim_ideal.job_results()) ideal_total += j.jct_s();
  for (const auto& j : sim_real.job_results()) real_total += j.jct_s();
  EXPECT_GE(real_total, ideal_total * 0.999);
  // The real control plane produced actual RIT samples.
  EXPECT_FALSE(sim_real.all_rit_samples().empty());
  EXPECT_TRUE(sim_ideal.all_rit_samples().empty());
}

TEST(Simulation, HermesBackendKeepsRitLow) {
  net::Topology topo = net::fat_tree(4);
  auto hosts = topo.hosts();
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i)
    jobs.push_back(one_flow_job(i, from_millis(i),
                                hosts[static_cast<std::size_t>(i % 8)],
                                hosts[static_cast<std::size_t>(8 + (i % 8))],
                                8e9));
  SimConfig config = perfect_config();
  config.congestion_threshold = 0.5;
  config.backend_factory = hermes_factory(tcam::pica8_p3290());
  Simulation sim(topo, config);
  sim.add_jobs(jobs);
  sim.run();
  auto rit = sim.all_rit_samples();
  for (Duration d : rit) EXPECT_LE(d, from_millis(5));
}

TEST(Simulation, IspFlowArrivalsRun) {
  net::Topology topo = net::abilene();
  SimConfig config = perfect_config();
  Simulation sim(topo, config);
  auto hosts = topo.hosts();
  std::vector<workloads::FlowArrival> arrivals;
  for (int i = 0; i < 50; ++i) {
    workloads::FlowArrival a;
    a.time = from_millis(i * 10);
    a.flow = FlowSpec{hosts[static_cast<std::size_t>(i % hosts.size())],
                      hosts[static_cast<std::size_t>((i + 3) % hosts.size())],
                      1e8};
    arrivals.push_back(a);
  }
  sim.add_flows(arrivals);
  sim.run();
  EXPECT_EQ(sim.flow_results().size(), 50u);
  for (const FlowResult& f : sim.flow_results()) {
    EXPECT_EQ(f.job_id, -1);
    EXPECT_GT(f.completion, f.arrival);
  }
}

TEST(Simulation, BackendAccessor) {
  net::Topology topo = net::single_switch(4);
  SimConfig config = perfect_config();
  config.backend_factory = plain_factory(tcam::dell_8132f());
  Simulation sim(topo, config);
  net::NodeId sw = topo.switches()[0];
  EXPECT_NE(sim.backend(sw), nullptr);
  EXPECT_EQ(sim.backend(topo.hosts()[0]), nullptr);
}

TEST(Simulation, RejectsAnyControllerThreadCountButOne) {
  // The simulator drives every backend from its one control thread.
  net::Topology topo = net::fat_tree(4);
  for (int threads : {0, 2, 8}) {
    SimConfig config = perfect_config();
    config.backend_factory = hermes_factory(tcam::pica8_p3290());
    config.controller_threads = threads;
    EXPECT_THROW({ Simulation sim(topo, config); }, std::invalid_argument)
        << threads << " threads";
  }
  SimConfig config = perfect_config();
  config.controller_threads = 1;
  EXPECT_NO_THROW({ Simulation sim(topo, config); });
}

TEST(Simulation, FacebookWorkloadEndToEnd) {
  // Smoke-scale end-to-end: the full generator -> simulator pipeline.
  net::Topology topo = net::fat_tree(4);
  workloads::FacebookConfig fb;
  fb.job_count = 30;
  fb.duration_s = 5;
  fb.seed = 3;
  auto jobs = workloads::facebook_jobs(fb, topo.hosts());
  SimConfig config = perfect_config();
  config.backend_factory = hermes_factory(tcam::pica8_p3290());
  Simulation sim(topo, config);
  sim.add_jobs(jobs);
  sim.run();
  EXPECT_EQ(sim.job_results().size(), 30u);
  for (const auto& j : sim.job_results()) {
    EXPECT_GE(j.completion, j.arrival);
  }
}

TEST(Simulation, JobStartMatchesFlowArrivalsAtItsArrival) {
  // A job's flows start in one event with one filling. Starting each of
  // them as its own arrival, at the job's arrival and in job order, must
  // give the same run: same completions, same TE moves, same RIT samples.
  for (std::uint64_t seed : {2, 3}) {
    net::Topology topo = net::fat_tree(4, 1e9);
    workloads::FacebookConfig fb;
    fb.job_count = 60;  // 266 and 366 flows; 131 and 296 TE moves
    fb.duration_s = 5;
    fb.seed = seed;
    auto jobs = workloads::facebook_jobs(fb, topo.hosts());
    SimConfig config = perfect_config();
    config.backend_factory = hermes_factory(tcam::pica8_p3290());
    config.congestion_threshold = 0.3;

    Simulation by_job(topo, config);
    by_job.add_jobs(jobs);
    by_job.run();

    std::vector<workloads::FlowArrival> arrivals;
    for (const Job& job : jobs)
      for (const FlowSpec& spec : job.flows)
        arrivals.push_back({job.arrival, spec});
    Simulation by_flow(topo, config);
    by_flow.add_flows(arrivals);
    by_flow.run();

    const auto& a = by_job.flow_results();
    const auto& b = by_flow.flow_results();
    ASSERT_EQ(a.size(), arrivals.size()) << "seed " << seed;
    ASSERT_EQ(b.size(), a.size()) << "seed " << seed;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].bytes, b[i].bytes) << "seed " << seed << " flow " << i;
      EXPECT_EQ(a[i].arrival, b[i].arrival)
          << "seed " << seed << " flow " << i;
      EXPECT_EQ(a[i].completion, b[i].completion)
          << "seed " << seed << " flow " << i;
      EXPECT_EQ(a[i].moves, b[i].moves) << "seed " << seed << " flow " << i;
    }
    EXPECT_GT(by_job.total_moves(), 0) << "seed " << seed;
    EXPECT_EQ(by_job.total_moves(), by_flow.total_moves())
        << "seed " << seed;
    EXPECT_EQ(by_job.all_rit_samples(), by_flow.all_rit_samples())
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace hermes::sim
