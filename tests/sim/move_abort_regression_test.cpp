// Regression tests for failed-install move commits (fault injection).
//
// Pre-fix, Simulation::finish_move ignored per-mod install status: a move
// whose rule-install FAILED on some switch still rerouted the flow at the
// install barrier and recorded the never-installed rule ids in
// ActiveFlow::installed_rules (later "deleted" as if present). These tests
// fail on that code: with every TCAM write faulted, the pre-fix TE app
// still reports successful moves, while the fixed app aborts every one.
#include <gtest/gtest.h>

#include <algorithm>

#include "baselines/plain_switch.h"
#include "obs/metrics.h"
#include "sim/simulation.h"
#include "tcam/switch_model.h"
#include "workloads/trace.h"

namespace hermes::sim {
namespace {

using workloads::FlowSpec;
using workloads::Job;

Job one_flow_job(int id, Time arrival, net::NodeId src, net::NodeId dst,
                 double bytes) {
  Job job;
  job.id = id;
  job.arrival = arrival;
  job.flows.push_back(FlowSpec{src, dst, bytes});
  return job;
}

SimConfig faulty_config(double write_failure_prob) {
  SimConfig config;
  config.congestion_threshold = 0.5;
  config.backend_factory = [](net::NodeId, const std::string&)
      -> std::unique_ptr<baselines::SwitchBackend> {
    return std::make_unique<baselines::PlainSwitch>(tcam::pica8_p3290(),
                                                    4000);
  };
  config.faults_enabled = true;
  config.fault_slice.write_failure_prob = write_failure_prob;
  return config;
}

std::vector<Job> congested_jobs(const net::Topology& topo) {
  // Staggered pod-to-pod elephants (the Figure 1 miniature): enough load
  // that the TE app plans moves every cycle.
  auto hosts = topo.hosts();
  std::vector<Job> jobs;
  for (int i = 0; i < 12; ++i)
    jobs.push_back(one_flow_job(i, from_millis(i),
                                hosts[static_cast<std::size_t>(i % 8)],
                                hosts[static_cast<std::size_t>(8 + (i % 8))],
                                8e9));
  return jobs;
}

TEST(MoveAbort, CertainWriteFailureAbortsEveryMove) {
  // write_failure_prob = 1.0: every insert fails even after the backend's
  // retry budget, so NO move's rules ever land. The fixed TE app must
  // cancel each move at its barrier (flow stays on its old path); the
  // pre-fix app "moved" flows onto paths with zero installed rules and
  // counted them in total_moves().
  obs::Registry reg;
  obs::attach(&reg);
  net::Topology topo = net::fat_tree(4);
  {
    Simulation sim(topo, faulty_config(1.0));
    sim.add_jobs(congested_jobs(topo));
    sim.run();
    EXPECT_EQ(sim.flow_results().size(), 12u);  // flows still finish
    EXPECT_GT(sim.moves_aborted(), 0);         // moves were attempted...
    EXPECT_EQ(sim.total_moves(), 0);           // ...and none committed
    for (const FlowResult& f : sim.flow_results()) EXPECT_EQ(f.moves, 0);
    EXPECT_EQ(reg.counter_value("app.moves_aborted"),
              static_cast<std::uint64_t>(sim.moves_aborted()));
  }
  obs::attach(nullptr);
}

TEST(MoveAbort, PartialFailureRetiresInstalledSiblings) {
  // write_failure_prob = 0.5: within one move some switches install and
  // some fail. An aborted move must retire exactly the sibling rules that
  // DID land — by the end of the run (all flows completed, all per-flow
  // rules deleted) no backend may still answer a lookup for any flow's
  // virtual /32 match address.
  net::Topology topo = net::fat_tree(4);
  Simulation sim(topo, faulty_config(0.5));
  sim.add_jobs(congested_jobs(topo));
  sim.run();
  EXPECT_EQ(sim.flow_results().size(), 12u);
  // Both outcomes must occur: some moves commit (all writes landed after
  // retries), some abort (a write failed past the retry budget). Pre-fix
  // code reports moves_aborted() == 0 because every move "committed".
  EXPECT_GT(sim.total_moves(), 0);
  EXPECT_GT(sim.moves_aborted(), 0);
  Time end = 0;
  for (const FlowResult& f : sim.flow_results())
    end = std::max(end, f.completion);
  for (net::NodeId sw : topo.switches()) {
    baselines::SwitchBackend* backend = sim.backend(sw);
    ASSERT_NE(backend, nullptr);
    for (std::uint32_t flow = 0; flow < 12; ++flow) {
      EXPECT_EQ(
          backend->lookup_ptr(end, net::Ipv4Address(0x0A000000u + flow + 1)),
          nullptr)
          << "leaked rule on switch " << sw << " for flow " << flow;
    }
  }
}

}  // namespace
}  // namespace hermes::sim
