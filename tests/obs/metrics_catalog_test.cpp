// docs/METRICS.md must document EVERY metric the obs layer exports from
// a full-pipeline run — counters, gauges and histograms — and every trace
// event kind with each field its export writes. This test runs the
// pipeline (simulation with Hermes backends under fault injection, plus
// every baseline backend), snapshots the attached registry, and fails on
// any name the catalog does not mention.
//
// When this test fails you added (or renamed) a metric, a trace kind or
// a trace field: document it in docs/METRICS.md.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "baselines/espres.h"
#include "baselines/hermes_backend.h"
#include "baselines/plain_switch.h"
#include "baselines/shadow_switch.h"
#include "baselines/tango.h"
#include "fault/fault_plan.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "support/switch_faults.h"
#include "tcam/switch_model.h"
#include "workloads/facebook.h"

#ifndef HERMES_SOURCE_DIR
#error "HERMES_SOURCE_DIR must point at the repository root"
#endif

namespace hermes::obs {
namespace {

std::string read_metrics_doc() {
  std::string path = std::string(HERMES_SOURCE_DIR) + "/docs/METRICS.md";
  std::ifstream in(path);
  if (!in) return {};
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

net::Rule small_rule(net::RuleId id, int priority, std::uint32_t octet) {
  auto addr = net::Ipv4Address((octet << 24));
  return net::Rule{id, priority, net::Prefix(addr, 8), net::forward_to(1)};
}

// Drives every metric source: a faulty simulation with Hermes backends
// (sim.*, app.*, agent.*, gate.*, tcam.*, asic.*, migration.*,
// predictor.*, fault.*, reconcile.*) and each baseline backend under a
// flaky plan (backend.*).
void run_full_pipeline() {
  using workloads::FlowSpec;
  using workloads::Job;

  net::Topology topo = net::fat_tree(4);
  sim::SimConfig config;
  config.congestion_threshold = 0.5;
  test_support::SwitchFaults faults;
  // High enough that some move installs fail for good (app.moves_aborted).
  faults.slice.write_failure_prob = 0.6;
  faults.slice.stall_min = from_micros(1);
  faults.slice.stall_max = from_micros(20);
  faults.resets = {from_millis(200)};
  config.backend_factory = test_support::with_faults(
      [](net::NodeId, const std::string&)
          -> std::unique_ptr<baselines::SwitchBackend> {
        return std::make_unique<baselines::HermesBackend>(
            tcam::pica8_p3290(), 4000);
      },
      faults);
  sim::Simulation simulation(topo, config);
  auto hosts = topo.hosts();
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    Job job;
    job.id = i;
    job.arrival = from_millis(i);
    job.flows.push_back(FlowSpec{hosts[static_cast<std::size_t>(i % 8)],
                                 hosts[static_cast<std::size_t>(8 + i % 8)],
                                 4e9});
    jobs.push_back(job);
  }
  simulation.add_jobs(jobs);
  simulation.run();

  // Every baseline, a few flaky ops each (registers backend.* handles).
  fault::FaultPlanConfig fc;
  fc.seed = 5;
  fc.default_slice.write_failure_prob = 0.5;
  fault::FaultPlan plan(fc);
  baselines::PlainSwitch plain(tcam::pica8_p3290(), 256);
  baselines::EspresSwitch espres(tcam::pica8_p3290(), 256);
  baselines::TangoSwitch tango(tcam::pica8_p3290(), 256);
  baselines::ShadowSwitchBackend shadow(tcam::pica8_p3290(), 256);
  baselines::SwitchBackend* backends[] = {&plain, &espres, &tango, &shadow};
  for (baselines::SwitchBackend* sw : backends) {
    sw->set_fault_plan(&plan);
    Time t = 0;
    for (net::RuleId id = 1; id <= 12; ++id) {
      t += from_millis(1);
      sw->handle(t, {net::FlowModType::kInsert,
                     small_rule(id, static_cast<int>(id), 10 + id)});
      sw->tick(t);
    }
    sw->tick(from_seconds(1));
  }
}

TEST(MetricsCatalog, DocumentsEveryExportedName) {
  std::string doc = read_metrics_doc();
  ASSERT_FALSE(doc.empty()) << "docs/METRICS.md missing or unreadable";

  Registry registry(/*trace_capacity=*/1 << 14);
  attach(&registry);
  run_full_pipeline();
  Snapshot snap = registry.snapshot();
  attach(nullptr);

  std::set<std::string> names;
  for (const auto& [name, value] : snap.counters) names.insert(name);
  for (const auto& [name, value] : snap.gauges) names.insert(name);
  for (const auto& [name, value] : snap.histograms) names.insert(name);
  ASSERT_GT(names.size(), 30u) << "pipeline registered suspiciously little";

  // The fault layer really ran: these move only under an active plan.
  EXPECT_TRUE(names.count("fault.write_failures"));
  EXPECT_TRUE(names.count("agent.retries"));
  EXPECT_TRUE(names.count("reconcile.runs"));
  EXPECT_TRUE(names.count("backend.retries"));
  EXPECT_TRUE(names.count("app.moves_aborted"));

  std::vector<std::string> undocumented;
  for (const std::string& name : names) {
    if (doc.find(name) == std::string::npos) undocumented.push_back(name);
  }
  EXPECT_TRUE(undocumented.empty())
      << "metrics missing from docs/METRICS.md: " << [&] {
           std::string joined;
           for (const std::string& n : undocumented) joined += n + " ";
           return joined;
         }();

  std::set<std::string> emitted;
  for (const TraceEvent& e : snap.events)
    emitted.insert(std::string(kind_name(e.kind)));
  ASSERT_GT(emitted.size(), 2u) << "pipeline traced suspiciously little";

  // Every trace-event kind, emitted by this run or not, has a catalog row
  // whose payload names each field its export writes.
  const std::regex field_key("\"([a-z_]+)\":");
  for (int k = 0; k < kEventKindCount; ++k) {
    TraceEvent e;
    e.kind = static_cast<EventKind>(k);
    std::string kind(kind_name(e.kind));
    std::size_t row = doc.find("| `" + kind + "` |");
    if (row == std::string::npos) {
      ADD_FAILURE() << "trace event kind missing from docs/METRICS.md: "
                    << kind;
      continue;
    }
    std::string line = doc.substr(row, doc.find('\n', row) - row);
    Registry one(/*trace_capacity=*/1);
    one.trace(e);
    const std::string json = export_json(one);
    const std::string marker = "\"entries\":[";
    std::string entry = json.substr(json.find(marker) + marker.size());
    for (std::sregex_iterator it(entry.begin(), entry.end(), field_key), end;
         it != end; ++it) {
      std::string key = (*it)[1];
      if (key == "kind" || key == "t") continue;
      EXPECT_NE(line.find("`" + key + "`"), std::string::npos)
          << "docs/METRICS.md row of trace kind " << kind
          << " does not name its field " << key;
    }
  }
}

}  // namespace
}  // namespace hermes::obs
