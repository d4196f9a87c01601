// Catch-up tick delivery: the simulator records each 10 ms tick when it
// fires and hands it to a backend just before that backend's next request
// or at the end of run(). Every backend must still see exactly the call
// sequence that ticking every backend at fire time gives: every fired
// tick once, in time order, each control call at t after every tick
// before t and before every tick after t, and nothing left undelivered
// when run() returns.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>

#include "baselines/hermes_backend.h"
#include "baselines/plain_switch.h"
#include "sim/simulation.h"
#include "support/switch_faults.h"
#include "tcam/switch_model.h"
#include "workloads/trace.h"

namespace hermes::sim {
namespace {

struct Call {
  bool tick = false;  ///< a tick(), else handle() or handle_batch()
  Time now = 0;
};

/// Forwards to `inner` and logs every call the simulator makes.
class RecordingBackend final : public baselines::SwitchBackend {
 public:
  RecordingBackend(std::unique_ptr<baselines::SwitchBackend> inner,
                   std::vector<Call>& log)
      : inner_(std::move(inner)), log_(log) {}

  Time handle(Time now, const net::FlowMod& mod) override {
    log_.push_back({false, now});
    in_request_ = true;
    const Time done = inner_->handle(now, mod);
    in_request_ = false;
    return done;
  }
  Time handle_batch(Time now, net::FlowModBatch& batch) override {
    log_.push_back({false, now});
    in_request_ = true;
    const Time done = inner_->handle_batch(now, batch);
    in_request_ = false;
    return done;
  }
  void tick(Time now) override {
    EXPECT_FALSE(in_request_) << "tick delivered inside a request";
    log_.push_back({true, now});
    inner_->tick(now);
  }
  const net::Rule* lookup_ptr(Time now, net::Ipv4Address addr) override {
    return inner_->lookup_ptr(now, addr);
  }
  std::string_view name() const override { return inner_->name(); }
  const std::vector<Duration>& rit_samples() const override {
    return inner_->rit_samples();
  }
  void clear_rit_samples() override { inner_->clear_rit_samples(); }
  void set_fault_plan(fault::FaultPlan* plan) override {
    inner_->set_fault_plan(plan);
  }

  baselines::SwitchBackend& inner() { return *inner_; }

 private:
  std::unique_ptr<baselines::SwitchBackend> inner_;
  std::vector<Call>& log_;
  bool in_request_ = false;
};

using InnerFactory =
    std::function<std::unique_ptr<baselines::SwitchBackend>()>;

/// Staggered pod-to-pod elephants on a k=4 fat-tree: the TE app plans
/// moves every cycle, so switches serve requests between ticks.
std::vector<workloads::Job> congested_jobs(const net::Topology& topo) {
  auto hosts = topo.hosts();
  std::vector<workloads::Job> jobs;
  for (int i = 0; i < 12; ++i) {
    workloads::Job job;
    job.id = i;
    job.arrival = from_millis(i);
    job.flows.push_back({hosts[static_cast<std::size_t>(i % 8)],
                         hosts[static_cast<std::size_t>(8 + (i % 8))], 8e9});
    jobs.push_back(job);
  }
  return jobs;
}

struct Recorded {
  std::map<net::NodeId, std::vector<Call>> logs;
  Time last_completion = 0;
  std::uint64_t reconcile_runs = 0;  ///< summed over Hermes backends
};

/// With `faults`, every switch gets its own plan of that profile.
Recorded run_recorded(const net::Topology& topo, SimConfig config,
                      const InnerFactory& make_inner,
                      const test_support::SwitchFaults* faults = nullptr) {
  Recorded out;
  std::map<net::NodeId, RecordingBackend*> recorders;
  config.congestion_threshold = 0.5;
  config.include_propagation_in_fct = false;
  config.backend_factory = [&](net::NodeId id, const std::string&)
      -> std::unique_ptr<baselines::SwitchBackend> {
    auto sw = std::make_unique<RecordingBackend>(make_inner(), out.logs[id]);
    recorders[id] = sw.get();
    return sw;
  };
  if (faults != nullptr)
    config.backend_factory =
        test_support::with_faults(std::move(config.backend_factory), *faults);
  Simulation sim(topo, config);
  sim.add_jobs(congested_jobs(topo));
  sim.run();
  for (const FlowResult& f : sim.flow_results())
    out.last_completion = std::max(out.last_completion, f.completion);
  for (auto& [id, recorder] : recorders) {
    if (auto* hermes =
            dynamic_cast<baselines::HermesBackend*>(&recorder->inner()))
      out.reconcile_runs += hermes->agent().stats().reconcile_runs;
  }
  return out;
}

void check_delivery(const Recorded& rec) {
  const Duration period = from_millis(10);
  ASSERT_FALSE(rec.logs.empty());
  // The ticks the first backend saw; every other backend must match.
  std::vector<Time> fired;
  for (const Call& c : rec.logs.begin()->second)
    if (c.tick) fired.push_back(c.now);
  ASSERT_FALSE(fired.empty());
  // One tick every 10 ms from 10 ms on, each once and in order.
  for (std::size_t k = 0; k < fired.size(); ++k)
    ASSERT_EQ(fired[k], static_cast<Time>(k + 1) * period) << "tick " << k;
  // The tick before the last fired while flows were outstanding and the
  // last one found none, so the last flow completed between the two:
  // every fired tick reached every backend before run() returned.
  EXPECT_LE(fired.back() - period, rec.last_completion);
  EXPECT_GE(fired.back(), rec.last_completion);

  std::size_t requests = 0;
  for (const auto& [id, log] : rec.logs) {
    std::vector<Time> ticks;
    for (const Call& c : log)
      if (c.tick) ticks.push_back(c.now);
    EXPECT_EQ(ticks, fired) << "switch " << id;
    // A control call at t comes after every tick before t and before
    // every tick after t.
    Time last_tick = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log[i].tick) {
        last_tick = log[i].now;
        continue;
      }
      ++requests;
      EXPECT_LE(last_tick, log[i].now) << "switch " << id << " call " << i;
      std::size_t next = i + 1;
      while (next < log.size() && !log[next].tick) ++next;
      if (next < log.size())
        EXPECT_GE(log[next].now, log[i].now)
            << "switch " << id << " call " << i;
      else
        EXPECT_GE(fired.back(), log[i].now) << "switch " << id;
    }
  }
  EXPECT_GT(requests, 0u) << "no control calls: nothing was interleaved";
}

TEST(TickDelivery, PlainBackendsSeeEveryTickInOrder) {
  net::Topology topo = net::fat_tree(4);
  Recorded rec = run_recorded(topo, SimConfig{}, [] {
    return std::make_unique<baselines::PlainSwitch>(tcam::pica8_p3290(),
                                                    4000);
  });
  check_delivery(rec);
}

TEST(TickDelivery, HermesBackendsSeeEveryTickInOrder) {
  net::Topology topo = net::fat_tree(4);
  Recorded rec = run_recorded(topo, SimConfig{}, [] {
    return std::make_unique<baselines::HermesBackend>(tcam::pica8_p3290(),
                                                      4000);
  });
  check_delivery(rec);
}

TEST(TickDelivery, FaultedHermesWithOneResetSeesEveryTickInOrder) {
  net::Topology topo = net::fat_tree(4);
  test_support::SwitchFaults faults;
  faults.slice.write_failure_prob = 0.05;
  faults.resets = {from_millis(1005)};
  Recorded rec = run_recorded(
      topo, SimConfig{},
      [] {
        return std::make_unique<baselines::HermesBackend>(tcam::pica8_p3290(),
                                                          4000);
      },
      &faults);
  check_delivery(rec);
  // The reset fired and every switch reconciled after it.
  EXPECT_EQ(rec.reconcile_runs, rec.logs.size());
}

}  // namespace
}  // namespace hermes::sim
