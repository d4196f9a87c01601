// SwitchBackend::handle_batch across the four backends: the default
// fallback loop must equal per-op handle() exactly; backends with a
// native batch path must preserve per-op outcomes while batching costs.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "baselines/espres.h"
#include "baselines/hermes_backend.h"
#include "baselines/plain_switch.h"
#include "baselines/shadow_switch.h"
#include "baselines/tango.h"
#include "obs/metrics.h"
#include "tcam/switch_model.h"

namespace hermes::baselines {
namespace {

using net::FlowMod;
using net::FlowModBatch;
using net::FlowModType;
using net::ModStatus;
using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(port)};
}

FlowModBatch ascending_inserts(int count) {
  FlowModBatch batch;
  for (int i = 0; i < count; ++i)
    batch.insert(make_rule(static_cast<net::RuleId>(i + 1), i + 1,
                           "10." + std::to_string(i) + ".0.0/16"));
  return batch;
}

TEST(BackendBatch, DefaultFallbackLoopMatchesPerOpHandle) {
  // ShadowSwitchBackend does not override handle_batch: the base-class
  // loop must yield exactly the per-op completions and state.
  ShadowSwitchBackend batched(tcam::pica8_p3290(), 2000);
  ShadowSwitchBackend sequential(tcam::pica8_p3290(), 2000);
  FlowModBatch batch = ascending_inserts(8);
  Time barrier = batched.handle_batch(0, batch);

  Time expected_barrier = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Time done = sequential.handle(0, batch.mod(i));
    EXPECT_EQ(batch.result(i).completion, done) << "mod " << i;
    EXPECT_EQ(batch.result(i).status, ModStatus::kApplied) << "mod " << i;
    expected_barrier = std::max(expected_barrier, done);
  }
  EXPECT_EQ(barrier, expected_barrier);
  EXPECT_EQ(batched.software_resident(), sequential.software_resident());
  EXPECT_EQ(batched.rit_samples(), sequential.rit_samples());
}

TEST(BackendBatch, PlainSwitchBatchIsSequentialCostsWithRealOutcomes) {
  PlainSwitch batched(tcam::pica8_p3290(), 2000);
  PlainSwitch sequential(tcam::pica8_p3290(), 2000);
  FlowModBatch batch = ascending_inserts(20);
  batch.erase(3);
  Time barrier = batched.handle_batch(0, batch);

  Time expected_barrier = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    Time done = sequential.handle(0, batch.mod(i));
    EXPECT_EQ(batch.result(i).completion, done) << "mod " << i;
    expected_barrier = std::max(expected_barrier, done);
  }
  // The plain baseline gets no batching benefit: sequential per-op costs.
  EXPECT_EQ(barrier, expected_barrier);
  EXPECT_EQ(batched.occupancy(), sequential.occupancy());
  EXPECT_EQ(batched.rit_samples(), sequential.rit_samples());
}

TEST(BackendBatch, PlainSwitchMarksFailedInserts) {
  PlainSwitch sw(tcam::pica8_p3290(), /*tcam_capacity=*/4);
  FlowModBatch batch = ascending_inserts(6);
  sw.handle_batch(0, batch);
  EXPECT_EQ(batch.applied_count(), 4u);
  EXPECT_EQ(batch.failed_count(), 2u);
  EXPECT_EQ(batch.result(4).status, ModStatus::kFailed);
  EXPECT_EQ(batch.result(5).status, ModStatus::kFailed);
}

TEST(BackendBatch, EspresBatchCompletesAtWindowDeadline) {
  EspresSwitch sw(tcam::pica8_p3290(), 2000, from_millis(10));
  FlowModBatch batch = ascending_inserts(5);
  // The batch opens a window at arrival; its deadline is arrival + window.
  Time barrier = sw.handle_batch(from_millis(2), batch);
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(batch.result(i).completion, from_millis(12)) << "mod " << i;
  EXPECT_EQ(barrier, from_millis(12));
  EXPECT_EQ(sw.occupancy(), 0);  // nothing lands before the flush
  sw.tick(from_millis(12));
  EXPECT_EQ(sw.occupancy(), 5);
}

TEST(BackendBatch, TangoBatchCompletesAtWindowDeadline) {
  TangoSwitch sw(tcam::pica8_p3290(), 2000, from_millis(10));
  FlowModBatch batch = ascending_inserts(5);
  Time barrier = sw.handle_batch(from_millis(2), batch);
  for (std::size_t i = 0; i < batch.size(); ++i)
    EXPECT_EQ(batch.result(i).completion, from_millis(12)) << "mod " << i;
  EXPECT_EQ(barrier, from_millis(12));
  sw.tick(from_millis(12));
  EXPECT_GT(sw.occupancy(), 0);
}

TEST(BackendBatch, HermesBackendDelegatesToAgent) {
  HermesBackend sw(tcam::pica8_p3290(), 2000);
  FlowModBatch batch = ascending_inserts(12);
  Time barrier = sw.handle_batch(0, batch);
  EXPECT_EQ(batch.applied_count(), 12u);
  EXPECT_EQ(batch.barrier(), barrier);
  EXPECT_EQ(sw.agent().store().size(), 12u);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Rule* hit = sw.lookup_ptr(barrier, batch.mod(i).rule.match.address());
    ASSERT_NE(hit, nullptr) << "mod " << i;
    EXPECT_EQ(hit->action.port, batch.mod(i).rule.action.port)
        << "mod " << i;
  }
}

TEST(BackendBatch, EveryBackendRecordsBatchSizeHistogram) {
  obs::Registry reg;
  obs::attach(&reg);
  {
    PlainSwitch plain(tcam::pica8_p3290(), 2000);
    EspresSwitch espres(tcam::pica8_p3290(), 2000);
    TangoSwitch tango(tcam::pica8_p3290(), 2000);
    ShadowSwitchBackend shadow(tcam::pica8_p3290(), 2000);
    HermesBackend hermes(tcam::pica8_p3290(), 2000);
    std::vector<SwitchBackend*> backends{&plain, &espres, &tango, &shadow,
                                         &hermes};
    for (SwitchBackend* backend : backends) {
      FlowModBatch batch = ascending_inserts(3);
      backend->handle_batch(0, batch);
    }
  }
  obs::attach(nullptr);
  obs::HistogramSummary sizes = reg.histogram_summary("backend.batch_size");
  EXPECT_EQ(sizes.count, 5u);
  EXPECT_EQ(sizes.min, 3u);
  EXPECT_EQ(sizes.max, 3u);
}

}  // namespace
}  // namespace hermes::baselines
