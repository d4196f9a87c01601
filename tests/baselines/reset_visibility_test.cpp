// Every backend's data-plane read sees a switch reset the instant it
// fires: lookup_ptr(now, addr) applies a reset scheduled at or before
// `now` itself, with no control-plane op needed to notice the wipe.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "baselines/hermes_backend.h"
#include "fault/fault_plan.h"
#include "tcam/switch_model.h"

namespace hermes::baselines {
namespace {

class BackendResetVisibility : public ::testing::TestWithParam<const char*> {
};

TEST_P(BackendResetVisibility, ReadSeesFiredReset) {
  std::unique_ptr<SwitchBackend> sw =
      make_backend(GetParam(), tcam::pica8_p3290(), 2000);
  ASSERT_NE(sw, nullptr);
  const net::Ipv4Address addr = *net::Ipv4Address::parse("10.1.2.3");

  // Land one rule in the TCAM: the tick drains the batching backends'
  // windows and ShadowSwitch's software tier.
  sw->handle(0, {net::FlowModType::kInsert,
                 net::Rule{1, 5, *net::Prefix::parse("10.0.0.0/8"),
                           net::forward_to(3)}});
  sw->tick(from_millis(100));

  const Time reset = from_millis(200);
  fault::FaultPlanConfig fc;
  fc.resets = {reset};
  fault::FaultPlan plan(fc);
  sw->set_fault_plan(&plan);

  // Tango installs its own physical ids, so identify the rule by action.
  const net::Rule* before = sw->lookup_ptr(reset - 1, addr);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->action.port, 3);
  EXPECT_EQ(plan.resets_fired(), 0u);

  EXPECT_EQ(sw->lookup_ptr(reset + 1, addr), nullptr);
  EXPECT_EQ(plan.resets_fired(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, BackendResetVisibility,
    ::testing::Values("plain", "espres", "tango", "hermes", "shadowswitch"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

}  // namespace
}  // namespace hermes::baselines
