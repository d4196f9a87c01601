#include "hermes/qos_api.h"

#include <gtest/gtest.h>

#include "tcam/switch_model.h"

namespace hermes::core {
namespace {

using net::Prefix;

class QoSApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The Pica8's 108 KB Firebolt-3 TCAM holds ~4K entries (Table 1 probes
    // occupancies up to 2000); the Dell's 54 KB Trident+ about half that.
    manager_.register_switch(1, tcam::pica8_p3290(), 4000);
    manager_.register_switch(2, tcam::dell_8132f(), 2000);
  }
  QoSManager manager_;
};

TEST_F(QoSApiTest, CreateReturnsDescriptor) {
  auto desc = manager_.CreateTCAMQoS(1, from_millis(5), match_all());
  ASSERT_TRUE(desc.has_value());
  EXPECT_GT(desc->shadow_capacity, 0);
  EXPECT_GT(desc->max_burst_rate, 0);
  EXPECT_GT(desc->tcam_overhead, 0);
  EXPECT_LT(desc->tcam_overhead, 0.5);
  EXPECT_NE(manager_.agent(desc->id), nullptr);
  EXPECT_EQ(manager_.descriptor(desc->id)->switch_id, 1);
}

TEST_F(QoSApiTest, HeadlineConfigurationUnderFivePercent) {
  // The paper's headline: a 5 ms guarantee for <5% TCAM overhead.
  auto desc = manager_.CreateTCAMQoS(1, from_millis(5), match_all());
  ASSERT_TRUE(desc.has_value());
  EXPECT_LT(desc->tcam_overhead, 0.05);
}

TEST_F(QoSApiTest, CreateUnknownSwitchFails) {
  EXPECT_FALSE(manager_.CreateTCAMQoS(99, from_millis(5), match_all())
                   .has_value());
}

TEST_F(QoSApiTest, DoubleCreateFails) {
  ASSERT_TRUE(manager_.CreateTCAMQoS(1, from_millis(5), match_all()));
  EXPECT_FALSE(manager_.CreateTCAMQoS(1, from_millis(1), match_all()));
}

TEST_F(QoSApiTest, UnsatisfiableGuaranteeFails) {
  // A guarantee below the bare slot-write latency cannot be honored.
  EXPECT_FALSE(
      manager_.CreateTCAMQoS(1, from_micros(1), match_all()).has_value());
}

TEST_F(QoSApiTest, DeleteFreesTheSwitch) {
  auto desc = manager_.CreateTCAMQoS(1, from_millis(5), match_all());
  ASSERT_TRUE(desc);
  EXPECT_TRUE(manager_.DeleteQoS(desc->id));
  EXPECT_EQ(manager_.agent(desc->id), nullptr);
  EXPECT_FALSE(manager_.DeleteQoS(desc->id));  // idempotence: second fails
  // Switch can be configured again.
  EXPECT_TRUE(manager_.CreateTCAMQoS(1, from_millis(10), match_all()));
}

TEST_F(QoSApiTest, TighterGuaranteeCostsMore) {
  double at1 = manager_.QoSOverheads(1, from_millis(1), match_all());
  double at5 = manager_.QoSOverheads(1, from_millis(5), match_all());
  double at10 = manager_.QoSOverheads(1, from_millis(10), match_all());
  EXPECT_GT(at1, 0);
  EXPECT_LE(at1, at5);
  EXPECT_LE(at5, at10);
  // Overheads are what-if only: nothing got configured.
  EXPECT_TRUE(manager_.CreateTCAMQoS(1, from_millis(5), match_all()));
}

TEST_F(QoSApiTest, OverheadsNegativeWhenImpossible) {
  EXPECT_LT(manager_.QoSOverheads(99, from_millis(5), match_all()), 0);
  EXPECT_LT(manager_.QoSOverheads(1, from_micros(1), match_all()), 0);
}

TEST_F(QoSApiTest, ModQoSConfigResizesAndPreservesRules) {
  auto desc = manager_.CreateTCAMQoS(1, from_millis(5), match_all());
  ASSERT_TRUE(desc);
  HermesAgent* agent = manager_.agent(desc->id);
  agent->insert(0, net::Rule{7, 9, *Prefix::parse("10.0.0.0/8"),
                             net::forward_to(3)});
  int shadow_before = manager_.descriptor(desc->id)->shadow_capacity;
  ASSERT_TRUE(manager_.ModQoSConfig(desc->id, from_millis(1)));
  const QoSDescriptor* updated = manager_.descriptor(desc->id);
  EXPECT_LT(updated->shadow_capacity, shadow_before);
  EXPECT_EQ(updated->guarantee, from_millis(1));
  // Rule survived the re-carve.
  const net::Rule* hit = manager_.agent(desc->id)->lookup_ptr(
      0, *net::Ipv4Address::parse("10.1.1.1"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 3);
}

TEST_F(QoSApiTest, ModQoSConfigRejectsImpossible) {
  auto desc = manager_.CreateTCAMQoS(1, from_millis(5), match_all());
  ASSERT_TRUE(desc);
  EXPECT_FALSE(manager_.ModQoSConfig(desc->id, from_micros(1)));
  EXPECT_FALSE(manager_.ModQoSConfig(999, from_millis(5)));
}

TEST_F(QoSApiTest, ModQoSConfigKeepsThePredicate) {
  // Tightening the guarantee must not widen it to rules outside the
  // predicate: a priority-50 insert stays unmatched.
  auto desc = manager_.CreateTCAMQoS(1, from_millis(5),
                                     match_priority_at_least(100));
  ASSERT_TRUE(desc);
  ASSERT_TRUE(manager_.ModQoSConfig(desc->id, from_millis(1)));
  HermesAgent* agent = manager_.agent(desc->id);
  const std::uint64_t unmatched = agent->gate_keeper().stats().unmatched;
  agent->insert(0, net::Rule{7, 50, *Prefix::parse("10.0.0.0/8"),
                             net::forward_to(3)});
  EXPECT_EQ(agent->gate_keeper().stats().unmatched, unmatched + 1);
}

TEST_F(QoSApiTest, ModQoSMatchSwapsPredicate) {
  auto desc = manager_.CreateTCAMQoS(1, from_millis(5), match_all());
  ASSERT_TRUE(desc);
  HermesAgent* agent = manager_.agent(desc->id);
  agent->insert(0, net::Rule{7, 9, *Prefix::parse("10.0.0.0/8"),
                             net::forward_to(3)});
  ASSERT_TRUE(manager_.ModQoSMatch(
      desc->id, match_prefix_within(*Prefix::parse("192.168.0.0/16"))));
  agent = manager_.agent(desc->id);
  // (Replaying rule 7 through the new predicate already counted one
  // unmatched routing; measure the delta for the new insert.)
  std::uint64_t unmatched_before = agent->gate_keeper().stats().unmatched;
  // Out-of-scope rule goes to main (unmatched), in-scope gets guarantees.
  agent->insert(0, net::Rule{8, 10, *Prefix::parse("10.9.0.0/16"),
                             net::forward_to(4)});
  EXPECT_EQ(agent->gate_keeper().stats().unmatched, unmatched_before + 1);
  EXPECT_FALSE(manager_.ModQoSMatch(999, match_all()));
}

TEST_F(QoSApiTest, PerSwitchGuaranteesDiffer) {
  auto pica = manager_.CreateTCAMQoS(1, from_millis(5), match_all());
  auto dell = manager_.CreateTCAMQoS(2, from_millis(5), match_all());
  ASSERT_TRUE(pica && dell);
  // Different hardware => different shadow sizes for the same guarantee
  // (the Section 7 "Generality" requirement).
  EXPECT_NE(pica->shadow_capacity, dell->shadow_capacity);
}

}  // namespace
}  // namespace hermes::core
