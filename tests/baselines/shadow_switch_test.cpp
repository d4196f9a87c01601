#include "baselines/shadow_switch.h"

#include <gtest/gtest.h>

#include "baselines/hermes_backend.h"
#include "tcam/switch_model.h"

namespace hermes::baselines {
namespace {

using net::FlowMod;
using net::FlowModType;
using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(port)};
}

TEST(ShadowSwitch, InsertsCompleteAtSoftwareSpeed) {
  ShadowSwitchBackend sw(tcam::pica8_p3290(), 2000);
  Time done =
      sw.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.0.0.0/8")});
  EXPECT_EQ(done, from_micros(30));  // the default software_insert
  EXPECT_EQ(sw.software_resident(), 1);
  EXPECT_EQ(sw.tcam_occupancy(), 0);
}

TEST(ShadowSwitch, BackgroundFlushMovesRulesToTcam) {
  ShadowSwitchBackend sw(tcam::pica8_p3290(), 2000,
                         from_micros(30), from_millis(20));
  for (net::RuleId id = 1; id <= 5; ++id)
    sw.handle(0, {FlowModType::kInsert,
                  make_rule(id, static_cast<int>(id), "10.0.0.0/8")});
  sw.tick(from_millis(10));
  EXPECT_EQ(sw.software_resident(), 5);  // flush period not reached
  sw.tick(from_millis(20));
  EXPECT_EQ(sw.software_resident(), 0);
  EXPECT_EQ(sw.tcam_occupancy(), 5);
  EXPECT_TRUE(sw.asic().slice(0).check_invariant());
}

TEST(ShadowSwitch, LookupCoversBothTablesWithPriority) {
  ShadowSwitchBackend sw(tcam::pica8_p3290(), 2000);
  sw.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.0.0.0/8", 1)});
  sw.flush(0);  // rule 1 now in TCAM
  sw.handle(0, {FlowModType::kInsert, make_rule(2, 9, "10.1.0.0/16", 2)});
  // Rule 2 is software-only but higher priority: it must win.
  const Rule* hit = sw.lookup_ptr(0, *net::Ipv4Address::parse("10.1.2.3"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 2);
  // Outside rule 2: the TCAM rule answers.
  hit = sw.lookup_ptr(0, *net::Ipv4Address::parse("10.2.0.1"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 1);
}

TEST(ShadowSwitch, DeleteFromEitherResidence) {
  ShadowSwitchBackend sw(tcam::pica8_p3290(), 2000);
  sw.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.0.0.0/8")});
  sw.handle(0, {FlowModType::kInsert, make_rule(2, 6, "11.0.0.0/8")});
  sw.flush(0);
  sw.handle(0, {FlowModType::kInsert, make_rule(3, 7, "12.0.0.0/8")});
  // Delete one TCAM-resident, one software-resident.
  sw.handle(from_millis(1), {FlowModType::kDelete, Rule{1, 0, {}, {}}});
  sw.handle(from_millis(1), {FlowModType::kDelete, Rule{3, 0, {}, {}}});
  EXPECT_EQ(sw.tcam_occupancy(), 1);
  EXPECT_EQ(sw.software_resident(), 0);
  const Time now = from_millis(1);
  EXPECT_EQ(sw.lookup_ptr(now, *net::Ipv4Address::parse("10.1.1.1")), nullptr);
  EXPECT_EQ(sw.lookup_ptr(now, *net::Ipv4Address::parse("12.1.1.1")), nullptr);
  EXPECT_NE(sw.lookup_ptr(now, *net::Ipv4Address::parse("11.1.1.1")), nullptr);
}

TEST(ShadowSwitch, InsertOfAFlushedIdReplacesTheTcamCopy) {
  // The re-inserted rule must land on the next flush (not stop the batch
  // at its duplicate id), and the stale TCAM copy must stop answering.
  ShadowSwitchBackend sw(tcam::pica8_p3290(), 2000);
  sw.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.0.0.0/8", 1)});
  sw.handle(0, {FlowModType::kInsert, make_rule(2, 6, "11.0.0.0/8", 2)});
  sw.flush(0);
  sw.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.0.0.0/8", 7)});
  sw.handle(0, {FlowModType::kInsert, make_rule(3, 7, "12.0.0.0/8", 3)});
  const Time now = from_millis(1);
  sw.flush(now);
  EXPECT_EQ(sw.tcam_occupancy(), 3);
  EXPECT_EQ(sw.software_resident(), 0);
  const Rule* hit = sw.lookup_ptr(now, *net::Ipv4Address::parse("10.1.1.1"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 7);
  sw.handle(now, {FlowModType::kDelete, Rule{1, 0, {}, {}}});
  EXPECT_EQ(sw.lookup_ptr(now, *net::Ipv4Address::parse("10.1.1.1")), nullptr);
}

TEST(ShadowSwitch, ModifyInSoftwareIsFast) {
  ShadowSwitchBackend sw(tcam::pica8_p3290(), 2000);
  sw.handle(0, {FlowModType::kInsert, make_rule(1, 5, "10.0.0.0/8", 1)});
  Time done = sw.handle(
      from_millis(1), {FlowModType::kModify, make_rule(1, 5, "10.0.0.0/8", 8)});
  EXPECT_LE(done - from_millis(1), from_micros(50));
  const Rule* hit = sw.lookup_ptr(done, *net::Ipv4Address::parse("10.1.1.1"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 8);
}

TEST(ShadowSwitch, FlushRespectsTcamCapacity) {
  ShadowSwitchBackend sw(tcam::pica8_p3290(), 3);
  for (net::RuleId id = 1; id <= 5; ++id)
    sw.handle(0, {FlowModType::kInsert,
                  make_rule(id, static_cast<int>(id), "10.0.0.0/8")});
  sw.flush(0);
  EXPECT_EQ(sw.tcam_occupancy(), 3);
  EXPECT_EQ(sw.software_resident(), 2);  // kept for the next chance
}

TEST(ShadowSwitch, RitSamplesAreSoftwareSpeed) {
  ShadowSwitchBackend sw(tcam::dell_8132f(), 2000, from_micros(25));
  for (net::RuleId id = 1; id <= 10; ++id)
    sw.handle(0, {FlowModType::kInsert, make_rule(id, 1, "10.0.0.0/8")});
  ASSERT_EQ(sw.rit_samples().size(), 10u);
  for (Duration d : sw.rit_samples()) EXPECT_EQ(d, from_micros(25));
  sw.clear_rit_samples();
  EXPECT_TRUE(sw.rit_samples().empty());
}

TEST(ShadowSwitch, FactoryKnowsIt) {
  auto sw = make_backend("shadowswitch", tcam::pica8_p3290(), 1000);
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->name(), "ShadowSwitch");
}

}  // namespace
}  // namespace hermes::baselines
