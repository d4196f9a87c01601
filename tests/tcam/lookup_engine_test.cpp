// Differential tests for the tuple-space LookupEngine: the linear
// first-match scan (TcamTable::peek) is the frozen oracle, and the engine
// must agree with it bit-for-bit — same winning rule id, not just the same
// priority — across random rule sets, overlapping prefixes, equal-priority
// runs, and deletes/modifies mid-stream. A second battery checks the
// lookup path end-to-end through the Asic (cross-slice precedence) and all
// backend implementations (including ShadowSwitch's software table and its
// hardware-wins-ties combine).
#include "tcam/lookup_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "baselines/espres.h"
#include "baselines/hermes_backend.h"
#include "baselines/plain_switch.h"
#include "baselines/shadow_switch.h"
#include "baselines/tango.h"
#include "tcam/asic.h"
#include "tcam/tcam_table.h"

namespace hermes::tcam {
namespace {

using net::forward_to;
using net::Ipv4Address;
using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), forward_to(port)};
}

/// Probe addresses that exercise a rule set: each rule's first and last
/// covered address plus uniform random draws (guaranteed misses included).
std::vector<Ipv4Address> probe_set(const std::vector<Rule>& rules,
                                   std::mt19937_64& rng, int extra = 64) {
  std::vector<Ipv4Address> probes;
  probes.reserve(rules.size() * 2 + static_cast<std::size_t>(extra));
  for (const Rule& r : rules) {
    probes.push_back(r.match.first());
    probes.push_back(r.match.last());
  }
  for (int i = 0; i < extra; ++i)
    probes.emplace_back(static_cast<std::uint32_t>(rng()));
  return probes;
}

/// The differential check: engine-served lookup_ptr vs the linear oracle.
void expect_matches_oracle(TcamTable& t,
                           const std::vector<Ipv4Address>& probes) {
  for (Ipv4Address addr : probes) {
    std::optional<Rule> expect = t.peek(addr);
    const Rule* got = t.lookup_ptr(addr);
    if (!expect.has_value()) {
      ASSERT_EQ(got, nullptr) << "phantom match at " << addr.value();
    } else {
      ASSERT_NE(got, nullptr) << "missed match at " << addr.value();
      ASSERT_EQ(got->id, expect->id) << "wrong winner at " << addr.value();
      ASSERT_EQ(*got, *expect);
    }
  }
}

// --- Random differential fuzz (>= 50 seeds) --------------------------------

class LookupEngineDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LookupEngineDifferential, AgreesWithLinearOracleUnderChurn) {
  std::mt19937_64 rng(GetParam());
  TcamTable t(192);
  std::vector<Rule> live;
  net::RuleId next_id = 1;

  auto random_prefix = [&rng]() {
    // Narrow length menu => heavy overlap; full menu => sparse buckets.
    static constexpr int kLengths[] = {0, 4, 8, 12, 16, 20, 24, 28, 32};
    int length = kLengths[rng() % std::size(kLengths)];
    return Prefix(Ipv4Address(static_cast<std::uint32_t>(rng())), length);
  };

  for (int step = 0; step < 400; ++step) {
    int op = static_cast<int>(rng() % 8);
    if (op <= 3 || live.empty()) {  // bias toward growth
      // Narrow priority range on purpose: equal-priority ties must
      // resolve by arrival, the engine's seq path.
      Rule r{next_id++, static_cast<int>(rng() % 8), random_prefix(),
             forward_to(static_cast<int>(rng() % 8))};
      if (t.insert(r).ok) live.push_back(r);
    } else if (op == 4) {
      std::size_t victim = rng() % live.size();
      ASSERT_TRUE(t.erase(live[victim].id).ok);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else if (op == 5) {
      std::size_t victim = rng() % live.size();
      net::Action a = forward_to(static_cast<int>(rng() % 8));
      const net::Rule* entry = t.find_ptr(live[victim].id);
      ASSERT_NE(entry, nullptr);
      t.modify_action(*entry, a);
      live[victim].action = a;
    } else if (op == 6) {
      std::size_t victim = rng() % live.size();
      Prefix m = random_prefix();
      ASSERT_TRUE(t.modify_match(live[victim].id, m).ok);
      live[victim].match = m;
    } else if (step % 89 == 0) {  // rare wipe
      t.clear();
      live.clear();
    }
    if (step % 16 == 0) {
      ASSERT_TRUE(t.check_invariant()) << "step " << step;
    }
    if (step % 8 == 0) {
      std::vector<Ipv4Address> probes = probe_set(live, rng, /*extra=*/16);
      expect_matches_oracle(t, probes);
    }
  }
  ASSERT_TRUE(t.check_invariant());
  std::vector<Ipv4Address> probes = probe_set(live, rng, /*extra=*/256);
  expect_matches_oracle(t, probes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookupEngineDifferential,
                         ::testing::Range<std::uint64_t>(0, 50));

// --- Targeted structure tests ----------------------------------------------

TEST(LookupEngine, NestedPrefixesResolveByPriorityNotLength) {
  TcamTable t(16);
  // Longest prefix does NOT automatically win: TCAM semantics are pure
  // priority order. The /8 outranks the /24 here.
  ASSERT_TRUE(t.insert(make_rule(1, 9, "10.0.0.0/8")).ok);
  ASSERT_TRUE(t.insert(make_rule(2, 5, "10.1.0.0/16")).ok);
  ASSERT_TRUE(t.insert(make_rule(3, 2, "10.1.2.0/24")).ok);
  ASSERT_TRUE(t.insert(make_rule(4, 7, "0.0.0.0/0")).ok);

  const Rule* hit = t.lookup_ptr(Ipv4Address::from_octets(10, 1, 2, 3));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);
  hit = t.lookup_ptr(Ipv4Address::from_octets(11, 0, 0, 1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 4u);
  expect_matches_oracle(
      t, {Ipv4Address::from_octets(10, 1, 2, 3),
          Ipv4Address::from_octets(10, 1, 9, 9),
          Ipv4Address::from_octets(10, 9, 9, 9),
          Ipv4Address::from_octets(11, 0, 0, 1)});
}

TEST(LookupEngine, EqualPriorityTiesFollowArrivalOrder) {
  TcamTable t(16);
  // Three same-priority rules covering the same address, inserted in id
  // order: the linear scan returns the FIRST physical slot, which is the
  // earliest arrival. The engine must reproduce that, and keep doing so
  // as earlier arrivals are erased.
  ASSERT_TRUE(t.insert(make_rule(1, 5, "10.0.0.0/8")).ok);
  ASSERT_TRUE(t.insert(make_rule(2, 5, "10.1.0.0/16")).ok);
  ASSERT_TRUE(t.insert(make_rule(3, 5, "10.1.2.0/24")).ok);

  Ipv4Address addr = Ipv4Address::from_octets(10, 1, 2, 3);
  const Rule* hit = t.lookup_ptr(addr);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);

  ASSERT_TRUE(t.erase(1).ok);
  hit = t.lookup_ptr(addr);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 2u);

  ASSERT_TRUE(t.erase(2).ok);
  hit = t.lookup_ptr(addr);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 3u);
}

TEST(LookupEngine, ModifyMatchPreservesArrivalPrecedence) {
  TcamTable t(16);
  ASSERT_TRUE(t.insert(make_rule(1, 5, "10.0.0.0/8")).ok);
  ASSERT_TRUE(t.insert(make_rule(2, 5, "10.0.0.0/8")).ok);
  // Rule 1 moves to a different (overlapping) match. modify_match keeps
  // the entry in its physical slot, so where both still match, rule 1
  // must STILL beat rule 2 — the re-key must not reset its arrival stamp.
  ASSERT_TRUE(t.modify_match(1, *Prefix::parse("10.1.0.0/16")).ok);

  Ipv4Address addr = Ipv4Address::from_octets(10, 1, 2, 3);
  std::optional<Rule> expect = t.peek(addr);
  ASSERT_TRUE(expect.has_value());
  ASSERT_EQ(expect->id, 1u);  // oracle: slot order unchanged
  const Rule* hit = t.lookup_ptr(addr);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);
}

TEST(LookupEngine, BatchInsertStampsMatchSequentialSemantics) {
  TcamTable seq(64);
  TcamTable batched(64);
  std::vector<Rule> batch;
  std::mt19937_64 rng(7);
  for (net::RuleId id = 1; id <= 40; ++id) {
    Rule r{id, static_cast<int>(rng() % 4),
           Prefix(Ipv4Address(static_cast<std::uint32_t>(rng())),
                  static_cast<int>(8 + 4 * (rng() % 5))),
           forward_to(static_cast<int>(rng() % 8))};
    batch.push_back(r);
  }
  batch.push_back(batch.front());  // duplicate id: must be rejected
  for (const Rule& r : batch) seq.insert(r);
  batched.insert_batch(batch);

  ASSERT_TRUE(seq.check_invariant());
  ASSERT_TRUE(batched.check_invariant());
  std::vector<Ipv4Address> probes = probe_set(batch, rng);
  for (Ipv4Address addr : probes) {
    const Rule* a = seq.lookup_ptr(addr);
    const Rule* b = batched.lookup_ptr(addr);
    ASSERT_EQ(a == nullptr, b == nullptr);
    if (a != nullptr) {
      EXPECT_EQ(a->id, b->id);
    }
  }
  expect_matches_oracle(batched, probes);
}

TEST(LookupEngine, ClearDropsEverything) {
  TcamTable t(16);
  ASSERT_TRUE(t.insert(make_rule(1, 5, "10.0.0.0/8")).ok);
  t.clear();
  EXPECT_EQ(t.lookup_ptr(Ipv4Address::from_octets(10, 0, 0, 1)), nullptr);
  EXPECT_TRUE(t.check_invariant());
  ASSERT_TRUE(t.insert(make_rule(2, 1, "10.0.0.0/8")).ok);
  const Rule* hit = t.lookup_ptr(Ipv4Address::from_octets(10, 0, 0, 1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 2u);
}

TEST(LookupEngine, CountsHitsMissesAndProbedBuckets) {
  obs::Registry reg;
  obs::attach(&reg);
  {
    TcamTable t(16);
    ASSERT_TRUE(t.insert(make_rule(1, 5, "10.0.0.0/8")).ok);
    ASSERT_TRUE(t.insert(make_rule(2, 3, "10.1.0.0/16")).ok);
    EXPECT_NE(t.lookup_ptr(Ipv4Address::from_octets(10, 1, 0, 1)), nullptr);
    EXPECT_NE(t.lookup_ptr(Ipv4Address::from_octets(10, 9, 0, 1)), nullptr);
    EXPECT_EQ(t.lookup_ptr(Ipv4Address::from_octets(192, 0, 0, 1)), nullptr);
  }
  obs::attach(nullptr);
  EXPECT_EQ(reg.counter_value("tcam.lookup.hits"), 2u);
  EXPECT_EQ(reg.counter_value("tcam.lookup.misses"), 1u);
  EXPECT_EQ(reg.counter_value("tcam.lookups"), 3u);
}

// --- Asic: cross-slice precedence -------------------------------------------

TEST(AsicLookup, SlicePrecedenceBeatsPriority) {
  // Slice 0 (shadow position) wins even when slice 1 holds a
  // higher-priority match — precedence is by slice index, not priority.
  Asic asic(pica8_p3290(), {32, 32});
  ASSERT_TRUE(asic.apply(0, {net::FlowModType::kInsert,
                             make_rule(1, 1, "10.0.0.0/8", 1)}).ok);
  ASSERT_TRUE(asic.apply(1, {net::FlowModType::kInsert,
                             make_rule(2, 9, "10.0.0.0/8", 2)}).ok);
  const Rule* hit = asic.lookup_ptr(0, Ipv4Address::from_octets(10, 0, 0, 1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);
}

TEST(AsicLookup, MatchesPerSlicePeekChainUnderRandomFill) {
  std::mt19937_64 rng(99);
  Asic asic(pica8_p3290(), {64, 128});
  for (net::RuleId id = 1; id <= 150; ++id) {
    Rule r{id, static_cast<int>(rng() % 10),
           Prefix(Ipv4Address(static_cast<std::uint32_t>(rng())),
                  static_cast<int>(8 + (rng() % 17))),
           forward_to(static_cast<int>(rng() % 8))};
    asic.apply(static_cast<int>(rng() % 2), {net::FlowModType::kInsert, r});
  }
  for (int i = 0; i < 512; ++i) {
    Ipv4Address addr(static_cast<std::uint32_t>(rng()));
    // Oracle: first slice whose linear scan matches.
    std::optional<Rule> expect = asic.slice(0).peek(addr);
    if (!expect.has_value()) expect = asic.slice(1).peek(addr);
    const Rule* got = asic.lookup_ptr(0, addr);
    ASSERT_EQ(got == nullptr, !expect.has_value());
    if (expect.has_value()) {
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->id, expect->id);
    }
  }
}

// --- Backends: identical op streams must classify identically ---------------

// Feeds the same insert/modify/delete stream (distinct priorities, so no
// cross-architecture tie ambiguity) to every backend, drains all pending
// work, then compares classifications. Tango rewrites rules into new
// physical entries, so agreement is on (priority, forwarding action),
// which survives rewriting; presence/absence must agree exactly.
TEST(BackendLookupParity, AllBackendsAgreeAfterSameOpStream) {
  const SwitchModel& model = pica8_p3290();
  baselines::PlainSwitch plain(model, 512);
  baselines::ShadowSwitchBackend shadow(model, 512);
  baselines::EspresSwitch espres(model, 512);
  baselines::TangoSwitch tango(model, 512);
  baselines::HermesBackend hermes(model, 512);
  std::vector<baselines::SwitchBackend*> backends = {
      &plain, &shadow, &espres, &tango, &hermes};

  std::mt19937_64 rng(4242);
  std::vector<Rule> live;
  net::RuleId next_id = 1;
  int next_priority = 1;
  Time now = 0;

  auto feed = [&](const net::FlowMod& mod) {
    for (baselines::SwitchBackend* b : backends) b->handle(now, mod);
    now += from_millis(1);
  };

  // Phase 1: grow.
  for (int i = 0; i < 60; ++i) {
    Rule r{next_id++, next_priority++,
           Prefix(Ipv4Address(static_cast<std::uint32_t>(rng())),
                  static_cast<int>(8 + 4 * (rng() % 5))),
           forward_to(static_cast<int>(rng() % 8))};
    live.push_back(r);
    feed({net::FlowModType::kInsert, r});
  }
  // Drain window/flush state before mutating resident rules, so
  // deletes/modifies hit installed entries on every architecture.
  now += from_millis(200);
  for (baselines::SwitchBackend* b : backends) b->tick(now);
  shadow.flush(now);

  // Phase 2: deletes and in-place modifies mid-stream.
  for (int i = 0; i < 30 && !live.empty(); ++i) {
    std::size_t victim = rng() % live.size();
    if (rng() % 2 == 0) {
      feed({net::FlowModType::kDelete, live[victim]});
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    } else {
      live[victim].action = forward_to(static_cast<int>(rng() % 8));
      feed({net::FlowModType::kModify, live[victim]});
    }
  }
  now += from_millis(200);
  for (baselines::SwitchBackend* b : backends) b->tick(now);
  shadow.flush(now);

  std::vector<Ipv4Address> probes = probe_set(live, rng, /*extra=*/128);
  for (Ipv4Address addr : probes) {
    const Rule* ref = plain.lookup_ptr(now, addr);
    for (baselines::SwitchBackend* b : backends) {
      const Rule* got = b->lookup_ptr(now, addr);
      ASSERT_EQ(got == nullptr, ref == nullptr)
          << b->name() << " diverges on presence at " << addr.value();
      if (ref != nullptr) {
        // Hermes may repartition rules into shadow pieces with remapped
        // priorities; the preserved contract is the forwarding decision.
        if (b != &hermes) {
          EXPECT_EQ(got->priority, ref->priority)
              << b->name() << " wrong winner at " << addr.value();
        }
        EXPECT_EQ(got->action, ref->action)
            << b->name() << " wrong action at " << addr.value();
      }
      // The copying base-class read (no fault plan here, so its
      // earliest-time clock changes nothing) sees the same result.
      std::optional<Rule> copy = b->lookup(addr);
      ASSERT_EQ(copy.has_value(), got != nullptr);
      if (got != nullptr) {
        EXPECT_EQ(copy->id, got->id);
      }
    }
  }
}

// ShadowSwitch's documented combine: hardware wins priority ties (the
// TCAM answers before the software slow path is consulted).
TEST(BackendLookupParity, ShadowSwitchHardwareWinsPriorityTies) {
  baselines::ShadowSwitchBackend sw(pica8_p3290(), 64);
  Time now = 0;
  // Rule 1 goes in and is flushed to the TCAM.
  now = sw.handle(now, {net::FlowModType::kInsert,
                        make_rule(1, 5, "10.0.0.0/8", /*port=*/1)});
  sw.flush(now);
  ASSERT_EQ(sw.software_resident(), 0);
  // Rule 2, same priority, overlapping, stays software-resident.
  now = sw.handle(now, {net::FlowModType::kInsert,
                        make_rule(2, 5, "10.0.0.0/9", /*port=*/2)});
  ASSERT_EQ(sw.software_resident(), 1);

  const Rule* hit = sw.lookup_ptr(now, Ipv4Address::from_octets(10, 1, 1, 1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 1u);  // hardware entry, not the software one

  // A strictly higher-priority software rule DOES win.
  now = sw.handle(now, {net::FlowModType::kInsert,
                        make_rule(3, 8, "10.0.0.0/9", /*port=*/3)});
  hit = sw.lookup_ptr(now, Ipv4Address::from_octets(10, 1, 1, 1));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->id, 3u);
}

// The software engine must track replacement inserts (same id installed
// twice before any flush) — the stale match must not linger.
TEST(BackendLookupParity, ShadowSwitchReplacementInsertEvictsStaleMatch) {
  baselines::ShadowSwitchBackend sw(pica8_p3290(), 64);
  Time now = 0;
  now = sw.handle(now, {net::FlowModType::kInsert,
                        make_rule(1, 5, "10.0.0.0/8", /*port=*/1)});
  // Same id re-installed with a different match while software-resident.
  now = sw.handle(now, {net::FlowModType::kInsert,
                        make_rule(1, 5, "192.168.0.0/16", /*port=*/2)});
  ASSERT_EQ(sw.software_resident(), 1);
  EXPECT_EQ(sw.lookup_ptr(now, Ipv4Address::from_octets(10, 1, 1, 1)),
            nullptr);
  const Rule* hit =
      sw.lookup_ptr(now, Ipv4Address::from_octets(192, 168, 3, 4));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 2);
}

}  // namespace
}  // namespace hermes::tcam
