// Eviction-heavy churn differential test for the LookupEngine: a
// near-capacity TcamTable under sustained insert/erase/modify cycling —
// the access pattern a cache tier's promote/demote loop produces — which
// piles up tombstones and forces rehashes in the tuple-space cells. The
// engine must stay bit-identical to the frozen linear scan (peek) and
// structurally sound (check_invariant) throughout.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "tcam/tcam_table.h"

namespace hermes::tcam {
namespace {

using net::Prefix;
using net::Rule;

std::uint64_t next_state(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1Dull;
}

Rule churn_rule(std::uint64_t& state, net::RuleId id) {
  static constexpr int kLengths[] = {16, 24, 28, 32, 32};
  int length = kLengths[next_state(state) % 5];
  // A narrow universe so masked keys collide across prefix lengths and
  // erase/insert cycles land in already-tombstoned cells.
  std::uint32_t addr =
      0x0A000000u |
      (static_cast<std::uint32_t>(next_state(state)) & 0x00000FFFu);
  int priority = static_cast<int>(next_state(state) % 6);
  return Rule{id, priority, Prefix(net::Ipv4Address(addr), length),
              net::forward_to(static_cast<int>(next_state(state) % 8))};
}

void expect_agrees_with_peek(TcamTable& table, std::uint64_t& state,
                             int probes) {
  for (int i = 0; i < probes; ++i) {
    auto addr = net::Ipv4Address(
        0x0A000000u |
        (static_cast<std::uint32_t>(next_state(state)) & 0x00000FFFu));
    const net::Rule* fast = table.lookup_ptr(addr);
    std::optional<net::Rule> slow = table.peek(addr);
    if (!slow.has_value()) {
      ASSERT_EQ(fast, nullptr) << addr.to_string();
    } else {
      ASSERT_NE(fast, nullptr) << addr.to_string();
      ASSERT_EQ(fast->id, slow->id) << addr.to_string();
    }
  }
}

TEST(LookupEngineChurn, EvictionHeavyCyclingStaysExact) {
  constexpr int kCapacity = 64;
  TcamTable table(kCapacity);
  std::uint64_t state = 0xFEEDFACE;
  net::RuleId next_id = 1;
  std::vector<net::RuleId> resident;

  // Fill to capacity.
  while (!table.full()) {
    Rule r = churn_rule(state, next_id);
    if (table.insert(r).ok) {
      resident.push_back(next_id);
      ++next_id;
    } else {
      ++next_id;  // duplicate-id misdraw; move on
    }
  }

  for (int round = 0; round < 400; ++round) {
    // Evict a random resident, admit a fresh rule — the cache tier's
    // steady state. Every few rounds, rewrite a survivor's action or
    // match in place (tombstone-free mutations must coexist with the
    // tombstoned ones).
    std::size_t vi = next_state(state) % resident.size();
    ASSERT_TRUE(table.erase(resident[vi]).ok);
    resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(vi));

    Rule fresh = churn_rule(state, next_id++);
    if (table.insert(fresh).ok) resident.push_back(fresh.id);

    if (round % 5 == 0 && !resident.empty()) {
      net::RuleId mid = resident[next_state(state) % resident.size()];
      if (next_state(state) % 2 == 0) {
        table.modify_action(
            *table.find_ptr(mid),
            net::forward_to(static_cast<int>(next_state(state) % 8)));
      } else {
        std::uint32_t addr =
            0x0A000000u |
            (static_cast<std::uint32_t>(next_state(state)) & 0x00000FFFu);
        table.modify_match(mid, Prefix(net::Ipv4Address(addr), 32));
      }
    }

    if (round % 16 == 0) {
      ASSERT_TRUE(table.engine().check_invariant()) << "round " << round;
      ASSERT_TRUE(table.check_invariant()) << "round " << round;
      expect_agrees_with_peek(table, state, 64);
    }
  }
  EXPECT_TRUE(table.engine().check_invariant());
  EXPECT_TRUE(table.check_invariant());
  expect_agrees_with_peek(table, state, 512);
  EXPECT_EQ(table.occupancy(), static_cast<int>(resident.size()));
}

TEST(LookupEngineChurn, DrainAndRefillSweepsTombstones) {
  constexpr int kCapacity = 48;
  TcamTable table(kCapacity);
  std::uint64_t state = 0xB00B1E5;
  net::RuleId next_id = 1;

  for (int cycle = 0; cycle < 12; ++cycle) {
    // Refill to capacity...
    std::vector<net::RuleId> ids;
    while (!table.full()) {
      Rule r = churn_rule(state, next_id++);
      if (table.insert(r).ok) ids.push_back(r.id);
    }
    expect_agrees_with_peek(table, state, 64);
    // ...then drain completely, leaving a cell array full of tombstones
    // for the next cycle's inserts to probe through and rehash away.
    for (net::RuleId id : ids) ASSERT_TRUE(table.erase(id).ok);
    ASSERT_TRUE(table.empty());
    ASSERT_TRUE(table.engine().check_invariant()) << "cycle " << cycle;
  }
  EXPECT_TRUE(table.check_invariant());
}

}  // namespace
}  // namespace hermes::tcam
