#include "hermes/rule_store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

namespace hermes::core {
namespace {

using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority = 1) {
  return Rule{id, priority, *Prefix::parse("10.0.0.0/8"),
              net::forward_to(1)};
}

LogicalRule simple(net::RuleId id, Placement placement = Placement::kShadow) {
  return LogicalRule{make_rule(id), placement, {id}, {}};
}

TEST(RuleStore, AddAndFind) {
  RuleStore store;
  store.add(simple(1));
  ASSERT_NE(store.find(1), nullptr);
  EXPECT_EQ(store.find(1)->original.id, 1u);
  EXPECT_EQ(store.find(2), nullptr);
  EXPECT_TRUE(store.contains(1));
  EXPECT_EQ(store.size(), 1u);
}

TEST(RuleStore, PhysicalToLogicalMapping) {
  RuleStore store;
  LogicalRule lr = simple(1);
  lr.physical_ids = {RuleStore::piece_id(1, 1), RuleStore::piece_id(2, 1),
                     RuleStore::piece_id(3, 1)};
  store.add(lr);
  EXPECT_EQ(store.logical_of(RuleStore::piece_id(2, 1)),
            std::optional<net::RuleId>(1));
  EXPECT_EQ(store.logical_of(999), std::nullopt);
}

TEST(RuleStore, LogicalOfRejectsAPieceItsRuleDoesNotList) {
  RuleStore store;
  LogicalRule lr = simple(1);
  lr.physical_ids = {RuleStore::piece_id(1, 1), RuleStore::piece_id(2, 1)};
  store.add(lr);
  store.add(simple(2));
  // Rule 1 is live, but lists neither its own id nor this mint.
  EXPECT_EQ(RuleStore::owner_of(RuleStore::piece_id(3, 1)), 1u);
  EXPECT_EQ(store.logical_of(RuleStore::piece_id(3, 1)), std::nullopt);
  EXPECT_EQ(store.logical_of(1), std::nullopt);
  // Rule 2 is uncut: its one piece is its own id, and no minted id.
  EXPECT_EQ(store.logical_of(2), std::optional<net::RuleId>(2));
  EXPECT_EQ(store.logical_of(RuleStore::piece_id(1, 2)), std::nullopt);
}

TEST(RuleStore, DependencyEdges) {
  RuleStore store;
  store.add(simple(10, Placement::kMain));  // the blocker
  LogicalRule cut = simple(2);
  cut.cut_against = {10};
  store.add(cut);
  auto deps = store.dependents_of(10);
  EXPECT_EQ(deps, std::vector<net::RuleId>{2});
  EXPECT_TRUE(store.dependents_of(2).empty());
}

TEST(RuleStore, RemoveDropsEdgesAndMappings) {
  RuleStore store;
  store.add(simple(10, Placement::kMain));
  LogicalRule cut = simple(2);
  cut.cut_against = {10};
  store.add(cut);
  auto removed = store.remove(2);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->original.id, 2u);
  EXPECT_TRUE(store.dependents_of(10).empty());
  EXPECT_EQ(store.logical_of(2), std::nullopt);
  EXPECT_FALSE(store.remove(2).has_value());
}

TEST(RuleStore, RebindSwapsPiecesAndEdges) {
  RuleStore store;
  store.add(simple(10, Placement::kMain));
  store.add(simple(11, Placement::kMain));
  LogicalRule cut = simple(2);
  cut.physical_ids = {RuleStore::piece_id(1, 2), RuleStore::piece_id(2, 2)};
  cut.cut_against = {10};
  store.add(cut);

  store.rebind(2, Placement::kMain, {RuleStore::piece_id(3, 2)}, {11});
  const LogicalRule* lr = store.find(2);
  ASSERT_NE(lr, nullptr);
  EXPECT_EQ(lr->placement, Placement::kMain);
  EXPECT_EQ(lr->physical_ids,
            std::vector<net::RuleId>{RuleStore::piece_id(3, 2)});
  EXPECT_EQ(store.logical_of(RuleStore::piece_id(3, 2)),
            std::optional<net::RuleId>(2));
  EXPECT_EQ(store.logical_of(RuleStore::piece_id(1, 2)), std::nullopt);
  EXPECT_TRUE(store.dependents_of(10).empty());
  EXPECT_EQ(store.dependents_of(11), std::vector<net::RuleId>{2});
}

TEST(RuleStore, PlacementQueries) {
  RuleStore store;
  store.add(simple(1, Placement::kShadow));
  store.add(simple(2, Placement::kMain));
  store.add(simple(3, Placement::kShadow));
  auto shadow = store.ids_with_placement(Placement::kShadow);
  std::sort(shadow.begin(), shadow.end());
  EXPECT_EQ(shadow, (std::vector<net::RuleId>{1, 3}));
  EXPECT_EQ(store.ids_with_placement(Placement::kMain),
            std::vector<net::RuleId>{2});
}

TEST(RuleStore, AllOriginalsSortedByPriority) {
  RuleStore store;
  LogicalRule a = simple(1);
  a.original.priority = 3;
  LogicalRule b = simple(2);
  b.original.priority = 9;
  store.add(a);
  store.add(b);
  auto originals = store.all_originals();
  ASSERT_EQ(originals.size(), 2u);
  EXPECT_EQ(originals[0].id, 2u);  // higher priority first
  EXPECT_EQ(originals[1].id, 1u);
}

TEST(RuleStore, MultipleDependentsOfOneBlocker) {
  RuleStore store;
  store.add(simple(10, Placement::kMain));
  for (net::RuleId id = 1; id <= 3; ++id) {
    LogicalRule cut = simple(id);
    cut.cut_against = {10};
    store.add(cut);
  }
  auto deps = store.dependents_of(10);
  std::sort(deps.begin(), deps.end());
  EXPECT_EQ(deps, (std::vector<net::RuleId>{1, 2, 3}));
}

TEST(RuleStore, ClearEmptiesEverything) {
  RuleStore store;
  store.add(simple(1));
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.find(1), nullptr);
  EXPECT_TRUE(store.ids_with_placement(Placement::kShadow).empty());
}

TEST(RuleStore, SetActionRewritesOnlyTheAction) {
  RuleStore store;
  store.add(simple(1));
  store.add(simple(2));
  store.set_action(*store.find(1), net::forward_to(7));
  EXPECT_EQ(store.find(1)->original.action, net::forward_to(7));
  EXPECT_EQ(store.find(1)->placement, Placement::kShadow);
  EXPECT_EQ(store.find(2)->original.action, net::forward_to(1));
}

TEST(RuleStore, SortByPriorityBreaksTiesByAscendingId) {
  RuleStore store;
  for (net::RuleId id : {5u, 3u, 9u, 1u, 7u}) {
    LogicalRule lr = simple(id);
    lr.original.priority = id == 9 ? 2 : 1;
    store.add(lr);
  }
  std::vector<net::RuleId> ids = {7, 1, 9, 5, 3};
  store.sort_by_priority(ids);
  EXPECT_EQ(ids, (std::vector<net::RuleId>{9, 1, 3, 5, 7}));
}

// Property: under random add/rebind/remove/clear, ids_with_placement(p)
// equals a brute-force filter over every logical rule, for both
// placements.
class RuleStoreProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RuleStoreProperty, PlacementQueriesMatchBruteForce) {
  std::mt19937_64 rng(GetParam());
  RuleStore store;
  std::map<net::RuleId, Placement> reference;
  auto pick = [&](net::RuleId fallback) {
    if (reference.empty() || rng() % 8 == 0) return fallback;  // unknown id
    auto it = reference.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(rng() % reference.size()));
    return it->first;
  };
  auto random_placement = [&] {
    return rng() % 2 == 0 ? Placement::kShadow : Placement::kMain;
  };
  net::RuleId next_piece = 1000;
  for (int step = 0; step < 2000; ++step) {
    const int op = static_cast<int>(rng() % 16);
    if (op < 6) {
      const net::RuleId id = 1 + rng() % 64;
      if (reference.count(id) > 0) continue;
      const Placement placement = random_placement();
      store.add(LogicalRule{make_rule(id), placement, {next_piece++}, {}});
      reference[id] = placement;
    } else if (op < 11) {
      const net::RuleId id = pick(0);
      if (reference.count(id) == 0) continue;
      const Placement placement = random_placement();
      store.rebind(id, placement, {next_piece++, next_piece++}, {});
      reference[id] = placement;
    } else if (op < 15) {
      const net::RuleId id = pick(999);
      EXPECT_EQ(store.remove(id).has_value(), reference.erase(id) > 0);
    } else if (step % 10 == 0) {
      store.clear();
      reference.clear();
    }
    for (Placement placement : {Placement::kShadow, Placement::kMain}) {
      std::vector<net::RuleId> got = store.ids_with_placement(placement);
      std::sort(got.begin(), got.end());
      std::vector<net::RuleId> want;
      for (const auto& [id, p] : reference)
        if (p == placement) want.push_back(id);
      ASSERT_EQ(got, want) << "step " << step;
    }
    ASSERT_EQ(store.size(), reference.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuleStoreProperty,
                         ::testing::Values(1, 7, 42));

}  // namespace
}  // namespace hermes::core
