#include "hermes/overlap_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

namespace hermes::core {
namespace {

using net::Prefix;
using net::Rule;

constexpr int kAll = std::numeric_limits<int>::min();

Rule make_rule(net::RuleId id, int priority, std::string_view prefix) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(1)};
}

std::vector<net::RuleId> ids_of(const std::vector<Rule>& rules) {
  std::vector<net::RuleId> ids;
  for (const Rule& r : rules) ids.push_back(r.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(OverlapIndex, EmptyHasNoOverlaps) {
  OverlapIndex idx;
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(idx.overlapping(*Prefix::parse("10.0.0.0/8"), kAll).empty());
  EXPECT_TRUE(idx.overlapping(Prefix::any(), kAll).empty());
}

TEST(OverlapIndex, FindsAncestorOverlap) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 5, "10.0.0.0/8"));
  auto hits = idx.overlapping(*Prefix::parse("10.1.0.0/16"), kAll);
  EXPECT_EQ(ids_of(hits), std::vector<net::RuleId>{1});
}

TEST(OverlapIndex, FindsDescendantOverlap) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 5, "10.1.0.0/16"));
  auto hits = idx.overlapping(*Prefix::parse("10.0.0.0/8"), kAll);
  EXPECT_EQ(ids_of(hits), std::vector<net::RuleId>{1});
}

TEST(OverlapIndex, IgnoresDisjoint) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 5, "11.0.0.0/8"));
  EXPECT_TRUE(idx.overlapping(*Prefix::parse("10.0.0.0/8"), kAll).empty());
}

TEST(OverlapIndex, PriorityBoundFilters) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 3, "10.0.0.0/8"));
  idx.insert(make_rule(2, 7, "10.0.0.0/8"));
  auto hits = idx.overlapping(*Prefix::parse("10.1.0.0/16"), 5);
  EXPECT_EQ(ids_of(hits), std::vector<net::RuleId>{2});
  EXPECT_FALSE(idx.overlapping(*Prefix::parse("10.1.0.0/16"), 5).empty());
  EXPECT_TRUE(idx.overlapping(*Prefix::parse("10.1.0.0/16"), 7).empty());
}

TEST(OverlapIndex, SameNodeMultipleRules) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "10.0.0.0/8"));
  idx.insert(make_rule(2, 2, "10.0.0.0/8"));
  EXPECT_EQ(idx.size(), 2u);
  auto hits = idx.overlapping(*Prefix::parse("10.0.0.0/8"), kAll);
  EXPECT_EQ(ids_of(hits), (std::vector<net::RuleId>{1, 2}));
}

TEST(OverlapIndex, EraseRemovesOnlyTarget) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "10.0.0.0/8"));
  idx.insert(make_rule(2, 2, "10.0.0.0/8"));
  EXPECT_TRUE(idx.erase(1, *Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(idx.size(), 1u);
  auto hits = idx.overlapping(Prefix::any(), kAll);
  EXPECT_EQ(ids_of(hits), std::vector<net::RuleId>{2});
}

TEST(OverlapIndex, EraseMissingReturnsFalse) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "10.0.0.0/8"));
  EXPECT_FALSE(idx.erase(2, *Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(idx.erase(1, *Prefix::parse("11.0.0.0/8")));
  EXPECT_EQ(idx.size(), 1u);
}

TEST(OverlapIndex, EraseMaintainsMaxPriorityPruning) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 10, "10.1.0.0/16"));
  idx.insert(make_rule(2, 3, "10.2.0.0/16"));
  EXPECT_FALSE(idx.overlapping(*Prefix::parse("10.0.0.0/8"), 5).empty());
  idx.erase(1, *Prefix::parse("10.1.0.0/16"));
  EXPECT_TRUE(idx.overlapping(*Prefix::parse("10.0.0.0/8"), 5).empty());
}

TEST(OverlapIndex, ClearResets) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "10.0.0.0/8"));
  idx.clear();
  EXPECT_TRUE(idx.empty());
  EXPECT_TRUE(idx.overlapping(Prefix::any(), kAll).empty());
}

TEST(OverlapIndex, DefaultRouteOverlapsEverything) {
  OverlapIndex idx;
  idx.insert(make_rule(1, 1, "0.0.0.0/0"));
  EXPECT_EQ(idx.overlapping(*Prefix::parse("203.0.113.0/24"), kAll).size(),
            1u);
  EXPECT_EQ(idx.overlapping(*Prefix::parse("255.255.255.255/32"), kAll)
                .size(),
            1u);
}

std::vector<net::RuleId> in_order(const std::vector<Rule>& rules) {
  std::vector<net::RuleId> ids;
  for (const Rule& r : rules) ids.push_back(r.id);
  return ids;
}

// The documented query order over `reference` (kept in insertion order):
// ancestors of `probe` (including rules on `probe` itself) by ascending
// length, then descendants by (network address, length) — a pre-order,
// child-0-first walk of the trie — with same-prefix rules in insertion
// order.
std::vector<Rule> reference_order(const std::vector<Rule>& reference,
                                  const Prefix& probe) {
  std::vector<Rule> ancestors;
  std::vector<Rule> descendants;
  for (const Rule& r : reference) {
    if (r.match.contains(probe))
      ancestors.push_back(r);
    else if (probe.contains(r.match))
      descendants.push_back(r);
  }
  std::stable_sort(ancestors.begin(), ancestors.end(),
                   [](const Rule& a, const Rule& b) {
                     return a.match.length() < b.match.length();
                   });
  std::stable_sort(descendants.begin(), descendants.end(),
                   [](const Rule& a, const Rule& b) {
                     if (a.match.address() != b.match.address())
                       return a.match.address().value() <
                              b.match.address().value();
                     return a.match.length() < b.match.length();
                   });
  ancestors.insert(ancestors.end(), descendants.begin(), descendants.end());
  return ancestors;
}

// Every rule of `idx` in visit order, whole (action included).
std::vector<Rule> visit_all(const OverlapIndex& idx) {
  std::vector<Rule> out;
  idx.visit(Prefix::any(), kAll, std::numeric_limits<int>::max(),
            [&](const Rule& r) {
              out.push_back(r);
              return true;
            });
  return out;
}

// Property: results agree with a brute-force scan over random rule sets
// under interleaved insert/erase/set_action. A twin index applies each
// set_action as erase + insert, and the two must visit identically.
class OverlapIndexProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OverlapIndexProperty, MatchesBruteForce) {
  std::mt19937_64 rng(GetParam());
  OverlapIndex idx;
  OverlapIndex twin;
  std::vector<Rule> reference;
  net::RuleId next_id = 1;

  for (int step = 0; step < 900; ++step) {
    // Every third 100-step phase is erase-heavy: it drains most of
    // what the two before it built, so subtree bounds must shrink
    // bottom-up, down to an empty trie at times.
    const bool erase_heavy = step / 100 % 3 == 2;
    const bool erase = !reference.empty() &&
                       (erase_heavy ? rng() % 4 != 0 : rng() % 3 == 0);
    if (!erase && !reference.empty() && rng() % 5 == 0) {
      // An action rewrite ends with the rule last among its prefix's
      // rules, as erase + insert would leave it.
      std::size_t victim = rng() % reference.size();
      Rule r = reference[victim];
      r.action = net::forward_to(static_cast<int>(rng() % 8));
      EXPECT_TRUE(idx.set_action(r.id, r.match, r.action));
      EXPECT_TRUE(twin.erase(r.id, r.match));
      twin.insert(r);
      reference.erase(reference.begin() +
                      static_cast<std::ptrdiff_t>(victim));
      reference.push_back(r);
      bool carries = false;
      idx.visit(r.match, r.priority - 1, r.priority, [&](const Rule& got) {
        if (got.id == r.id) carries = got == r;
        return got.id != r.id;
      });
      EXPECT_TRUE(carries) << "step " << step;
      EXPECT_FALSE(idx.set_action(next_id, r.match, r.action));
      ASSERT_EQ(visit_all(idx), visit_all(twin)) << "step " << step;
    } else if (!erase) {
      // A quarter of the inserts reuse a resident prefix, so one node
      // holds several rules of different priorities.
      const Prefix match =
          !reference.empty() && rng() % 4 == 0
              ? reference[rng() % reference.size()].match
              : Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                       static_cast<int>(rng() % 17));  // short => dense
      Rule r{next_id++, static_cast<int>(rng() % 10), match,
             net::forward_to(1)};
      idx.insert(r);
      twin.insert(r);
      reference.push_back(r);
    } else {
      std::size_t victim = rng() % reference.size();
      EXPECT_TRUE(
          idx.erase(reference[victim].id, reference[victim].match));
      EXPECT_TRUE(
          twin.erase(reference[victim].id, reference[victim].match));
      reference.erase(reference.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    }
    ASSERT_EQ(idx.size(), reference.size());

    Prefix probe(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                 static_cast<int>(rng() % 25));
    int bound = static_cast<int>(rng() % 10) - 1;
    std::vector<net::RuleId> expected;
    for (const Rule& r : reference)
      if (r.match.overlaps(probe) && r.priority > bound)
        expected.push_back(r.id);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(ids_of(idx.overlapping(probe, bound)), expected);
    EXPECT_EQ(idx.overlapping(probe, bound).empty(), expected.empty());

    // The order, not just the set: Algorithm 1's cut order and every
    // cache closure depend on it.
    std::vector<net::RuleId> ordered;
    for (const Rule& r : reference_order(reference, probe))
      if (r.priority > bound) ordered.push_back(r.id);
    EXPECT_EQ(in_order(idx.overlapping(probe, bound)), ordered);

    // A random (lo, hi] window prunes on both sides of the subtree
    // bounds and still yields the filtered reference, in order.
    const int lo = static_cast<int>(rng() % 11) - 1;
    const int hi = lo + static_cast<int>(rng() % 6);
    std::vector<net::RuleId> windowed;
    for (const Rule& r : reference_order(reference, probe))
      if (r.priority > lo && r.priority <= hi) windowed.push_back(r.id);
    std::vector<net::RuleId> visited;
    EXPECT_TRUE(idx.visit(probe, lo, hi, [&](const Rule& r) {
      visited.push_back(r.id);
      return true;
    }));
    EXPECT_EQ(visited, windowed);

    // Stopping after k visits yields exactly the first k rules, and
    // visit reports the stop.
    const std::size_t k = 1 + rng() % (windowed.size() + 1);
    visited.clear();
    const bool finished = idx.visit(probe, lo, hi, [&](const Rule& r) {
      visited.push_back(r.id);
      return visited.size() < k;
    });
    EXPECT_EQ(finished, k > windowed.size());
    windowed.resize(std::min(k, windowed.size()));
    EXPECT_EQ(visited, windowed);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapIndexProperty,
                         ::testing::Values(3, 14, 159, 2653));

}  // namespace
}  // namespace hermes::core
