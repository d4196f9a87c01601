#include "hermes/overlap_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

namespace hermes::core {

// Reads the trie's shape, which the public API does not show.
struct OverlapIndexTestPeer {
  // Nodes reachable from the root, the root included.
  static std::size_t nodes(const OverlapIndex& idx) {
    std::size_t count = 0;
    std::vector<std::uint32_t> stack{0};
    while (!stack.empty()) {
      const OverlapIndex::Node& node = idx.nodes_[stack.back()];
      stack.pop_back();
      ++count;
      for (std::uint32_t c : node.child)
        if (c != 0) stack.push_back(c);
    }
    return count;
  }
  // Node and record slots held, in use or on a free list.
  static std::size_t node_slots(const OverlapIndex& idx) {
    return idx.nodes_.size();
  }
  static std::size_t record_slots(const OverlapIndex& idx) {
    return idx.records_.size();
  }
};

namespace {

using net::Prefix;
using net::Rule;
using Key = OverlapIndex::Key;

constexpr int kAll = std::numeric_limits<int>::min();

Rule make_rule(net::RuleId id, int priority, std::string_view prefix) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(1)};
}

std::vector<net::RuleId> ids_of(const std::vector<Key>& keys) {
  std::vector<net::RuleId> ids;
  for (const Key& k : keys) ids.push_back(k.id);
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

std::vector<net::RuleId> in_order(const std::vector<Key>& keys) {
  std::vector<net::RuleId> ids;
  for (const Key& k : keys) ids.push_back(k.id);
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

// One step of the property schedule: an insert or an erase, applied to
// `idx` and mirrored in `reference`, which keeps insertion order. Every
// third 100-step phase is erase-heavy: it drains most of what the two
// before it built, so subtree bounds must shrink bottom-up, down to an
// empty trie at times.
void random_step(std::mt19937_64& rng, int step, OverlapIndex& idx,
                 std::vector<Rule>& reference, net::RuleId& next_id) {
  const bool erase_heavy = step / 100 % 3 == 2;
  const bool erase = !reference.empty() &&
                     (erase_heavy ? rng() % 4 != 0 : rng() % 3 == 0);
  if (!erase) {
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
    reference.push_back(r);
  } else {
    std::size_t victim = rng() % reference.size();
    EXPECT_TRUE(idx.erase(reference[victim].id, reference[victim].match));
    reference.erase(reference.begin() +
                    static_cast<std::ptrdiff_t>(victim));
  }
}

constexpr int kScheduleSteps = 900;

// Property: results agree with a brute-force scan over random rule sets
// under interleaved insert/erase.
class OverlapIndexProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(OverlapIndexProperty, MatchesBruteForce) {
  std::mt19937_64 rng(GetParam());
  OverlapIndex idx;
  std::vector<Rule> reference;
  net::RuleId next_id = 1;

  for (int step = 0; step < kScheduleSteps; ++step) {
    random_step(rng, step, idx, reference, next_id);
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
    EXPECT_TRUE(idx.visit(probe, lo, hi, [&](const Key& k) {
      visited.push_back(k.id);
      return true;
    }));
    EXPECT_EQ(visited, windowed);

    // Stopping after k visits yields exactly the first k rules, and
    // visit reports the stop.
    const std::size_t k = 1 + rng() % (windowed.size() + 1);
    visited.clear();
    const bool finished = idx.visit(probe, lo, hi, [&](const Key& key) {
      visited.push_back(key.id);
      return visited.size() < k;
    });
    EXPECT_EQ(finished, k > windowed.size());
    windowed.resize(std::min(k, windowed.size()));
    EXPECT_EQ(visited, windowed);
  }
}

// The trie holds one node per live prefix plus one per branch point,
// whatever it held before: at most 2 x (distinct live prefixes) + 1, and
// the root alone once drained.
TEST_P(OverlapIndexProperty, NodesStayBoundedByLivePrefixes) {
  std::mt19937_64 rng(GetParam());
  OverlapIndex idx;
  std::vector<Rule> reference;
  net::RuleId next_id = 1;
  auto bound = [&] {
    std::vector<Prefix> prefixes;
    for (const Rule& r : reference) prefixes.push_back(r.match);
    std::sort(prefixes.begin(), prefixes.end());
    prefixes.erase(std::unique(prefixes.begin(), prefixes.end()),
                   prefixes.end());
    return 2 * prefixes.size() + 1;
  };
  for (int step = 0; step < kScheduleSteps; ++step) {
    random_step(rng, step, idx, reference, next_id);
    ASSERT_LE(OverlapIndexTestPeer::nodes(idx), bound()) << "step " << step;
  }
  for (const Rule& r : reference) EXPECT_TRUE(idx.erase(r.id, r.match));
  EXPECT_TRUE(idx.empty());
  EXPECT_EQ(OverlapIndexTestPeer::nodes(idx), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OverlapIndexProperty,
                         ::testing::Values(3, 14, 159, 2653));


// Erase + insert of fresh random /32s at a steady 1,024 live rules:
// the freed nodes and records are reused, so the index stays the size of
// its live rules however many it has held.
TEST(OverlapIndex, SlashThirtyTwoChurnDoesNotGrow) {
  constexpr std::size_t kLive = 1024;
  constexpr int kOps = 100000;
  std::mt19937_64 rng(0x32);
  auto fresh = [&](net::RuleId id) {
    return Rule{id, 100 + static_cast<int>(id % 5),
                Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                       32),
                net::forward_to(1)};
  };
  OverlapIndex idx;
  std::vector<Rule> live;
  net::RuleId next_id = 1;
  for (std::size_t i = 0; i < kLive; ++i) {
    live.push_back(fresh(next_id++));
    idx.insert(live.back());
  }
  for (int op = 0; op < kOps; ++op) {
    Rule& slot = live[rng() % kLive];
    ASSERT_TRUE(idx.erase(slot.id, slot.match));
    slot = fresh(next_id++);
    idx.insert(slot);
  }
  EXPECT_EQ(idx.size(), kLive);
  EXPECT_LE(OverlapIndexTestPeer::nodes(idx), 2 * kLive + 1);
  EXPECT_LE(OverlapIndexTestPeer::node_slots(idx), 2 * kLive + 1);
  EXPECT_EQ(OverlapIndexTestPeer::record_slots(idx), kLive);
}

}  // namespace
}  // namespace hermes::core
