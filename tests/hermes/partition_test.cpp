#include "hermes/partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

namespace hermes::core {
namespace {

using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), net::forward_to(port)};
}

TEST(Partition, NoOverlapPassesThrough) {
  OverlapIndex main;
  main.insert(make_rule(1, 10, "11.0.0.0/8"));
  Rule new_rule = make_rule(2, 5, "10.0.0.0/8");
  auto result = partition_new_rule(new_rule, main);
  EXPECT_FALSE(result.redundant);
  ASSERT_EQ(result.pieces.size(), 1u);
  EXPECT_EQ(result.pieces[0], new_rule.match);
  EXPECT_TRUE(result.cut_against.empty());
}

TEST(Partition, LowerPriorityMainRulesDoNotCut) {
  // Algo 1 line 3: only Prio(new) < Prio(r) rules matter.
  OverlapIndex main;
  main.insert(make_rule(1, 3, "10.0.0.0/8"));
  Rule new_rule = make_rule(2, 5, "10.1.0.0/16");
  auto result = partition_new_rule(new_rule, main);
  ASSERT_EQ(result.pieces.size(), 1u);
  EXPECT_EQ(result.pieces[0], new_rule.match);
}

TEST(Partition, EqualPriorityDoesNotCut) {
  OverlapIndex main;
  main.insert(make_rule(1, 5, "10.0.0.0/8"));
  Rule new_rule = make_rule(2, 5, "10.1.0.0/16");
  auto result = partition_new_rule(new_rule, main);
  ASSERT_EQ(result.pieces.size(), 1u);
}

TEST(Partition, WhollySubsumedIsRedundant) {
  // Figure 5 (a): a larger, higher-priority main rule covers the new rule.
  OverlapIndex main;
  main.insert(make_rule(1, 10, "10.0.0.0/8"));
  Rule new_rule = make_rule(2, 5, "10.1.0.0/16");
  auto result = partition_new_rule(new_rule, main);
  EXPECT_TRUE(result.redundant);
  EXPECT_TRUE(result.pieces.empty());
  EXPECT_EQ(result.cut_against, std::vector<net::RuleId>{1});
}

TEST(Partition, PaperFigure4Example) {
  // Main: 192.168.1.0/26 (higher priority, port 1). New shadow rule:
  // 192.168.1.0/24 (lower priority, port 2). The new rule must be cut so
  // the /26 region still falls through to the main table —
  // Figure 4 (c)'s pieces: 192.168.1.64/26 and 192.168.1.128/25.
  OverlapIndex main;
  main.insert(make_rule(1, 10, "192.168.1.0/26", 1));
  Rule new_rule = make_rule(2, 5, "192.168.1.0/24", 2);
  auto result = partition_new_rule(new_rule, main);
  EXPECT_FALSE(result.redundant);
  std::vector<std::string> pieces;
  for (const auto& p : result.pieces) pieces.push_back(p.to_string());
  std::sort(pieces.begin(), pieces.end());
  EXPECT_EQ(pieces, (std::vector<std::string>{"192.168.1.128/25",
                                              "192.168.1.64/26"}));
  EXPECT_EQ(result.cut_against, std::vector<net::RuleId>{1});
}

TEST(Partition, MultipleOverlapsCutIteratively) {
  // Figure 5 (c): several higher-priority holes.
  OverlapIndex main;
  main.insert(make_rule(1, 10, "10.0.0.0/10"));
  main.insert(make_rule(2, 9, "10.128.0.0/10"));
  Rule new_rule = make_rule(3, 5, "10.0.0.0/8");
  auto result = partition_new_rule(new_rule, main);
  EXPECT_FALSE(result.redundant);
  // Remaining coverage: 10.64.0.0/10 and 10.192.0.0/10.
  std::vector<std::string> pieces;
  for (const auto& p : result.pieces) pieces.push_back(p.to_string());
  std::sort(pieces.begin(), pieces.end());
  EXPECT_EQ(pieces, (std::vector<std::string>{"10.192.0.0/10",
                                              "10.64.0.0/10"}));
  auto cut = result.cut_against;
  std::sort(cut.begin(), cut.end());
  EXPECT_EQ(cut, (std::vector<net::RuleId>{1, 2}));
}

TEST(Partition, FullCoverByManyPiecesIsRedundant) {
  // Two /9s of higher priority tile the whole /8.
  OverlapIndex main;
  main.insert(make_rule(1, 9, "10.0.0.0/9"));
  main.insert(make_rule(2, 8, "10.128.0.0/9"));
  Rule new_rule = make_rule(3, 5, "10.0.0.0/8");
  auto result = partition_new_rule(new_rule, main);
  EXPECT_TRUE(result.redundant);
}

TEST(Partition, MergeMinimizesPieces) {
  // Cutting /32 out of /24 yields 8 sibling pieces; they must not be
  // mergeable further (already minimal), while cutting then re-covering
  // keeps counts low.
  OverlapIndex main;
  main.insert(make_rule(1, 9, "10.0.0.255/32"));
  Rule new_rule = make_rule(2, 5, "10.0.0.0/24");
  auto result = partition_new_rule(new_rule, main);
  EXPECT_EQ(result.pieces.size(), 8u);
}

TEST(Partition, WildcardAgainstBusyMainFragments) {
  // The Section 4.2 motivation: 0.0.0.0/0 at low priority fragments
  // against every main rule.
  OverlapIndex main;
  for (net::RuleId i = 0; i < 8; ++i) {
    main.insert(Rule{i + 1, 10,
                     Prefix(net::Ipv4Address(static_cast<std::uint32_t>(
                                i * (1u << 28))),
                            8),
                     net::forward_to(1)});
  }
  Rule new_rule = make_rule(99, 1, "0.0.0.0/0");
  auto result = partition_new_rule(new_rule, main);
  EXPECT_FALSE(result.redundant);
  EXPECT_GT(result.pieces.size(), 4u);
}

TEST(Partition, MaterializeAssignsSequentialIds) {
  OverlapIndex main;
  main.insert(make_rule(1, 10, "10.0.0.0/10"));
  Rule new_rule = make_rule(2, 5, "10.0.0.0/8");
  auto result = partition_new_rule(new_rule, main);
  auto rules = materialize_partitions(new_rule, result, 1000);
  ASSERT_EQ(rules.size(), result.pieces.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].id, 1000 + i);
    EXPECT_EQ(rules[i].priority, new_rule.priority);
    EXPECT_EQ(rules[i].action, new_rule.action);
    EXPECT_EQ(rules[i].match, result.pieces[i]);
  }
}

// Property: for random main tables and new rules, the pieces (i) lie
// within the new rule's match, (ii) are mutually disjoint, (iii) avoid
// every strictly-higher-priority main rule, (iv) exactly cover the match
// minus those rules (sampled), and (v) form a minimal cover: no piece can
// widen, because the parent of every piece cut below the new rule's match
// overlaps a strictly-higher-priority main rule. (v) is why Algorithm 1's
// Merge step never joins two pieces for prefix rules.
class PartitionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionProperty, PiecesAreExactResidualCover) {
  std::mt19937_64 rng(GetParam());
  for (int iter = 0; iter < 60; ++iter) {
    OverlapIndex main;
    std::vector<Rule> main_rules;
    int n = 1 + static_cast<int>(rng() % 10);
    for (int i = 0; i < n; ++i) {
      Rule r{static_cast<net::RuleId>(i + 1), static_cast<int>(rng() % 12),
             Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                    static_cast<int>(rng() % 13)),
             net::forward_to(1)};
      main.insert(r);
      main_rules.push_back(r);
    }
    Rule new_rule{100, static_cast<int>(rng() % 12),
                  Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                         static_cast<int>(rng() % 10)),
                  net::forward_to(2)};
    auto result = partition_new_rule(new_rule, main);

    for (std::size_t i = 0; i < result.pieces.size(); ++i) {
      EXPECT_TRUE(new_rule.match.contains(result.pieces[i]));
      for (std::size_t j = i + 1; j < result.pieces.size(); ++j)
        EXPECT_FALSE(result.pieces[i].overlaps(result.pieces[j]));
      for (const Rule& r : main_rules) {
        if (r.priority > new_rule.priority) {
          EXPECT_FALSE(result.pieces[i].overlaps(r.match))
              << result.pieces[i].to_string() << " vs " << net::to_string(r);
        }
      }
      if (result.pieces[i].length() > new_rule.match.length()) {
        const Prefix parent = result.pieces[i].parent();
        EXPECT_TRUE(std::any_of(
            main_rules.begin(), main_rules.end(), [&](const Rule& r) {
              return r.priority > new_rule.priority &&
                     r.match.overlaps(parent);
            }))
            << result.pieces[i].to_string() << " could widen to "
            << parent.to_string();
      }
    }

    // Sampled exact-cover check: an address in the new match is covered by
    // a piece iff no higher-priority main rule covers it.
    for (int s = 0; s < 300; ++s) {
      std::uint32_t addr = new_rule.match.address().value() |
                           (static_cast<std::uint32_t>(rng()) &
                            ~new_rule.match.mask());
      net::Ipv4Address a(addr);
      bool blocked = std::any_of(
          main_rules.begin(), main_rules.end(), [&](const Rule& r) {
            return r.priority > new_rule.priority && r.match.contains(a);
          });
      bool covered = std::any_of(
          result.pieces.begin(), result.pieces.end(),
          [&](const Prefix& p) { return p.contains(a); });
      EXPECT_EQ(covered, !blocked) << a.to_string();
    }
    EXPECT_EQ(result.redundant, result.pieces.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty,
                         ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace hermes::core
