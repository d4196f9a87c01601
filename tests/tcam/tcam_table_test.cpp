#include "tcam/tcam_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <random>

namespace hermes::tcam {

// White-box seam (friend of TcamTable): the slot-stamp counter, so a test
// can start it a few stamps below its wrap.
struct TcamTableTestPeer {
  static std::uint32_t next_stamp(const TcamTable& t) { return t.next_stamp_; }
  static void set_next_stamp(TcamTable& t, std::uint32_t stamp) {
    t.next_stamp_ = stamp;
  }
};

namespace {

using net::forward_to;
using net::Prefix;
using net::Rule;

Rule make_rule(net::RuleId id, int priority, std::string_view prefix,
               int port = 1) {
  return Rule{id, priority, *Prefix::parse(prefix), forward_to(port)};
}

TEST(TcamTable, StartsEmpty) {
  TcamTable t(8);
  EXPECT_EQ(t.capacity(), 8);
  EXPECT_EQ(t.occupancy(), 0);
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.full());
}

TEST(TcamTable, InsertIntoEmptyHasNoShifts) {
  TcamTable t(8);
  auto r = t.insert(make_rule(1, 10, "10.0.0.0/8"));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.shifts, 0);
  EXPECT_EQ(t.occupancy(), 1);
}

TEST(TcamTable, AppendingLowestPriorityNeverShifts) {
  TcamTable t(16);
  for (int p = 16; p >= 1; --p) {
    auto r = t.insert(make_rule(static_cast<net::RuleId>(p), p,
                                "10.0.0.0/8"));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.shifts, 0) << "prio " << p;
  }
  EXPECT_TRUE(t.check_invariant());
}

TEST(TcamTable, InsertingHighestIntoPackedTopShifts) {
  TcamTable t(16);
  // Fill priorities 1..8 ascending (each lands on top, shifting the rest).
  int total_shifts = 0;
  for (int p = 1; p <= 8; ++p) {
    auto r = t.insert(make_rule(static_cast<net::RuleId>(p), p,
                                "10.0.0.0/8"));
    EXPECT_TRUE(r.ok);
    total_shifts += r.shifts;
  }
  // Ascending insertion into a compact region shifts ~k entries at step k.
  EXPECT_EQ(total_shifts, 0 + 1 + 2 + 3 + 4 + 5 + 6 + 7);
  EXPECT_TRUE(t.check_invariant());
}

TEST(TcamTable, EqualPrioritiesNeverShift) {
  TcamTable t(32);
  for (net::RuleId id = 1; id <= 20; ++id) {
    auto r = t.insert(make_rule(id, 5, "10.0.0.0/8"));
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.shifts, 0);
  }
}

TEST(TcamTable, InsertFailsWhenFull) {
  TcamTable t(2);
  EXPECT_TRUE(t.insert(make_rule(1, 1, "10.0.0.0/8")).ok);
  EXPECT_TRUE(t.insert(make_rule(2, 2, "10.0.0.0/8")).ok);
  auto r = t.insert(make_rule(3, 3, "10.0.0.0/8"));
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(t.stats().failed_inserts, 1u);
}

TEST(TcamTable, InsertRejectsDuplicateId) {
  TcamTable t(4);
  EXPECT_TRUE(t.insert(make_rule(7, 1, "10.0.0.0/8")).ok);
  EXPECT_FALSE(t.insert(make_rule(7, 2, "11.0.0.0/8")).ok);
  EXPECT_EQ(t.occupancy(), 1);
}

TEST(TcamTable, DeletionDoesNotMakeLaterInsertsCheaper) {
  // The empirically-measured behavior (Table 1): insert cost tracks
  // occupancy; deletions compact in the background, so a later mid-table
  // insert still shifts everything below its sorted position.
  TcamTable t(8);
  for (int p = 8; p >= 1; --p)
    ASSERT_TRUE(
        t.insert(make_rule(static_cast<net::RuleId>(p), p, "10.0.0.0/8")).ok);
  EXPECT_TRUE(t.erase(4).ok);
  EXPECT_EQ(t.occupancy(), 7);
  // Insert at priority 4: entries 3, 2, 1 sit below it and must move.
  auto r = t.insert(make_rule(100, 4, "11.0.0.0/8"));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.shifts, 3);
  EXPECT_TRUE(t.check_invariant());
}

TEST(TcamTable, MidTableInsertShiftsEverythingBelow) {
  TcamTable t(8);
  for (int p = 8; p >= 1; --p)
    ASSERT_TRUE(
        t.insert(make_rule(static_cast<net::RuleId>(p), p, "10.0.0.0/8")).ok);
  ASSERT_TRUE(t.erase(2).ok);
  // Insert priority 6: below it sit 5, 4, 3, 1 => 4 shifts.
  auto r = t.insert(make_rule(60, 6, "11.0.0.0/8"));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.shifts, 4);
  EXPECT_TRUE(t.check_invariant());
  EXPECT_TRUE(t.full());
}

TEST(TcamTable, EqualPriorityInsertGoesAfterItsBand) {
  TcamTable t(8);
  ASSERT_TRUE(t.insert(make_rule(1, 5, "10.0.0.0/8")).ok);
  ASSERT_TRUE(t.insert(make_rule(2, 3, "11.0.0.0/8")).ok);
  // Equal to the top band: lands after rule 1, shifting only rule 2.
  auto r = t.insert(make_rule(3, 5, "12.0.0.0/8"));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.shifts, 1);
  const std::vector<Rule>& rules = t.rules_view();
  EXPECT_EQ(rules[0].id, 1u);
  EXPECT_EQ(rules[1].id, 3u);
  EXPECT_EQ(rules[2].id, 2u);
}

TEST(TcamTable, DeleteMissingFails) {
  TcamTable t(4);
  EXPECT_FALSE(t.erase(9).ok);
}

TEST(TcamTable, LookupReturnsHighestPriorityMatch) {
  TcamTable t(8);
  ASSERT_TRUE(t.insert(make_rule(1, 10, "192.168.1.0/26", 1)).ok);
  ASSERT_TRUE(t.insert(make_rule(2, 5, "192.168.1.0/24", 2)).ok);
  const Rule* hit = t.lookup_ptr(*net::Ipv4Address::parse("192.168.1.5"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 1);  // the /26 wins by priority
  hit = t.lookup_ptr(*net::Ipv4Address::parse("192.168.1.200"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->action.port, 2);  // only the /24 matches
  EXPECT_EQ(t.lookup_ptr(*net::Ipv4Address::parse("8.8.8.8")), nullptr);
}

TEST(TcamTable, LookupOrderIndependentOfInsertionOrder) {
  // Whatever order overlapping rules arrive in, physical order must yield
  // highest-priority-wins.
  std::vector<Rule> rules = {make_rule(1, 3, "10.0.0.0/8", 1),
                             make_rule(2, 7, "10.1.0.0/16", 2),
                             make_rule(3, 5, "10.1.2.0/24", 3)};
  std::sort(rules.begin(), rules.end(),
            [](const Rule& a, const Rule& b) { return a.id < b.id; });
  do {
    TcamTable t(8);
    for (const Rule& r : rules) ASSERT_TRUE(t.insert(r).ok);
    auto hit = t.peek(*net::Ipv4Address::parse("10.1.2.3"));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->action.port, 2);  // priority 7 rule
    EXPECT_TRUE(t.check_invariant());
  } while (std::next_permutation(
      rules.begin(), rules.end(),
      [](const Rule& a, const Rule& b) { return a.id < b.id; }));
}

TEST(TcamTable, ModifyActionInPlace) {
  TcamTable t(4);
  ASSERT_TRUE(t.insert(make_rule(1, 1, "10.0.0.0/8", 1)).ok);
  auto r = t.modify_action(1, forward_to(9));
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.shifts, 0);
  EXPECT_EQ(t.find_ptr(1)->action.port, 9);
  EXPECT_FALSE(t.modify_action(99, forward_to(1)).ok);
}

TEST(TcamTable, ModifyMatchInPlace) {
  TcamTable t(4);
  ASSERT_TRUE(t.insert(make_rule(1, 1, "10.0.0.0/8")).ok);
  EXPECT_TRUE(t.modify_match(1, *Prefix::parse("11.0.0.0/8")).ok);
  EXPECT_EQ(t.find_ptr(1)->match.to_string(), "11.0.0.0/8");
  EXPECT_FALSE(t.modify_match(99, Prefix::any()).ok);
}

TEST(TcamTable, RulesReturnsPhysicalOrder) {
  TcamTable t(8);
  ASSERT_TRUE(t.insert(make_rule(1, 1, "10.0.0.0/8")).ok);
  ASSERT_TRUE(t.insert(make_rule(2, 9, "11.0.0.0/8")).ok);
  ASSERT_TRUE(t.insert(make_rule(3, 5, "12.0.0.0/8")).ok);
  const std::vector<Rule>& rules = t.rules_view();
  ASSERT_EQ(rules.size(), 3u);
  EXPECT_EQ(rules[0].priority, 9);
  EXPECT_EQ(rules[1].priority, 5);
  EXPECT_EQ(rules[2].priority, 1);
}

TEST(TcamTable, ClearEmptiesEverything) {
  TcamTable t(4);
  ASSERT_TRUE(t.insert(make_rule(1, 1, "10.0.0.0/8")).ok);
  ASSERT_TRUE(t.insert(make_rule(2, 2, "11.0.0.0/8")).ok);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.contains(1));
}

TEST(TcamTable, StatsAccumulate) {
  TcamTable t(4);
  t.insert(make_rule(1, 2, "10.0.0.0/8"));
  t.insert(make_rule(2, 3, "11.0.0.0/8"));  // shifts rule 1 down
  t.erase(1);
  t.modify_action(2, forward_to(5));
  t.lookup_ptr(*net::Ipv4Address::parse("11.1.1.1"));
  const TableStats& s = t.stats();
  EXPECT_EQ(s.inserts, 2u);
  EXPECT_EQ(s.deletes, 1u);
  EXPECT_EQ(s.modifies, 1u);
  EXPECT_EQ(s.lookups, 1u);
  EXPECT_EQ(s.total_shifts, 1u);
}

// Property: under random mixed workloads the invariant always holds, the
// occupancy bookkeeping is exact, and lookups equal a reference
// highest-priority scan.
class TcamTableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TcamTableProperty, RandomOpsPreserveInvariantAndSemantics) {
  std::mt19937_64 rng(GetParam());
  TcamTable t(64);
  std::vector<Rule> reference;  // rules currently installed
  net::RuleId next_id = 1;

  for (int step = 0; step < 600; ++step) {
    int op = static_cast<int>(rng() % 3);
    if (op == 0 || reference.empty()) {
      Rule r{next_id++, static_cast<int>(rng() % 16),
             Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                    static_cast<int>(rng() % 25)),
             forward_to(static_cast<int>(rng() % 8))};
      bool ok = t.insert(r).ok;
      EXPECT_EQ(ok, reference.size() < 64);
      if (ok) reference.push_back(r);
    } else if (op == 1) {
      std::size_t victim = rng() % reference.size();
      EXPECT_TRUE(t.erase(reference[victim].id).ok);
      reference.erase(reference.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    } else {
      std::size_t victim = rng() % reference.size();
      net::Action a = forward_to(static_cast<int>(rng() % 8));
      EXPECT_TRUE(t.modify_action(reference[victim].id, a).ok);
      reference[victim].action = a;
    }
    ASSERT_TRUE(t.check_invariant());
    ASSERT_EQ(t.occupancy(), static_cast<int>(reference.size()));

    // Compare a sampled lookup against highest-priority-wins reference.
    net::Ipv4Address probe(static_cast<std::uint32_t>(rng()));
    const Rule* best = nullptr;
    for (const Rule& r : reference) {
      if (!r.match.contains(probe)) continue;
      if (!best || r.priority > best->priority) best = &r;
    }
    auto got = t.peek(probe);
    if (!best) {
      EXPECT_FALSE(got.has_value());
    } else {
      ASSERT_TRUE(got.has_value());
      // With equal priorities and overlapping matches the TCAM may return
      // either; require only equal priority.
      EXPECT_EQ(got->priority, best->priority);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcamTableProperty,
                         ::testing::Values(1, 17, 23, 42, 99));

// Property: the id index agrees with the priority-ordered array across
// every mutation path. Exercises all seven mutators (insert, insert_batch,
// erase, erase_batch, modify_action, modify_match, clear) in random
// interleavings and
// checks contains/find/find_ptr against a reference map — including
// misses and ids that were installed then erased (stale-index bait).
// With `rewind_every` > 0 the stamp counter is put a few stamps below
// its wrap every that many steps; `wraps` counts how often it wrapped.
void run_index_interleaving(std::uint64_t seed, int rewind_every,
                            int* wraps) {
  std::mt19937_64 rng(seed);
  TcamTable t(48);
  std::vector<Rule> reference;
  std::vector<net::RuleId> erased;  // ids the index must have forgotten
  net::RuleId next_id = 1;
  // Narrow priority range on purpose: long equal-priority runs are where
  // the stamp order decides the slot.
  auto fresh_rule = [&] {
    return Rule{next_id++, static_cast<int>(rng() % 6),
                Prefix(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
                       static_cast<int>(rng() % 25)),
                forward_to(static_cast<int>(rng() % 8))};
  };

  for (int step = 0; step < 800; ++step) {
    if (rewind_every > 0 && step % rewind_every == 0)
      TcamTableTestPeer::set_next_stamp(
          t, std::numeric_limits<std::uint32_t>::max() -
                 static_cast<std::uint32_t>(rng() % 4));
    const std::uint32_t stamp_before = TcamTableTestPeer::next_stamp(t);
    int op = static_cast<int>(rng() % 7);
    if (op == 0 || reference.empty()) {
      Rule r = fresh_rule();
      if (t.insert(r).ok) reference.push_back(r);
    } else if (op == 5) {
      std::vector<Rule> batch;
      const int size = 1 + static_cast<int>(rng() % 6);
      for (int i = 0; i < size; ++i) batch.push_back(fresh_rule());
      std::vector<OpResult> per_op;
      t.insert_batch(batch, &per_op);
      for (std::size_t i = 0; i < batch.size(); ++i)
        if (per_op[i].ok) reference.push_back(batch[i]);
    } else if (op == 6) {
      // A random subset in random order, plus a repeat and a miss.
      std::vector<net::RuleId> ids = {next_id};
      std::vector<Rule> kept;
      for (const Rule& r : reference) {
        if (rng() % 3 == 0) {
          ids.push_back(r.id);
          erased.push_back(r.id);
        } else {
          kept.push_back(r);
        }
      }
      std::shuffle(ids.begin(), ids.end(), rng);
      ids.push_back(ids.front());
      const int removed = static_cast<int>(reference.size() - kept.size());
      ASSERT_EQ(t.erase_batch(ids), removed);
      reference = std::move(kept);
    } else if (op == 1) {
      std::size_t victim = rng() % reference.size();
      ASSERT_TRUE(t.erase(reference[victim].id).ok);
      erased.push_back(reference[victim].id);
      reference.erase(reference.begin() +
                      static_cast<std::ptrdiff_t>(victim));
    } else if (op == 2) {
      std::size_t victim = rng() % reference.size();
      net::Action a = forward_to(static_cast<int>(rng() % 8));
      ASSERT_TRUE(t.modify_action(reference[victim].id, a).ok);
      reference[victim].action = a;
    } else if (op == 3) {
      std::size_t victim = rng() % reference.size();
      Prefix m(net::Ipv4Address(static_cast<std::uint32_t>(rng())),
               static_cast<int>(rng() % 25));
      ASSERT_TRUE(t.modify_match(reference[victim].id, m).ok);
      reference[victim].match = m;
    } else if (step % 97 == 0) {  // rare full reset
      t.clear();
      for (const Rule& r : reference) erased.push_back(r.id);
      reference.clear();
    }
    ASSERT_TRUE(t.check_invariant()) << "step " << step;

    // Every resident id resolves identically through both accessors.
    for (const Rule& r : reference) {
      EXPECT_TRUE(t.contains(r.id));
      const net::Rule* p = t.find_ptr(r.id);
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(*p, r);
    }
    // Erased and never-installed ids must miss.
    if (!erased.empty()) {
      net::RuleId gone = erased[rng() % erased.size()];
      EXPECT_FALSE(t.contains(gone));
      EXPECT_EQ(t.find_ptr(gone), nullptr);
    }
    EXPECT_FALSE(t.contains(next_id));

    // rules_view is the live array: one slot per resident rule, in
    // non-increasing priority.
    const std::vector<Rule>& view = t.rules_view();
    ASSERT_EQ(view.size(), reference.size());
    EXPECT_TRUE(std::is_sorted(
        view.begin(), view.end(),
        [](const Rule& a, const Rule& b) { return a.priority > b.priority; }));
    if (TcamTableTestPeer::next_stamp(t) < stamp_before) ++*wraps;
  }
}

class TcamTableIndexProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(TcamTableIndexProperty, IndexMatchesArrayUnderRandomMutations) {
  int wraps = 0;
  run_index_interleaving(GetParam(), /*rewind_every=*/0, &wraps);
}

// The same interleaving with the stamp counter started a few stamps
// below 2^32 again and again: each wrap renumbers every slot, and
// check_invariant() and find_ptr must hold across it.
TEST_P(TcamTableIndexProperty, IndexSurvivesStampWrap) {
  int wraps = 0;
  run_index_interleaving(GetParam(), /*rewind_every=*/40, &wraps);
  EXPECT_GT(wraps, 10);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TcamTableIndexProperty,
                         ::testing::Values(3, 29, 71));

}  // namespace
}  // namespace hermes::tcam
