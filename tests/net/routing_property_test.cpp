// Property tests for the routing algorithms on random graphs, checked
// against brute-force enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "net/routing.h"

namespace hermes::net {
namespace {

Topology random_graph(std::mt19937_64& rng, int n, double edge_prob) {
  Topology t;
  for (int i = 0; i < n; ++i)
    t.add_node(NodeKind::kSwitch, "n" + std::to_string(i));
  // Spanning path for connectivity, then random extra edges.
  std::uniform_real_distribution<double> unit(0, 1);
  for (int i = 0; i + 1 < n; ++i)
    t.add_link(i, i + 1, 1e9, 1e-3 * (1 + static_cast<double>(rng() % 9)));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 2; j < n; ++j) {
      if (unit(rng) < edge_prob)
        t.add_link(i, j, 1e9,
                   1e-3 * (1 + static_cast<double>(rng() % 9)));
    }
  }
  return t;
}

// All loopless paths src->dst by DFS (graphs are small).
void all_paths(const Topology& t, NodeId at, NodeId dst,
               std::vector<char>& used, Path& current,
               std::vector<Path>& out) {
  if (at == dst) {
    out.push_back(current);
    return;
  }
  for (LinkId l : t.links_of(at)) {
    NodeId next = t.link(l).other(at);
    if (used[static_cast<std::size_t>(next)]) continue;
    used[static_cast<std::size_t>(next)] = 1;
    current.push_back(next);
    all_paths(t, next, dst, used, current, out);
    current.pop_back();
    used[static_cast<std::size_t>(next)] = 0;
  }
}

std::vector<Path> brute_force_paths(const Topology& t, NodeId src,
                                    NodeId dst) {
  std::vector<Path> out;
  std::vector<char> used(static_cast<std::size_t>(t.node_count()), 0);
  used[static_cast<std::size_t>(src)] = 1;
  Path current{src};
  all_paths(t, src, dst, used, current, out);
  return out;
}

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, DijkstraMatchesBruteForceMinimum) {
  std::mt19937_64 rng(GetParam());
  Topology t = random_graph(rng, 7, 0.3);
  auto weight = propagation_delay();
  for (NodeId src = 0; src < t.node_count(); ++src) {
    for (NodeId dst = 0; dst < t.node_count(); ++dst) {
      if (src == dst) continue;
      auto sp = shortest_path(t, src, dst, weight);
      ASSERT_TRUE(sp.has_value());
      double best = std::numeric_limits<double>::infinity();
      for (const Path& p : brute_force_paths(t, src, dst))
        best = std::min(best, path_cost(t, p, weight));
      EXPECT_NEAR(path_cost(t, *sp, weight), best, 1e-12);
    }
  }
}

TEST_P(RoutingProperty, YenMatchesBruteForceTopK) {
  std::mt19937_64 rng(GetParam() ^ 0xABCDEF);
  Topology t = random_graph(rng, 6, 0.35);
  auto weight = propagation_delay();
  const int k = 4;
  NodeId src = 0;
  NodeId dst = t.node_count() - 1;
  auto yen = k_shortest_paths(t, src, dst, weight, k);
  auto brute = brute_force_paths(t, src, dst);
  std::sort(brute.begin(), brute.end(), [&](const Path& a, const Path& b) {
    return path_cost(t, a, weight) < path_cost(t, b, weight);
  });
  ASSERT_EQ(yen.size(),
            std::min<std::size_t>(static_cast<std::size_t>(k),
                                  brute.size()));
  for (std::size_t i = 0; i < yen.size(); ++i) {
    // Same cost at each rank (ties may reorder the concrete paths).
    EXPECT_NEAR(path_cost(t, yen[i], weight),
                path_cost(t, brute[i], weight), 1e-12)
        << "rank " << i;
    // Loopless.
    std::set<NodeId> uniq(yen[i].begin(), yen[i].end());
    EXPECT_EQ(uniq.size(), yen[i].size());
  }
}

TEST_P(RoutingProperty, EcmpEnumeratesAllMinimumCostPaths) {
  std::mt19937_64 rng(GetParam() ^ 0x5555);
  Topology t = random_graph(rng, 6, 0.4);
  auto weight = hop_count();  // hop count => many ties => real ECMP sets
  NodeId src = 0;
  NodeId dst = t.node_count() - 1;
  auto ecmp = ecmp_paths(t, src, dst, weight, 64);
  auto brute = brute_force_paths(t, src, dst);
  double best = std::numeric_limits<double>::infinity();
  for (const Path& p : brute) best = std::min(best, path_cost(t, p, weight));
  std::set<Path> expected;
  for (const Path& p : brute)
    if (path_cost(t, p, weight) == best) expected.insert(p);
  std::set<Path> got(ecmp.begin(), ecmp.end());
  EXPECT_EQ(got, expected);
}

// What PathDatabase serves for a pair: the ECMP set, then Yen's paths to
// fill it up to `per_pair`, computed with the free functions.
std::vector<Path> expected_candidates(const Topology& t, NodeId src,
                                      NodeId dst, const LinkWeight& weight,
                                      int per_pair) {
  std::vector<Path> out = ecmp_paths(t, src, dst, weight, per_pair);
  if (static_cast<int>(out.size()) < per_pair) {
    for (Path& p : k_shortest_paths(t, src, dst, weight, per_pair)) {
      if (std::find(out.begin(), out.end(), p) == out.end())
        out.push_back(std::move(p));
      if (static_cast<int>(out.size()) >= per_pair) break;
    }
  }
  return out;
}

// Queries every ordered pair of `nodes` as (a, b), (b, a), then (a, c):
// each endpoint's stored distance row serves later pairs in both roles.
void check_database(const Topology& t, const std::vector<NodeId>& nodes,
                    const LinkWeight& weight, int per_pair) {
  PathDatabase db(t, per_pair, weight);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      for (auto [src, dst] : {std::pair{nodes[i], nodes[j]},
                              std::pair{nodes[j], nodes[i]}}) {
        EXPECT_EQ(db.paths(src, dst),
                  expected_candidates(t, src, dst, weight, per_pair))
            << src << " -> " << dst;
      }
    }
  }
}

TEST_P(RoutingProperty, DatabaseMatchesFreeFunctions) {
  for (int per_pair : {1, 3}) {
    std::mt19937_64 rng(GetParam() ^ 0x5555);
    Topology t = random_graph(rng, 6, 0.4);
    std::vector<NodeId> nodes;
    for (NodeId n = 0; n < t.node_count(); ++n) nodes.push_back(n);
    check_database(t, nodes, hop_count(), per_pair);
    check_database(t, nodes, propagation_delay(), per_pair);
  }
}

// Every ordered pair of `t`'s nodes, and every node to itself, through one
// database per (weight, per_pair): stub endpoints route from their
// neighbour's row, shared by every stub on that neighbour.
void check_every_pair(const Topology& t) {
  std::vector<NodeId> nodes;
  for (NodeId n = 0; n < t.node_count(); ++n) nodes.push_back(n);
  for (int per_pair : {1, 3, 4}) {
    for (const LinkWeight& weight : {hop_count(), propagation_delay()}) {
      check_database(t, nodes, weight, per_pair);
      PathDatabase db(t, per_pair, weight);
      for (NodeId n : nodes)
        EXPECT_EQ(db.paths(n, n), expected_candidates(t, n, n, weight,
                                                      per_pair))
            << n << " -> " << n;
    }
  }
}

TEST_P(RoutingProperty, DatabaseMatchesFreeFunctionsWithStubHosts) {
  // A random switch graph with 1-4 hosts of one link each, hung off
  // random switches; from two hosts on, the first two share a switch.
  std::mt19937_64 rng(GetParam() ^ 0x57AB);
  Topology t = random_graph(rng, 6, 0.4);
  const int switches = t.node_count();
  const int hosts = 1 + static_cast<int>(rng() % 4);
  const auto shared = static_cast<NodeId>(rng() % switches);
  for (int h = 0; h < hosts; ++h) {
    NodeId host = t.add_node(NodeKind::kHost, "h" + std::to_string(h));
    NodeId sw = h < 2 ? shared : static_cast<NodeId>(rng() % switches);
    t.add_link(host, sw, 1e9, 1e-3 * (1 + static_cast<double>(rng() % 9)));
  }
  check_every_pair(t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty,
                         ::testing::Values(10, 20, 30, 40));

TEST(PathDatabaseStubs, TwoStubsJoinedByOneLink) {
  // Each endpoint's one neighbour is the other endpoint, so neither is
  // replaced by its neighbour.
  Topology t;
  NodeId a = t.add_node(NodeKind::kHost, "a");
  NodeId b = t.add_node(NodeKind::kHost, "b");
  t.add_link(a, b, 1e9, 2e-3);
  check_every_pair(t);
  PathDatabase db(t, 4, hop_count());
  EXPECT_EQ(db.paths(a, b), (std::vector<Path>{{a, b}}));
}

TEST(PathDatabaseStubs, StubToItsOwnNeighbour) {
  // A host on s0 of a switch triangle: the pair (host, s0) routes from
  // the host itself, and Yen fills the way around the triangle.
  Topology t;
  NodeId s0 = t.add_node(NodeKind::kSwitch, "s0");
  NodeId s1 = t.add_node(NodeKind::kSwitch, "s1");
  NodeId s2 = t.add_node(NodeKind::kSwitch, "s2");
  NodeId h = t.add_node(NodeKind::kHost, "h");
  t.add_link(s0, s1, 1e9, 1e-3);
  t.add_link(s1, s2, 1e9, 1e-3);
  t.add_link(s2, s0, 1e9, 1e-3);
  t.add_link(h, s0, 1e9, 1e-3);
  check_every_pair(t);
  PathDatabase db(t, 4, hop_count());
  EXPECT_EQ(db.paths(h, s0), (std::vector<Path>{{h, s0}}));
  EXPECT_EQ(db.paths(s1, h), (std::vector<Path>{{s1, s0, h}, {s1, s2, s0, h}}));
}

TEST(PathDatabaseFatTree, EveryHostPairMatchesFreeFunctions) {
  Topology t = fat_tree(4);
  check_database(t, t.hosts(), hop_count(), 4);
}

TEST(PathDatabaseFatTree, ServesEcmpSpreadsForHostPairs) {
  Topology t = fat_tree(4);
  PathDatabase db(t, 4, hop_count());
  auto hosts = t.hosts();
  // Inter-pod pair: 4 equal-cost paths exist and must all be served.
  const auto& paths = db.paths(hosts.front(), hosts.back());
  EXPECT_EQ(paths.size(), 4u);
  std::set<Path> uniq(paths.begin(), paths.end());
  EXPECT_EQ(uniq.size(), paths.size());
  for (const Path& p : paths) {
    EXPECT_EQ(p.front(), hosts.front());
    EXPECT_EQ(p.back(), hosts.back());
    EXPECT_FALSE(path_links(t, p).empty());
  }
}

}  // namespace
}  // namespace hermes::net
