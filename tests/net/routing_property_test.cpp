// Property tests for the routing algorithms on random graphs, checked
// against brute-force enumeration.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
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

// The minimum-cost loopless paths src->dst under `weight`, by brute force.
std::set<Path> brute_force_min_cost_paths(const Topology& t, NodeId src,
                                          NodeId dst,
                                          const LinkWeight& weight) {
  const std::vector<Path> brute = brute_force_paths(t, src, dst);
  double best = std::numeric_limits<double>::infinity();
  for (const Path& p : brute) best = std::min(best, path_cost(t, p, weight));
  std::set<Path> out;
  for (const Path& p : brute)
    if (path_cost(t, p, weight) == best) out.insert(p);
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
  std::set<Path> got(ecmp.begin(), ecmp.end());
  EXPECT_EQ(got, brute_force_min_cost_paths(t, src, dst, weight));
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

// Reference: Yen's algorithm as it ran before its searches stopped at the
// destination. Every Dijkstra, the first and each spur's, settles every
// node it can reach; the path is then read back from the destination.
Path full_search_path(const Topology& t, const std::vector<double>& w,
                      NodeId src, NodeId dst,
                      const std::vector<char>& banned_nodes,
                      const std::set<LinkId>& banned_links) {
  const auto n = static_cast<std::size_t>(t.node_count());
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dist(n, inf);
  std::vector<LinkId> pred(n, kInvalidLink);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> pq;
  dist[static_cast<std::size_t>(src)] = 0;
  pq.push({0, src});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[static_cast<std::size_t>(u)]) continue;
    for (LinkId l : t.links_of(u)) {
      if (banned_links.count(l)) continue;
      NodeId v = t.link(l).other(u);
      if (banned_nodes[static_cast<std::size_t>(v)]) continue;
      double nd = d + w[static_cast<std::size_t>(l)];
      if (nd < dist[static_cast<std::size_t>(v)]) {
        dist[static_cast<std::size_t>(v)] = nd;
        pred[static_cast<std::size_t>(v)] = l;
        pq.push({nd, v});
      }
    }
  }
  if (dist[static_cast<std::size_t>(dst)] == inf) return {};
  Path path;
  for (NodeId cur = dst; cur != src;
       cur = t.link(pred[static_cast<std::size_t>(cur)]).other(cur))
    path.push_back(cur);
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<Path> full_search_yen(const Topology& t, const LinkWeight& weight,
                                  NodeId src, NodeId dst, int k) {
  std::vector<double> w;
  for (const Link& l : t.links()) w.push_back(weight(l));
  auto cost = [&](const Path& p) {
    double total = 0;
    for (std::size_t i = 0; i + 1 < p.size(); ++i)
      total += w[static_cast<std::size_t>(t.find_link(p[i], p[i + 1]))];
    return total;
  };
  const std::vector<char> none(static_cast<std::size_t>(t.node_count()), 0);
  std::vector<Path> result;
  Path first = full_search_path(t, w, src, dst, none, {});
  if (first.empty()) return result;
  result.push_back(first);
  std::vector<Path> candidates;
  while (static_cast<int>(result.size()) < k) {
    const Path prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      Path root(prev.begin(), prev.begin() + static_cast<std::ptrdiff_t>(i + 1));
      std::set<LinkId> banned_links;
      for (const Path& p : result)
        if (p.size() > i + 1 && std::equal(root.begin(), root.end(), p.begin()))
          banned_links.insert(t.find_link(p[i], p[i + 1]));
      std::vector<char> banned_nodes = none;
      for (std::size_t j = 0; j < i; ++j)
        banned_nodes[static_cast<std::size_t>(root[j])] = 1;
      Path spur = full_search_path(t, w, prev[i], dst, banned_nodes,
                                   banned_links);
      if (spur.empty()) continue;
      Path total = root;
      total.insert(total.end(), spur.begin() + 1, spur.end());
      if (std::find(candidates.begin(), candidates.end(), total) ==
              candidates.end() &&
          std::find(result.begin(), result.end(), total) == result.end())
        candidates.push_back(std::move(total));
    }
    if (candidates.empty()) break;
    auto best = std::min_element(
        candidates.begin(), candidates.end(), [&](const Path& a, const Path& b) {
          double ca = cost(a), cb = cost(b);
          if (ca != cb) return ca < cb;
          return a < b;
        });
    result.push_back(*best);
    candidates.erase(best);
  }
  return result;
}

// A random switch graph of 5-8 nodes with 2-5 stub hosts, the first two
// on one switch (the pair Yen finds nothing beyond one path for).
Topology stub_host_graph(std::mt19937_64& rng) {
  Topology t = random_graph(rng, 5 + static_cast<int>(rng() % 4), 0.35);
  const int switches = t.node_count();
  const int hosts = 2 + static_cast<int>(rng() % 4);
  const auto shared = static_cast<NodeId>(rng() % switches);
  for (int h = 0; h < hosts; ++h) {
    NodeId host = t.add_node(NodeKind::kHost, "h" + std::to_string(h));
    NodeId sw = h < 2 ? shared : static_cast<NodeId>(rng() % switches);
    t.add_link(host, sw, 1e9, 1e-3 * (1 + static_cast<double>(rng() % 9)));
  }
  return t;
}

TEST_P(RoutingProperty, YenMatchesFullSearchReference) {
  // Every ordered pair and k of stub-host graphs, under hop counts and
  // real weights, path for path.
  std::mt19937_64 rng(GetParam() ^ 0x9E11);
  for (int graph = 0; graph < 4; ++graph) {
    Topology t = stub_host_graph(rng);
    for (const LinkWeight& weight : {hop_count(), propagation_delay()}) {
      for (NodeId src = 0; src < t.node_count(); ++src) {
        for (NodeId dst = 0; dst < t.node_count(); ++dst) {
          for (int k : {1, 4, 6}) {
            ASSERT_EQ(k_shortest_paths(t, src, dst, weight, k),
                      full_search_yen(t, weight, src, dst, k))
                << "graph " << graph << " " << src << " -> " << dst
                << " k " << k;
          }
        }
      }
    }
  }
}

TEST_P(RoutingProperty, StubPruningMatchesFullSearchReference) {
  // dijkstra queues a stub only when the search stops at it. Over the
  // graphs YenMatchesFullSearchReference draws, every ordered pair (two
  // stubs on one switch, a stub and its own neighbour, a switch and a
  // stub among them): shortest_path equals the unpruned search node for
  // node under both weights, and ecmp_paths equals the brute-force set of
  // minimum-hop paths.
  std::mt19937_64 rng(GetParam() ^ 0x9E11);
  for (int graph = 0; graph < 4; ++graph) {
    Topology t = stub_host_graph(rng);
    const std::vector<char> none(static_cast<std::size_t>(t.node_count()), 0);
    for (const LinkWeight& weight : {hop_count(), propagation_delay()}) {
      std::vector<double> w;
      for (const Link& l : t.links()) w.push_back(weight(l));
      for (NodeId src = 0; src < t.node_count(); ++src) {
        for (NodeId dst = 0; dst < t.node_count(); ++dst) {
          EXPECT_EQ(shortest_path(t, src, dst, weight).value_or(Path{}),
                    full_search_path(t, w, src, dst, none, {}))
              << "graph " << graph << " " << src << " -> " << dst;
        }
      }
    }
    for (NodeId src = 0; src < t.node_count(); ++src) {
      for (NodeId dst = 0; dst < t.node_count(); ++dst) {
        if (src == dst) continue;
        const std::vector<Path> ecmp = ecmp_paths(t, src, dst, hop_count(), 64);
        EXPECT_EQ(std::set<Path>(ecmp.begin(), ecmp.end()),
                  brute_force_min_cost_paths(t, src, dst, hop_count()))
            << "graph " << graph << " " << src << " -> " << dst;
      }
    }
  }
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
