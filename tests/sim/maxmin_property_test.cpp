// Property tests of the max-min fair allocator against the defining
// conditions of max-min fairness, on random topologies and flow sets, and
// bit for bit against the round-by-round filling it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>
#include <set>

#include "net/routing.h"
#include "sim/fluid_network.h"

namespace hermes::sim {
namespace {

struct Scenario {
  net::Topology topo;
  std::vector<std::vector<net::LinkId>> flow_links;
};

Scenario random_scenario(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  Scenario s;
  // Random connected graph: a ring plus chords.
  int n = 5 + static_cast<int>(rng() % 6);
  for (int i = 0; i < n; ++i)
    s.topo.add_node(net::NodeKind::kSwitch, "s" + std::to_string(i));
  for (int i = 0; i < n; ++i) {
    double gbps = 1 + static_cast<double>(rng() % 10);
    s.topo.add_link(i, (i + 1) % n, gbps * 1e9, 1e-3);
  }
  int chords = static_cast<int>(rng() % 4);
  for (int c = 0; c < chords; ++c) {
    int a = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    int b = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    if (a == b || s.topo.find_link(a, b) != net::kInvalidLink) continue;
    double gbps = 1 + static_cast<double>(rng() % 10);
    s.topo.add_link(a, b, gbps * 1e9, 1e-3);
  }
  // Random flows along shortest paths.
  int flows = 3 + static_cast<int>(rng() % 12);
  for (int f = 0; f < flows; ++f) {
    int a = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    int b = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    if (a == b) continue;
    auto path = net::shortest_path(s.topo, a, b, net::hop_count());
    if (!path) continue;
    auto links = net::path_links(s.topo, *path);
    if (!links.empty()) s.flow_links.push_back(links);
  }
  return s;
}

class MaxMinProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxMinProperty, AllocationIsFeasibleAndMaxMinFair) {
  Scenario s = random_scenario(GetParam());
  if (s.flow_links.empty()) GTEST_SKIP();
  FluidNetwork net(s.topo);
  std::vector<FlowId> ids;
  for (const auto& links : s.flow_links)
    ids.push_back(net.add_flow(1e12, links, 0));

  // Capacity per link in bytes/s.
  auto capacity = [&](net::LinkId l) {
    return s.topo.link(l).capacity_bps / 8.0;
  };

  // (1) Feasibility: no link over capacity.
  for (net::LinkId l = 0; l < s.topo.link_count(); ++l) {
    double used = 0;
    for (std::size_t f = 0; f < ids.size(); ++f) {
      const auto& links = s.flow_links[f];
      if (std::find(links.begin(), links.end(), l) != links.end())
        used += net.rate_bytes_per_s(ids[f]);
    }
    EXPECT_LE(used, capacity(l) * (1 + 1e-9)) << "link " << l;
  }

  // (2) Positive rates.
  for (FlowId id : ids) EXPECT_GT(net.rate_bytes_per_s(id), 0);

  // (3) Max-min condition: every flow has a bottleneck link — a
  // saturated link on its path where it has the (weakly) largest rate.
  for (std::size_t f = 0; f < ids.size(); ++f) {
    bool has_bottleneck = false;
    for (net::LinkId l : s.flow_links[f]) {
      double used = 0;
      double max_rate_on_l = 0;
      for (std::size_t g = 0; g < ids.size(); ++g) {
        const auto& links = s.flow_links[g];
        if (std::find(links.begin(), links.end(), l) == links.end())
          continue;
        used += net.rate_bytes_per_s(ids[g]);
        max_rate_on_l = std::max(max_rate_on_l,
                                 net.rate_bytes_per_s(ids[g]));
      }
      bool saturated = used >= capacity(l) * (1 - 1e-9);
      bool is_max = net.rate_bytes_per_s(ids[f]) >=
                    max_rate_on_l * (1 - 1e-9);
      if (saturated && is_max) {
        has_bottleneck = true;
        break;
      }
    }
    EXPECT_TRUE(has_bottleneck) << "flow " << f << " has no bottleneck";
  }
}

TEST_P(MaxMinProperty, RatesAreScaleInvariantInBytes) {
  // Allocation depends on links and flow sets only, not remaining bytes.
  Scenario s = random_scenario(GetParam());
  if (s.flow_links.size() < 2) GTEST_SKIP();
  FluidNetwork small(s.topo);
  FluidNetwork large(s.topo);
  std::vector<FlowId> a, b;
  for (const auto& links : s.flow_links) {
    a.push_back(small.add_flow(1e6, links, 0));
    b.push_back(large.add_flow(1e12, links, 0));
  }
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(small.rate_bytes_per_s(a[i]),
                     large.rate_bytes_per_s(b[i]));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxMinProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

using FlowLinks = std::map<FlowId, std::vector<net::LinkId>>;

// Reference: the progressive filling FluidNetwork ran before its
// bottleneck heap. Every round rescans every link for the lowest fair
// share (ties to the lowest link id), then every flow for the ones that
// cross it. Flows are visited in id order here, not in the network's
// hash order: within a round every subtraction is of the same share, so
// the order must not change a bit. `tied_rounds`, when given, counts the
// rounds in which another link had the bottleneck's exact share.
std::map<FlowId, double> reference_rates(const net::Topology& topo,
                                         const FlowLinks& flows,
                                         int* tied_rounds = nullptr) {
  std::map<net::LinkId, double> residual;
  std::map<net::LinkId, int> active;
  std::map<FlowId, double> rate;
  for (const auto& [id, links] : flows) {
    rate[id] = 0;
    for (net::LinkId l : links) {
      residual.emplace(l, topo.link(l).capacity_bps / 8.0);
      ++active[l];
    }
  }
  std::set<FlowId> frozen;
  while (frozen.size() < flows.size()) {
    net::LinkId bottleneck = net::kInvalidLink;
    double best_share = std::numeric_limits<double>::infinity();
    for (const auto& [l, count] : active) {
      if (count <= 0) continue;
      double share = residual.at(l) / count;
      if (share < best_share || (share == best_share && l < bottleneck)) {
        best_share = share;
        bottleneck = l;
      }
    }
    if (bottleneck == net::kInvalidLink) break;
    if (tied_rounds) {
      for (const auto& [l, count] : active) {
        if (count > 0 && l != bottleneck &&
            residual.at(l) / count == best_share) {
          ++*tied_rounds;
          break;
        }
      }
    }
    for (const auto& [id, links] : flows) {
      if (frozen.count(id) ||
          std::find(links.begin(), links.end(), bottleneck) == links.end())
        continue;
      rate[id] = best_share;
      frozen.insert(id);
      for (net::LinkId l : links) {
        residual[l] -= best_share;
        --active[l];
      }
    }
  }
  return rate;
}

// The links of a random candidate path between two distinct endpoints.
// Flows drawn this way cross the same links often: shares tie across
// links and freezing one bottleneck cascades into the next.
std::vector<net::LinkId> random_links(const net::Topology& topo,
                                      const std::vector<net::NodeId>& endpoints,
                                      net::PathDatabase& paths,
                                      std::mt19937_64& rng) {
  for (;;) {
    net::NodeId a = endpoints[rng() % endpoints.size()];
    net::NodeId b = endpoints[rng() % endpoints.size()];
    if (a == b) continue;
    const auto& candidates = paths.paths(a, b);
    if (candidates.empty()) continue;
    return net::path_links(topo, candidates[rng() % candidates.size()]);
  }
}

// A ring of ten switches plus chords, with capacities of 1, 2, 3 and
// 6 Gbps: a share on one link often equals a share on another.
net::Topology mixed_capacity_graph(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0xF111);
  net::Topology topo;
  const int n = 10;
  for (int i = 0; i < n; ++i)
    topo.add_node(net::NodeKind::kSwitch, "s" + std::to_string(i));
  const double gbps[] = {1, 2, 3, 6};
  for (int i = 0; i < n; ++i) {
    topo.add_link(i, (i + 1) % n, gbps[rng() % 4] * 1e9, 1e-3);
    if (i % 2 == 0 && topo.find_link(i, (i + 3) % n) == net::kInvalidLink)
      topo.add_link(i, (i + 3) % n, gbps[rng() % 4] * 1e9, 1e-3);
  }
  return topo;
}

std::vector<net::NodeId> every_node(const net::Topology& topo) {
  std::vector<net::NodeId> nodes;
  for (net::NodeId n = 0; n < topo.node_count(); ++n) nodes.push_back(n);
  return nodes;
}

// What check_against_reference() saw over a whole sequence: the
// reference's tied rounds, and the steps after which at least half of
// the live links were private (crossed by one flow, once).
struct ReferenceRun {
  int tied_rounds = 0;
  int mostly_private_steps = 0;
};

// Drives seeded add / remove / reroute sequences through a FluidNetwork
// and checks every flow's rate against the reference after every
// mutation, with EXPECT_EQ on the doubles. With `hold_at`, the flow set
// is held near that size: a step adds a flow when there are fewer, and
// otherwise removes or reroutes one.
ReferenceRun check_against_reference(const net::Topology& topo,
                                     const std::vector<net::NodeId>& endpoints,
                                     std::uint64_t seed, int steps,
                                     std::size_t hold_at = 0) {
  std::mt19937_64 rng(seed);
  net::PathDatabase paths(topo, 4, net::hop_count());
  auto draw_links = [&] { return random_links(topo, endpoints, paths, rng); };
  FluidNetwork network(topo);
  FlowLinks flows;
  ReferenceRun run;
  for (int step = 0; step < steps; ++step) {
    const auto op = rng() % 10;
    const bool add = hold_at > 0 ? flows.size() < hold_at
                                 : flows.size() < 4 || op < 5;
    if (add) {
      auto links = draw_links();
      FlowId id = network.add_flow(1e9, links, 0);
      flows.emplace(id, std::move(links));
    } else {
      auto victim = flows.begin();
      std::advance(victim, static_cast<std::ptrdiff_t>(rng() % flows.size()));
      if (op < 8) {
        network.remove_flow(victim->first, 0);
        flows.erase(victim);
      } else {
        victim->second = draw_links();
        network.reroute_flow(victim->first, victim->second, 0);
      }
    }
    EXPECT_EQ(network.active_flow_count(), static_cast<int>(flows.size()));
    for (const auto& [id, rate] :
         reference_rates(topo, flows, &run.tied_rounds))
      EXPECT_EQ(network.rate_bytes_per_s(id), rate)
          << "seed " << seed << " step " << step << " flow " << id;
    if (::testing::Test::HasFailure()) break;
    std::map<net::LinkId, int> crossings;
    for (const auto& [id, links] : flows)
      for (net::LinkId l : links) ++crossings[l];
    const auto private_links =
        std::count_if(crossings.begin(), crossings.end(),
                      [](const auto& c) { return c.second == 1; });
    if (2 * static_cast<std::size_t>(private_links) >= crossings.size())
      ++run.mostly_private_steps;
  }
  return run;
}

// The fat-tree automorphism that swaps pod p with pod k-1-p and fixes
// the core: fat_tree() numbers the core first, then every pod's nodes in
// the same layout.
std::vector<net::NodeId> fat_tree_pod_mirror(const net::Topology& topo,
                                             int k) {
  const int core = (k / 2) * (k / 2);
  const int per_pod = (topo.node_count() - core) / k;
  std::vector<net::NodeId> mirror(static_cast<std::size_t>(topo.node_count()));
  for (net::NodeId n = 0; n < topo.node_count(); ++n) {
    const int pod = n < core ? -1 : (n - core) / per_pod;
    mirror[static_cast<std::size_t>(n)] =
        pod < 0 ? n : core + (k - 1 - pod) * per_pod + (n - core) % per_pod;
  }
  return mirror;
}

// check_against_reference() over a flow set closed under `mirror`, a
// topology automorphism: every add, remove and reroute of a flow is
// applied to its mirror image too, and rates are checked after both.
int check_mirrored_against_reference(const net::Topology& topo,
                                     const std::vector<net::NodeId>& mirror,
                                     std::uint64_t seed, int steps) {
  std::mt19937_64 rng(seed);
  net::PathDatabase paths(topo, 4, net::hop_count());
  const std::vector<net::NodeId> hosts = topo.hosts();
  // A random host pair's path and its mirror image's links.
  auto draw = [&] {
    net::Path path;
    while (path.empty()) {
      net::NodeId a = hosts[rng() % hosts.size()];
      net::NodeId b = hosts[rng() % hosts.size()];
      if (a == b) continue;
      const auto& candidates = paths.paths(a, b);
      path = candidates[rng() % candidates.size()];
    }
    net::Path image;
    for (net::NodeId n : path) image.push_back(mirror[static_cast<std::size_t>(n)]);
    return std::pair{net::path_links(topo, path), net::path_links(topo, image)};
  };
  FluidNetwork network(topo);
  FlowLinks flows;
  std::vector<std::pair<FlowId, FlowId>> pairs;
  int tied_rounds = 0;
  for (int step = 0; step < steps; ++step) {
    const auto op = rng() % 10;
    if (pairs.size() < 4 || op < 5) {
      auto [links, image] = draw();
      FlowId a = network.add_flow(1e9, links, 0);
      FlowId b = network.add_flow(1e9, image, 0);
      flows.emplace(a, std::move(links));
      flows.emplace(b, std::move(image));
      pairs.emplace_back(a, b);
    } else {
      const std::size_t victim = rng() % pairs.size();
      const auto [a, b] = pairs[victim];
      if (op < 8) {
        network.remove_flow(a, 0);
        network.remove_flow(b, 0);
        flows.erase(a);
        flows.erase(b);
        pairs.erase(pairs.begin() + static_cast<std::ptrdiff_t>(victim));
      } else {
        auto [links, image] = draw();
        flows[a] = links;
        flows[b] = image;
        network.reroute_flow(a, links, 0);
        network.reroute_flow(b, image, 0);
      }
    }
    EXPECT_EQ(network.active_flow_count(), static_cast<int>(flows.size()));
    for (const auto& [id, rate] : reference_rates(topo, flows, &tied_rounds))
      EXPECT_EQ(network.rate_bytes_per_s(id), rate)
          << "seed " << seed << " step " << step << " flow " << id;
    if (::testing::Test::HasFailure()) break;
  }
  return tied_rounds;
}

class FillingMatchesReference
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FillingMatchesReference, FatTreeUniformLinks) {
  net::Topology topo = net::fat_tree(4);
  check_against_reference(topo, topo.hosts(), GetParam(), 300);
}

TEST_P(FillingMatchesReference, MixedCapacityGraph) {
  net::Topology topo = mixed_capacity_graph(GetParam());
  check_against_reference(topo, every_node(topo), GetParam(), 300);
}

TEST_P(FillingMatchesReference, FatTreeK8LongSequence) {
  // 128 hosts and 384 links: hundreds of live links per filling, and a
  // flow set that grows to ~200 over 1,000 mutations.
  net::Topology topo = net::fat_tree(8);
  check_against_reference(topo, topo.hosts(), GetParam(), 1000);
}

TEST_P(FillingMatchesReference, FatTreeK16FewFlows) {
  // te_fattree's regime: ~30 flows among 1,024 hosts, so most live links
  // carry one flow, and the heap holds one private link per flow.
  net::Topology topo = net::fat_tree(16);
  const ReferenceRun run =
      check_against_reference(topo, topo.hosts(), GetParam(), 1000, 30);
  EXPECT_GT(run.mostly_private_steps, 500)
      << "most steps must have at least half of their live links private";
}

TEST_P(FillingMatchesReference, ManyTiedShares) {
  // Flows come in mirror pairs across a k=4 fat-tree's pods, so every
  // link carries the same share as its mirror link and most rounds pick
  // the bottleneck between equal shares by link id alone.
  net::Topology topo = net::fat_tree(4);
  const int tied_rounds = check_mirrored_against_reference(
      topo, fat_tree_pod_mirror(topo, 4), GetParam(), 400);
  EXPECT_GE(tied_rounds, 1600) << "the draw must tie shares often";
}

INSTANTIATE_TEST_SUITE_P(Seeds, FillingMatchesReference,
                         ::testing::Values(1, 7, 42));

// Starts groups of 1-8 flows at one instant, as one add_flows() call in
// one network and as one add_flow() call per flow in another, with
// random removals and time steps between groups. Every flow's id, rate
// and remaining volume must match bit for bit: the final filling of a
// flow set does not depend on how the set was built.
void check_group_start(const net::Topology& topo,
                       const std::vector<net::NodeId>& endpoints,
                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  net::PathDatabase paths(topo, 4, net::hop_count());
  FluidNetwork grouped(topo);
  FluidNetwork one_by_one(topo);
  std::vector<FlowId> live;
  Time now = 0;
  for (int group = 0; group < 40; ++group) {
    now += from_millis(static_cast<double>(rng() % 5));
    grouped.advance_to(now);
    one_by_one.advance_to(now);
    if (!live.empty() && rng() % 3 == 0) {
      auto victim = live.begin() + static_cast<std::ptrdiff_t>(
                                       rng() % live.size());
      grouped.remove_flow(*victim, now);
      one_by_one.remove_flow(*victim, now);
      live.erase(victim);
    }
    std::vector<FluidNetwork::NewFlow> flows(1 + rng() % 8);
    for (FluidNetwork::NewFlow& flow : flows) {
      flow.bytes = 1e8 * static_cast<double>(1 + rng() % 50);
      flow.links = random_links(topo, endpoints, paths, rng);
    }
    const FlowId first = grouped.add_flows(flows, now);
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const FlowId id = first + static_cast<FlowId>(i);
      ASSERT_EQ(one_by_one.add_flow(flows[i].bytes, flows[i].links, now),
                id);
      live.push_back(id);
    }
    ASSERT_EQ(grouped.active_flow_count(), one_by_one.active_flow_count());
    for (FlowId id : live) {
      EXPECT_EQ(grouped.rate_bytes_per_s(id),
                one_by_one.rate_bytes_per_s(id))
          << "seed " << seed << " group " << group << " flow " << id;
      EXPECT_EQ(grouped.remaining_bytes(id), one_by_one.remaining_bytes(id))
          << "seed " << seed << " group " << group << " flow " << id;
    }
    if (::testing::Test::HasFailure()) return;
  }
}

class GroupStart : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GroupStart, FatTreeMatchesOneAddPerFlow) {
  net::Topology topo = net::fat_tree(4);
  check_group_start(topo, topo.hosts(), GetParam());
}

TEST_P(GroupStart, MixedCapacityGraphMatchesOneAddPerFlow) {
  net::Topology topo = mixed_capacity_graph(GetParam());
  check_group_start(topo, every_node(topo), GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupStart, ::testing::Values(1, 7, 42));

}  // namespace
}  // namespace hermes::sim
