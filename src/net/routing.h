// Shortest-path and multipath routing over a Topology.
//
// The traffic-engineering SDNApp (Section 8.1.1) needs, for each
// source/destination pair, a set of candidate paths it can move flows
// between. We provide Dijkstra, ECMP enumeration of equal-cost shortest
// paths, and Yen's k-shortest paths.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/topology.h"

namespace hermes::net {

/// Per-link weight function. hop_count() and propagation_delay() are the
/// two standard choices.
using LinkWeight = std::function<double(const Link&)>;

LinkWeight hop_count();
LinkWeight propagation_delay();

/// Single shortest path src -> dst under `weight`; nullopt if unreachable.
std::optional<Path> shortest_path(const Topology& topo, NodeId src,
                                  NodeId dst, const LinkWeight& weight);

/// Total weight of a path; infinity when the path is broken.
double path_cost(const Topology& topo, const Path& path,
                 const LinkWeight& weight);

/// All equal-cost shortest paths src -> dst, up to `max_paths`
/// (deterministic order: lexicographic by node id).
std::vector<Path> ecmp_paths(const Topology& topo, NodeId src, NodeId dst,
                             const LinkWeight& weight, int max_paths = 16);

/// Yen's algorithm: the k shortest loopless paths src -> dst.
std::vector<Path> k_shortest_paths(const Topology& topo, NodeId src,
                                   NodeId dst, const LinkWeight& weight,
                                   int k);

/// Candidate paths for (src,dst) pairs, computed lazily and memoized.
///
/// Large topologies (a k=16 fat-tree has ~1M host pairs) make eager
/// all-pairs computation wasteful; the TE app only ever asks about pairs
/// that carry flows. Link weights are evaluated once, at construction.
///
/// Each endpoint of a pair has an anchor. A stub (a node with exactly
/// one link, such as a host) reaches every other node through its one
/// neighbour, so its anchor is that neighbour, unless the neighbour is
/// the pair's other endpoint; any other endpoint anchors itself. A
/// pair's ECMP set is enumerated between its two anchors, from their
/// single-source distance rows (node_count doubles each, computed on an
/// anchor's first use), and each stub endpoint is then put back at its
/// end of every path. Only anchors get rows: on a fat-tree, one per edge
/// switch instead of one per host. The answers equal ecmp_paths() plus
/// the k_shortest_paths() fill exactly under hop counts; under real
/// weights the two sums differ only by rounding, far inside the ECMP
/// tie tolerance.
class PathDatabase {
 public:
  /// Serves up to `paths_per_pair` candidate paths per pair. ECMP
  /// shortest paths are preferred; Yen paths fill the remainder when the
  /// topology has few equal-cost options.
  PathDatabase(const Topology& topo, int paths_per_pair,
               const LinkWeight& weight);

  /// Candidate paths for src -> dst (empty when unreachable). Memoized.
  const std::vector<Path>& paths(NodeId src, NodeId dst);

 private:
  /// Where `node`'s paths to `other` are enumerated from: its neighbour
  /// when it is a stub whose neighbour is not `other`, else itself.
  NodeId anchor(NodeId node, NodeId other) const;

  /// The single-source distance row of `node`, computed on first use.
  const std::vector<double>& row(NodeId node);

  const Topology& topo_;
  int paths_per_pair_;
  std::vector<double> weights_;            // by LinkId
  std::vector<std::vector<double>> rows_;  // by NodeId; empty = not yet
  std::unordered_map<std::uint64_t, std::vector<Path>> cache_;
};

}  // namespace hermes::net
