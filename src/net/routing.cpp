#include "net/routing.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>

namespace hermes::net {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct QueueEntry {
  double dist;
  NodeId node;
  bool operator>(const QueueEntry& o) const {
    return dist > o.dist || (dist == o.dist && node > o.node);
  }
};

// Weight of every link, by LinkId: the LinkWeight is called once per link
// per query (or once per PathDatabase), never once per relaxed edge.
std::vector<double> link_weights(const Topology& topo,
                                 const LinkWeight& weight) {
  std::vector<double> w;
  w.reserve(static_cast<std::size_t>(topo.link_count()));
  for (const Link& l : topo.links()) w.push_back(weight(l));
  return w;
}

// Dijkstra from `src`, honoring `banned_nodes` / `banned_links` (for Yen).
// Returns per-node distance and predecessor link.
struct SsspResult {
  std::vector<double> dist;
  std::vector<LinkId> pred_link;
};

// Whether some link of `node` is neither banned nor leads to a banned
// node: the only ways a search can reach `node`.
bool has_open_link(const Topology& topo, NodeId node,
                   const std::vector<char>* banned_nodes,
                   const std::set<LinkId>* banned_links) {
  for (LinkId lid : topo.links_of(node)) {
    if (banned_links && banned_links->count(lid)) continue;
    NodeId v = topo.link(lid).other(node);
    if (banned_nodes && (*banned_nodes)[static_cast<std::size_t>(v)])
      continue;
    return true;
  }
  return false;
}

// With a `target`, the search answers for the target alone: it returns
// once the target is settled, when (weights being non-negative) its
// distance and predecessor chain are final, and returns at once when no
// open link leads to the target. Other nodes' entries are then partial.
SsspResult dijkstra(const Topology& topo, const std::vector<double>& weights,
                    NodeId src, NodeId target = kInvalidNode,
                    const std::vector<char>* banned_nodes = nullptr,
                    const std::set<LinkId>* banned_links = nullptr) {
  auto n = static_cast<std::size_t>(topo.node_count());
  SsspResult r{std::vector<double>(n, kInf),
               std::vector<LinkId>(n, kInvalidLink)};
  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      pq;
  r.dist[static_cast<std::size_t>(src)] = 0;
  if (target != kInvalidNode && target != src &&
      !has_open_link(topo, target, banned_nodes, banned_links))
    return r;
  pq.push({0, src});
  while (!pq.empty()) {
    auto [d, u] = pq.top();
    pq.pop();
    if (d > r.dist[static_cast<std::size_t>(u)]) continue;
    if (u == target) break;
    for (LinkId lid : topo.links_of(u)) {
      if (banned_links && banned_links->count(lid)) continue;
      NodeId v = topo.link(lid).other(u);
      if (banned_nodes && (*banned_nodes)[static_cast<std::size_t>(v)])
        continue;
      double nd = d + weights[static_cast<std::size_t>(lid)];
      if (nd < r.dist[static_cast<std::size_t>(v)]) {
        r.dist[static_cast<std::size_t>(v)] = nd;
        r.pred_link[static_cast<std::size_t>(v)] = lid;
        // A stub's one neighbour is u, now settled, so its entries are
        // final, and (weights being non-negative) it can improve no
        // other node: it is queued only when the search stops at it.
        if (v == target || topo.links_of(v).size() != 1) pq.push({nd, v});
      }
    }
  }
  return r;
}

std::optional<Path> extract_path(const Topology& topo, const SsspResult& r,
                                 NodeId src, NodeId dst) {
  if (r.dist[static_cast<std::size_t>(dst)] == kInf) return std::nullopt;
  Path path;
  NodeId cur = dst;
  while (cur != src) {
    path.push_back(cur);
    LinkId pl = r.pred_link[static_cast<std::size_t>(cur)];
    cur = topo.link(pl).other(cur);
  }
  path.push_back(src);
  std::reverse(path.begin(), path.end());
  return path;
}

double path_cost(const Topology& topo, const Path& path,
                 const std::vector<double>& weights) {
  if (path.empty()) return kInf;
  double total = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    LinkId l = topo.find_link(path[i], path[i + 1]);
    if (l == kInvalidLink) return kInf;
    total += weights[static_cast<std::size_t>(l)];
  }
  return total;
}

// All equal-cost shortest paths src -> dst, up to `max_paths`, from the
// single-source distance rows of both endpoints. Links are undirected and
// weigh the same both ways, so dst's row holds every node's distance TO
// dst.
std::vector<Path> ecmp_from_rows(const Topology& topo,
                                 const std::vector<double>& weights,
                                 NodeId src, NodeId dst,
                                 const std::vector<double>& from_src,
                                 const std::vector<double>& to_dst,
                                 int max_paths) {
  std::vector<Path> out;
  if (max_paths <= 0) return out;
  if (src == dst) {
    out.push_back(Path{src});
    return out;
  }
  // dist_from_src + link + dist_to_dst == total  <=>  the link lies on a
  // shortest path. Enumerate such paths by DFS from src.
  double total = from_src[static_cast<std::size_t>(dst)];
  if (total == kInf) return out;

  constexpr double kEps = 1e-12;
  Path current{src};
  // Iterative DFS with explicit stack of (node, next-neighbor-index).
  struct Frame {
    NodeId node;
    std::size_t next_idx;
  };
  std::vector<Frame> stack{{src, 0}};
  while (!stack.empty() && static_cast<int>(out.size()) < max_paths) {
    Frame& f = stack.back();
    NodeId u = f.node;
    const auto& adj = topo.links_of(u);
    bool descended = false;
    while (f.next_idx < adj.size()) {
      LinkId lid = adj[f.next_idx++];
      NodeId v = topo.link(lid).other(u);
      double du = from_src[static_cast<std::size_t>(u)];
      double dv = to_dst[static_cast<std::size_t>(v)];
      if (dv == kInf) continue;
      if (std::abs(du + weights[static_cast<std::size_t>(lid)] + dv -
                   total) > kEps)
        continue;
      current.push_back(v);
      if (v == dst) {
        out.push_back(current);
        current.pop_back();
        if (static_cast<int>(out.size()) >= max_paths) break;
        continue;
      }
      stack.push_back({v, 0});
      descended = true;
      break;
    }
    if (!descended && !stack.empty() && f.next_idx >= adj.size()) {
      stack.pop_back();
      current.pop_back();
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// Yen's algorithm over precomputed link weights.
std::vector<Path> yen(const Topology& topo, const std::vector<double>& weights,
                      NodeId src, NodeId dst, int k) {
  std::vector<Path> result;
  if (k <= 0) return result;
  auto first =
      extract_path(topo, dijkstra(topo, weights, src, dst), src, dst);
  if (!first) return result;
  result.push_back(*first);

  // Candidate paths, ordered by cost then lexicographically (determinism).
  auto cmp = [&](const Path& a, const Path& b) {
    double ca = path_cost(topo, a, weights);
    double cb = path_cost(topo, b, weights);
    if (ca != cb) return ca < cb;
    return a < b;
  };
  std::vector<Path> candidates;

  while (static_cast<int>(result.size()) < k) {
    const Path& prev = result.back();
    for (std::size_t i = 0; i + 1 < prev.size(); ++i) {
      NodeId spur_node = prev[i];
      Path root(prev.begin(),
                prev.begin() + static_cast<std::ptrdiff_t>(i + 1));

      std::set<LinkId> banned_links;
      for (const Path& p : result) {
        if (p.size() > i &&
            std::equal(root.begin(), root.end(), p.begin())) {
          if (p.size() > i + 1) {
            LinkId l = topo.find_link(p[i], p[i + 1]);
            if (l != kInvalidLink) banned_links.insert(l);
          }
        }
      }
      std::vector<char> banned_nodes(
          static_cast<std::size_t>(topo.node_count()), 0);
      for (std::size_t j = 0; j < i; ++j)
        banned_nodes[static_cast<std::size_t>(root[j])] = 1;

      auto sssp = dijkstra(topo, weights, spur_node, dst, &banned_nodes,
                           &banned_links);
      auto spur = extract_path(topo, sssp, spur_node, dst);
      if (!spur) continue;
      Path total = root;
      total.insert(total.end(), spur->begin() + 1, spur->end());
      if (std::find(candidates.begin(), candidates.end(), total) ==
              candidates.end() &&
          std::find(result.begin(), result.end(), total) == result.end()) {
        candidates.push_back(std::move(total));
      }
    }
    if (candidates.empty()) break;
    auto best = std::min_element(candidates.begin(), candidates.end(), cmp);
    result.push_back(*best);
    candidates.erase(best);
  }
  return result;
}

}  // namespace

LinkWeight hop_count() {
  return [](const Link&) { return 1.0; };
}

LinkWeight propagation_delay() {
  return [](const Link& l) { return l.delay_s; };
}

std::optional<Path> shortest_path(const Topology& topo, NodeId src,
                                  NodeId dst, const LinkWeight& weight) {
  if (src == dst) return Path{src};
  auto r = dijkstra(topo, link_weights(topo, weight), src, dst);
  return extract_path(topo, r, src, dst);
}

double path_cost(const Topology& topo, const Path& path,
                 const LinkWeight& weight) {
  return path_cost(topo, path, link_weights(topo, weight));
}

std::vector<Path> ecmp_paths(const Topology& topo, NodeId src, NodeId dst,
                             const LinkWeight& weight, int max_paths) {
  const std::vector<double> weights = link_weights(topo, weight);
  return ecmp_from_rows(topo, weights, src, dst,
                        dijkstra(topo, weights, src).dist,
                        dijkstra(topo, weights, dst).dist, max_paths);
}

std::vector<Path> k_shortest_paths(const Topology& topo, NodeId src,
                                   NodeId dst, const LinkWeight& weight,
                                   int k) {
  return yen(topo, link_weights(topo, weight), src, dst, k);
}

PathDatabase::PathDatabase(const Topology& topo, int paths_per_pair,
                           const LinkWeight& weight)
    : topo_(topo),
      paths_per_pair_(paths_per_pair),
      weights_(link_weights(topo, weight)),
      rows_(static_cast<std::size_t>(topo.node_count())) {}

NodeId PathDatabase::anchor(NodeId node, NodeId other) const {
  const std::vector<LinkId>& links = topo_.links_of(node);
  if (node == other || links.size() != 1) return node;
  NodeId neighbour = topo_.link(links.front()).other(node);
  return neighbour == other ? node : neighbour;
}

const std::vector<double>& PathDatabase::row(NodeId node) {
  std::vector<double>& r = rows_[static_cast<std::size_t>(node)];
  if (r.empty()) r = dijkstra(topo_, weights_, node).dist;
  return r;
}

const std::vector<Path>& PathDatabase::paths(NodeId src, NodeId dst) {
  std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)) << 32) |
      static_cast<std::uint32_t>(dst);
  auto it = cache_.find(key);
  if (it != cache_.end()) return it->second;
  const NodeId from = anchor(src, dst);
  const NodeId to = anchor(dst, src);
  std::vector<Path> paths = ecmp_from_rows(topo_, weights_, from, to,
                                           row(from), row(to),
                                           paths_per_pair_);
  for (Path& p : paths) {
    if (from != src) p.insert(p.begin(), src);
    if (to != dst) p.push_back(dst);
  }
  if (static_cast<int>(paths.size()) < paths_per_pair_) {
    for (Path& p : yen(topo_, weights_, src, dst, paths_per_pair_)) {
      if (std::find(paths.begin(), paths.end(), p) == paths.end())
        paths.push_back(std::move(p));
      if (static_cast<int>(paths.size()) >= paths_per_pair_) break;
    }
  }
  return cache_.emplace(key, std::move(paths)).first->second;
}

}  // namespace hermes::net
