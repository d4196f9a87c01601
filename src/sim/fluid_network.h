// Flow-level (fluid) network model with max-min fair bandwidth sharing —
// the data-plane half of the Varys simulator (Section 8.1.1).
//
// Flows are fluid: each active flow drains at the max-min fair rate its
// path permits. Whenever the flow set or any path changes, rates are
// recomputed by progressive filling; between changes every flow's
// remaining volume shrinks linearly, so the next completion time is
// exact, not approximated.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/time.h"
#include "net/topology.h"

namespace hermes::sim {

using FlowId = int;
inline constexpr FlowId kInvalidFlow = -1;

class FluidNetwork {
 public:
  explicit FluidNetwork(const net::Topology& topology);

  /// A flow to register: its volume and the links of its path.
  struct NewFlow {
    double bytes = 0;
    std::vector<net::LinkId> links;
  };

  /// Registers `flows` at one instant with one rate recomputation. They
  /// get consecutive ids in input order; returns the first. The caller
  /// must have advanced the network to `now` (all mutators require it).
  FlowId add_flows(std::vector<NewFlow> flows, Time now);

  /// add_flows() of one flow of `bytes` over `links`.
  FlowId add_flow(double bytes, const std::vector<net::LinkId>& links,
                  Time now);

  /// Removes a flow (completion or cancellation).
  void remove_flow(FlowId id, Time now);

  /// Moves a flow onto a different set of links (TE reroute).
  void reroute_flow(FlowId id, const std::vector<net::LinkId>& links,
                    Time now);

  /// Drains all flows up to `now` at their current rates. Monotone.
  void advance_to(Time now);

  /// The earliest upcoming completion under current rates.
  struct NextCompletion {
    FlowId flow = kInvalidFlow;
    Time time = 0;
  };
  std::optional<NextCompletion> next_completion() const;

  double remaining_bytes(FlowId id) const;
  double rate_bytes_per_s(FlowId id) const;
  const std::vector<net::LinkId>& links_of(FlowId id) const;

  /// Fraction of link capacity currently in use, in [0, 1].
  double link_utilization(net::LinkId link) const;
  /// Utilization of every link in one pass (for the TE scan).
  std::vector<double> all_link_utilization() const;
  /// Active flows traversing `link`.
  std::vector<FlowId> flows_on_link(net::LinkId link) const;

  int active_flow_count() const { return static_cast<int>(flows_.size()); }

 private:
  static constexpr std::uint32_t kNoSlot = static_cast<std::uint32_t>(-1);

  struct FlowState {
    double remaining = 0;
    double rate = 0;  // bytes/s
    std::vector<net::LinkId> links;
    // Progressive-filling scratch: whether the flow's rate is final, and
    // while the heap is built, the slot of its least private link.
    bool frozen = false;
    std::uint32_t least_private = kNoSlot;
  };

  /// One link's progressive-filling state: residual capacity, unfrozen
  /// crossings, the last filling round that changed it, and its slot in
  /// heap_ (kNoSlot when not there).
  struct LinkState {
    double residual = 0;
    int unfrozen = 0;
    std::uint32_t slot = kNoSlot;
    std::uint64_t round = 0;
  };

  /// A heap_ entry: (fair share, link id).
  using Entry = std::pair<double, net::LinkId>;

  void recompute_rates();

  // heap_ is a 4-ary min-heap on (share, link id) that keeps every
  // entry's slot in its LinkState.
  void build_heap();
  void place(std::size_t i, const Entry& e);
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Re-keys a link in the heap to `share`.
  void rekey(net::LinkId link, double share);
  /// Takes a link out of the heap.
  void erase_from_heap(net::LinkId link);

  const net::Topology* topology_;
  std::vector<double> link_capacity_;  // bytes/s per link
  // Iteration order of flows_ is the summation order of
  // all_link_utilization(), which the TE app compares against thresholds.
  std::unordered_map<FlowId, FlowState> flows_;
  FlowId next_id_ = 0;
  Time last_advance_ = 0;

  // Progressive-filling scratch, sized per link and reused across
  // recompute_rates() calls: the flows crossing each link (one entry per
  // crossing) and its state; the links in use, the links the current
  // round changed, and the heap of live links that can be a bottleneck.
  std::vector<std::vector<FlowState*>> link_flows_;
  std::vector<LinkState> links_;
  std::uint64_t round_ = 0;
  std::vector<net::LinkId> used_links_;
  std::vector<net::LinkId> touched_;
  std::vector<Entry> heap_;
};

}  // namespace hermes::sim
