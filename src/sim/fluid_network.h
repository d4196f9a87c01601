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
  struct FlowState {
    double remaining = 0;
    double rate = 0;  // bytes/s
    std::vector<net::LinkId> links;
    bool frozen = false;  // progressive-filling scratch
  };

  void recompute_rates();

  /// Indexed 4-ary min-heap of the live links of a filling (links with
  /// unfrozen crossings), one entry each, keyed on (fair share, link id).
  class LinkHeap {
   public:
    using Entry = std::pair<double, net::LinkId>;

    /// Sizes the position index for link ids in [0, links).
    void resize(std::size_t links) { pos_.assign(links, kAbsent); }
    /// Empties the heap.
    void clear();
    /// Adds a link that is not in the heap.
    void push(const Entry& e);
    bool empty() const { return heap_.empty(); }
    /// The least (share, link id).
    const Entry& top() const { return heap_.front(); }
    /// Re-keys a link in the heap to `share`.
    void update(net::LinkId link, double share);
    /// Takes a link out of the heap.
    void erase(net::LinkId link);

   private:
    static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
    void place(std::size_t i, const Entry& e);
    void sift_up(std::size_t i);
    void sift_down(std::size_t i);

    std::vector<Entry> heap_;
    std::vector<std::size_t> pos_;  // by LinkId; kAbsent when not in heap_
  };

  const net::Topology* topology_;
  std::vector<double> link_capacity_;  // bytes/s per link
  // Iteration order of flows_ is the summation order of
  // all_link_utilization(), which the TE app compares against thresholds.
  std::unordered_map<FlowId, FlowState> flows_;
  FlowId next_id_ = 0;
  Time last_advance_ = 0;

  // Progressive-filling scratch, sized per link and reused across
  // recompute_rates() calls: the flows crossing each link (one entry per
  // crossing), its residual capacity, unfrozen crossings and the last
  // filling round that changed it; the links in use, the links the
  // current round changed, and the live links.
  std::vector<std::vector<FlowState*>> link_flows_;
  std::vector<double> residual_;
  std::vector<int> unfrozen_;
  std::vector<std::uint64_t> round_of_;
  std::uint64_t round_ = 0;
  std::vector<net::LinkId> used_links_;
  std::vector<net::LinkId> touched_;
  LinkHeap live_;
};

}  // namespace hermes::sim
