// Mechanical model of a single TCAM table (one slice).
//
// A TCAM stores entries in physical slot order and returns the FIRST
// matching slot on lookup. Switch firmware keeps the table compact and
// priority-sorted: inserting a rule "in the middle" shifts every entry
// below the insertion point down one slot — this movement is exactly what
// makes TCAM insertions slow and occupancy-dependent (Section 2.1, and
// the Table 1 measurements, where insert cost keeps tracking occupancy
// regardless of prior deletions). Deletions just invalidate an entry; the
// firmware compacts in the background, which is why deletes are fast and
// occupancy-independent (Section 2.1.1).
//
// Bookkeeping cost model: the priority-ordered `entries_` array is the
// ground truth for shift counts (the hardware mechanics), while an id
// index replaces full-array scans in the agent-side bookkeeping
// operations (`contains`/`find_ptr`/`erase`/`modify_*`). Each slot also
// carries a 32-bit arrival stamp, in `stamps_` beside `entries_`, and the
// index maps id -> {priority, stamp}. Every insert and batch lands below
// the equal-priority residents with fresh, rising stamps, so slot order
// is exactly (priority descending, stamp ascending): membership is O(1)
// and locating a slot is one O(log n) binary search on that pair, however
// long the equal-priority run. The index stores the key, not the slot,
// because a slot index would be invalidated by every splice (each
// insert/erase shifts the whole suffix), while the key never moves with
// the entry. When the per-table stamp counter would wrap, the table
// renumbers every slot 0..n-1 in slot order, which keeps the order. The
// index never changes placement or shift semantics.
//
// This class models the mechanics (placement and shift counts);
// converting shift counts to latency is the job of tcam::SwitchModel.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "net/rule.h"
#include "obs/metrics.h"
#include "tcam/lookup_engine.h"

namespace hermes::tcam {

/// Outcome of a table operation. `shifts` is the number of existing
/// entries the hardware had to move to make room (0 for deletes/modifies).
struct OpResult {
  bool ok = false;
  int shifts = 0;
};

/// Cumulative operation statistics, for overhead accounting (Fig 15).
struct TableStats {
  std::uint64_t inserts = 0;
  std::uint64_t deletes = 0;
  std::uint64_t modifies = 0;
  std::uint64_t failed_inserts = 0;
  std::uint64_t total_shifts = 0;
  std::uint64_t lookups = 0;
};

class TcamTable {
 public:
  explicit TcamTable(int capacity);

  int capacity() const { return capacity_; }

  /// Re-sizes the slice's entry budget (TCAM re-carving; the
  /// expand-partition migration action rides on this). Refuses to shrink
  /// below the current occupancy — resident entries are never dropped.
  bool set_capacity(int capacity) {
    if (capacity < occupancy()) return false;
    capacity_ = capacity;
    return true;
  }
  int occupancy() const { return static_cast<int>(entries_.size()); }
  bool full() const { return occupancy() == capacity_; }
  bool empty() const { return entries_.empty(); }

  /// Inserts `rule`, maintaining the priority-order invariant.
  ///
  /// Placement: after every entry with priority >= rule.priority (so
  /// equal-priority rules keep arrival order and a new lowest-priority
  /// rule appends for free). Every entry below the insertion point shifts
  /// down one slot. Fails iff the table is full or the id already exists.
  OpResult insert(const net::Rule& rule);

  /// Outcome of a batched insert: how many rules landed and the shifts
  /// the hardware would have charged inserting them one at a time.
  struct BatchInsertResult {
    int inserted = 0;
    int failed = 0;
    std::uint64_t total_shifts = 0;
  };

  /// Inserts `rules` in one single-pass placement: the accepted rules are
  /// merged into the entry array with ONE backward memmove-style sweep,
  /// so each resident entry moves at most once instead of once per rule.
  ///
  /// Semantics are bit-identical to calling insert() per rule in batch
  /// order — same final array, same per-rule shift counts, same stats —
  /// only the bookkeeping cost changes. A rule fails exactly when the
  /// sequential call would have (duplicate id, including duplicates
  /// earlier in the batch, or no free slot at its turn).
  ///
  /// With `stop_at_first_failure` the batch mirrors a sequential loop
  /// that breaks on the first failed insert (the Asic batch-write
  /// contract: only the prefix lands): the first failing rule is charged
  /// as a failed insert, later rules are not attempted and their per-op
  /// slot reads {false, 0} without touching stats.
  ///
  /// `per_op`, when non-null, is resized to rules.size() and filled with
  /// the OpResult each sequential insert would have returned.
  BatchInsertResult insert_batch(std::span<const net::Rule> rules,
                                 std::vector<OpResult>* per_op = nullptr,
                                 bool stop_at_first_failure = false);

  /// Removes the rule with `id`. No charged movement (background
  /// compaction), hence `shifts` is always 0. Indexed slot location; the
  /// entry splice still pays for the slots below it.
  OpResult erase(net::RuleId id);

  /// Removes every listed id (missing and repeated ids are skipped) and
  /// returns how many were removed. Same final table and stats as one
  /// erase() per id, but the gaps close in ONE pass, so each remaining
  /// entry moves at most once whatever the order of `ids`.
  int erase_batch(std::span<const net::RuleId> ids);

  /// In-place modification of action (indexed lookup). Fails if absent.
  OpResult modify_action(net::RuleId id, const net::Action& action);

  /// In-place modification of the match without priority change
  /// (indexed lookup, Section 2.1.1). Fails if absent.
  OpResult modify_match(net::RuleId id, const net::Prefix& match);

  /// First-match lookup (what the hardware does). Returns the matching
  /// rule closest to the top, which by the invariant is a highest-priority
  /// match, or nullptr. Served by the tuple-space LookupEngine (maintained
  /// incrementally by every mutation — never rebuilt). Counts toward
  /// stats and the tcam.lookup.* metrics. The pointer is invalidated by
  /// any table mutation; use it immediately.
  const net::Rule* lookup_ptr(net::Ipv4Address addr);
  /// Linear first-match scan without statistics side effects — the
  /// frozen reference semantics, kept as the differential-test oracle
  /// for the engine (tests/tcam/lookup_engine_test.cpp).
  std::optional<net::Rule> peek(net::Ipv4Address addr) const;

  /// O(1) id membership test via the id index.
  bool contains(net::RuleId id) const;
  /// Indexed id lookup (O(log n)), or nullptr. The pointer is invalidated
  /// by any table mutation; use it immediately.
  const net::Rule* find_ptr(net::RuleId id) const;

  /// Highest resident priority (first slot); 0 when empty.
  int max_priority() const {
    return entries_.empty() ? 0 : entries_.front().priority;
  }
  /// Lowest resident priority (last slot); 0 when empty.
  int min_priority() const {
    return entries_.empty() ? 0 : entries_.back().priority;
  }

  /// Zero-copy view of the table, top-to-bottom physical order. The
  /// reference is invalidated by any table mutation.
  const std::vector<net::Rule>& rules_view() const { return entries_; }

  /// Removes every entry (bulk slice reset, no charged movement).
  void clear();

  const TableStats& stats() const { return stats_; }

  /// Validates the physical-order invariant, id-index <-> array
  /// agreement (each index key equals its slot's priority and stamp, and
  /// stamps strictly rise within each priority run) and lookup-engine <->
  /// array agreement; used by tests.
  bool check_invariant() const;

  /// The classification engine backing lookup_ptr() (exposed
  /// read-only for tests and benches).
  const LookupEngine& engine() const { return engine_; }

 private:
  // White-box seam for tests that need the stamp counter near its wrap.
  friend struct TcamTableTestPeer;

  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// An id's place in slot order.
  struct SlotKey {
    int priority;
    std::uint32_t stamp;
  };

  /// Slot of `id`: one binary search on (priority descending, stamp
  /// ascending). Returns kNoSlot when absent.
  std::size_t locate(net::RuleId id) const;
  /// Reserves `count` consecutive stamps above every resident one and
  /// returns the first; renumbers the slots first if the counter would
  /// wrap.
  std::uint32_t take_stamps(std::uint32_t count);

  int capacity_;
  std::vector<net::Rule> entries_;  // compact, non-increasing priority
  std::vector<std::uint32_t> stamps_;  // arrival stamp of each slot
  std::unordered_map<net::RuleId, SlotKey> key_of_;
  std::uint32_t next_stamp_ = 0;
  LookupEngine engine_;     // classification index over entries_
  std::uint64_t seq_ = 0;   // arrival stamps for the engine's tie-break
  TableStats stats_;

  // Pipeline-wide aggregate counters (obs layer). Captured from the
  // process-attached registry at construction; detached no-op handles —
  // one predicted branch per op — when none is attached. The per-table
  // TableStats above stays the exact per-instance view.
  obs::Counter obs_inserts_ = obs::attached_counter("tcam.inserts");
  obs::Counter obs_deletes_ = obs::attached_counter("tcam.deletes");
  obs::Counter obs_modifies_ = obs::attached_counter("tcam.modifies");
  obs::Counter obs_failed_inserts_ =
      obs::attached_counter("tcam.failed_inserts");
  obs::Counter obs_shifts_ = obs::attached_counter("tcam.shifts");
  obs::Counter obs_lookups_ = obs::attached_counter("tcam.lookups");
  obs::Counter obs_lookup_hits_ = obs::attached_counter("tcam.lookup.hits");
  obs::Counter obs_lookup_misses_ =
      obs::attached_counter("tcam.lookup.misses");
  obs::Histogram obs_lookup_probes_ =
      obs::attached_histogram("tcam.lookup.buckets_probed");
  obs::Histogram obs_batch_size_ =
      obs::attached_histogram("tcam.batch_insert_size");
};

}  // namespace hermes::tcam
