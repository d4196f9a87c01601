// Checkpoint probes for the traced run: fixed, read-only calls into the
// inner layers (TcamTable, LookupEngine, OverlapIndex, Algorithm 1) on the
// live state of the system under test. The caller pauses the calibrated
// clock around them, so they never count as workload time.
#pragma once

#include <cstdint>

#include "hermes/overlap_index.h"
#include "tcam/tcam_table.h"

namespace perfbench {

struct ProbeTotals {
  int probes = 0;
  double find_us = 0;          ///< TcamTable::find, mean per call
  double lookup_ns = 0;        ///< LookupEngine::lookup, mean per call
  double buckets_probed = 0;   ///< non-empty length buckets per lookup
  double closure_query_us = 0; ///< OverlapIndex::overlapping, >= priority
  double closure_rules = 0;    ///< rules such a query returns
  double partition_us = 0;     ///< partition_new_rule against the index
  std::uint64_t sink = 0;

  /// Probes `table` once: samples its rules by `salt`, times each call
  /// with the monotonic clock and accumulates the per-call means. The
  /// overlap queries run against `index`, or against an index of the
  /// table's rules when it is null.
  void probe(const hermes::tcam::TcamTable& table,
             const hermes::core::OverlapIndex* index, std::uint64_t salt);
  double mean(double total) const { return probes ? total / probes : 0; }
};

}  // namespace perfbench
