#include "probes.h"

#include <vector>

#include "calib.h"
#include "hermes/overlap_index.h"
#include "hermes/partition.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSamples = 256;

}  // namespace

void ProbeTotals::probe(const hermes::tcam::TcamTable& table,
                        const hermes::core::OverlapIndex* index, std::uint64_t salt) {
  namespace net = hermes::net;
  const std::vector<net::Rule>& rules = table.rules_view();
  if (rules.empty()) return;
  std::vector<const net::Rule*> sample;
  for (int i = 0; i < kSamples; ++i)
    sample.push_back(&rules[mix_seed(salt, static_cast<std::uint64_t>(i)) % rules.size()]);

  std::int64_t t0 = mono_ns();
  std::uint64_t found = 0;
  for (const net::Rule* r : sample) found += table.find_ptr(r->id) != nullptr;
  const double find = static_cast<double>(mono_ns() - t0) / kSamples;

  int probed = 0, probed_total = 0;
  t0 = mono_ns();
  for (const net::Rule* r : sample) {
    found += table.engine().lookup(r->match.address(), &probed) != nullptr;
    probed_total += probed;
  }
  const double lookup = static_cast<double>(mono_ns() - t0) / kSamples;

  // The index Algorithm 1 and the promotion closure query: by default
  // every rule of the table.
  hermes::core::OverlapIndex own;
  if (index == nullptr) {
    for (const net::Rule& r : rules) own.insert(r);
    index = &own;
  }
  std::size_t returned = 0;
  t0 = mono_ns();
  for (const net::Rule* r : sample) returned += index->overlapping(r->match, r->priority - 1).size();
  const double closure = static_cast<double>(mono_ns() - t0) / kSamples;

  // A new rule one bit shorter than the sampled one, one priority below
  // it: Algorithm 1 cuts it around the higher-priority rules inside it.
  t0 = mono_ns();
  for (const net::Rule* r : sample) {
    const int len = r->match.length() > 0 ? r->match.length() - 1 : 0;
    net::Rule fresh{net::kInvalidRuleId - 1, r->priority - 1,
                    net::Prefix(r->match.address(), len), r->action};
    found += hermes::core::partition_new_rule(fresh, *index).pieces.size();
  }
  const double partition = static_cast<double>(mono_ns() - t0) / kSamples;

  ++probes;
  find_us += find * 1e-3;
  lookup_ns += lookup;
  buckets_probed += static_cast<double>(probed_total) / kSamples;
  closure_query_us += closure * 1e-3;
  closure_rules += static_cast<double>(returned) / kSamples;
  partition_us += partition * 1e-3;
  sink += found;  // keeps the calls observable to the optimizer
}

}  // namespace perfbench
