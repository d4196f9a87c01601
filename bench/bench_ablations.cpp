// Ablations of the design choices DESIGN.md calls out (not a paper
// figure; this quantifies why each mechanism exists):
//
//   A1  Section 4.2 lowest-priority optimization on/off
//   A2  batched migration (Section 5.2 optimizers) vs per-rule reinsertion
//   A4  shadow operating watermark sweep
//   A5  Hermes vs ShadowSwitch (hardware vs software shadow, Section 9)
//
// No A3: toggling Algorithm 1's Merge step changes nothing for prefix
// rules, whose cuts are already a minimal cover
// (PartitionProperty.PiecesAreExactResidualCover pins that).
#include <algorithm>
#include <cstdio>

#include "baselines/hermes_backend.h"
#include "baselines/shadow_switch.h"
#include "bench/common.h"
#include "tcam/switch_model.h"
#include "workloads/bgp.h"
#include "workloads/microbench.h"

namespace {

using namespace hermes;

core::HermesConfig base_config() {
  core::HermesConfig config;
  config.guarantee = from_millis(5);
  config.token_rate = 1e9;
  config.token_burst = 1e9;
  return config;
}

struct RunStats {
  double mean_op_ms = 0;
  double p99_op_ms = 0;
  std::uint64_t pieces = 0;
  std::uint64_t migrations = 0;
  std::uint64_t violations = 0;
  double main_channel_busy_ms = 0;
};

RunStats run(const core::HermesConfig& config,
             const workloads::RuleTrace& trace, int capacity = 32768) {
  baselines::HermesBackend backend(tcam::pica8_p3290(), capacity, config);
  bench::replay(backend, trace);
  RunStats out;
  auto ops = bench::to_ms(backend.agent().op_latency_samples());
  double total = 0;
  for (double v : ops) total += v;
  out.mean_op_ms = ops.empty() ? 0 : total / static_cast<double>(ops.size());
  out.p99_op_ms = sim::percentile(ops, 0.99);
  out.pieces = backend.agent().stats().partition_pieces;
  out.migrations = backend.agent().stats().migrations;
  out.violations = backend.agent().stats().violations;
  out.main_channel_busy_ms =
      to_millis(backend.agent().asic().busy_until(1));
  return out;
}

workloads::RuleTrace overlap_trace(int count = 4000, double rate = 800,
                                   double overlap = 0.8) {
  workloads::MicroBenchConfig mb;
  mb.count = count;
  mb.rate = rate;
  mb.overlap_rate = overlap;
  mb.seed = 2024;
  return workloads::microbench_trace(mb);
}

}  // namespace

int main() {
  auto& rep = bench::report::open("ablations", "ms");
  bench::header("Ablations of Hermes's design choices");
  auto trace = overlap_trace();
  std::printf("workload: %zu inserts at 800/s, 80%% overlap, Pica8\n",
              trace.size());

  // A1: lowest-priority optimization. The BGP FIB trace has lots of
  // bottom-of-table inserts (short prefixes = low LPM priority).
  {
    workloads::BgpFeedConfig bgp = workloads::nwax_portland();
    bgp.duration_s = 30;
    bgp.prefix_count = 1500;
    auto fib = workloads::fib_trace(workloads::bgp_feed(bgp));
    core::HermesConfig on = base_config();
    core::HermesConfig off = base_config();
    off.lowest_priority_optimization = false;
    RunStats with = run(on, fib);
    RunStats without = run(off, fib);
    rep.row()
        .label("ablation", "A1_lowest_priority")
        .label("variant", "on")
        .value("pieces", static_cast<double>(with.pieces))
        .value("migrations", static_cast<double>(with.migrations))
        .value("mean_op_ms", with.mean_op_ms);
    rep.row()
        .label("ablation", "A1_lowest_priority")
        .label("variant", "off")
        .value("pieces", static_cast<double>(without.pieces))
        .value("migrations", static_cast<double>(without.migrations))
        .value("mean_op_ms", without.mean_op_ms);
    std::printf("\nA1 lowest-priority optimization (BGP FIB trace, "
                "Section 4.2):\n");
    std::printf("  %-10s pieces=%6llu migrations=%4llu mean-op=%.3fms\n",
                "on", static_cast<unsigned long long>(with.pieces),
                static_cast<unsigned long long>(with.migrations),
                with.mean_op_ms);
    std::printf("  %-10s pieces=%6llu migrations=%4llu mean-op=%.3fms\n",
                "off", static_cast<unsigned long long>(without.pieces),
                static_cast<unsigned long long>(without.migrations),
                without.mean_op_ms);
  }

  // A2: batched vs per-rule migration.
  {
    core::HermesConfig batched = base_config();
    core::HermesConfig per_rule = base_config();
    per_rule.batched_migration = false;
    RunStats fast = run(batched, trace);
    RunStats slow = run(per_rule, trace);
    rep.derived("A2_channel_time_ratio_per_rule_vs_batched",
                slow.main_channel_busy_ms /
                    std::max(1.0, fast.main_channel_busy_ms));
    std::printf("\nA2 migration write strategy (Section 5.2 step 2):\n");
    std::printf("  batched:  main-channel busy %.1f ms, %llu migrations\n",
                fast.main_channel_busy_ms,
                static_cast<unsigned long long>(fast.migrations));
    std::printf("  per-rule: main-channel busy %.1f ms, %llu migrations "
                "(%.0fx more channel time)\n",
                slow.main_channel_busy_ms,
                static_cast<unsigned long long>(slow.migrations),
                slow.main_channel_busy_ms /
                    std::max(1.0, fast.main_channel_busy_ms));
  }

  // A4: watermark sweep.
  {
    std::printf("\nA4 shadow operating watermark:\n");
    std::printf("  %-10s %12s %12s %12s\n", "watermark", "mean-op (ms)",
                "migrations", "violations");
    for (double w : {0.125, 0.25, 0.5, 0.75, 1.0}) {
      core::HermesConfig config = base_config();
      config.migration_watermark = w;
      RunStats stats = run(config, trace);
      std::printf("  %9.3f %12.3f %12llu %12llu\n", w, stats.mean_op_ms,
                  static_cast<unsigned long long>(stats.migrations),
                  static_cast<unsigned long long>(stats.violations));
      rep.row()
          .label("ablation", "A4_watermark")
          .value("watermark", w)
          .value("mean_op_ms", stats.mean_op_ms)
          .value("migrations", static_cast<double>(stats.migrations))
          .value("violations", static_cast<double>(stats.violations));
    }
  }

  // A5: hardware shadow (Hermes) vs software shadow (ShadowSwitch).
  {
    baselines::ShadowSwitchBackend ss(tcam::pica8_p3290(), 32768);
    auto ss_ms = bench::replay(ss, trace);
    core::HermesConfig config = base_config();
    RunStats hermes_stats = run(config, trace);
    std::printf("\nA5 hardware vs software shadow (Section 9):\n");
    bench::print_summary_line("ShadowSwitch control RIT", ss_ms, "ms");
    std::printf("  Hermes mean-op %.3f ms — ShadowSwitch wins on raw "
                "control latency, but leaves %d rules on the SLOW "
                "software data path at end of run (Hermes: 0 — every rule "
                "is always in hardware)\n",
                hermes_stats.mean_op_ms, ss.software_resident());
  }
  rep.write();
  return 0;
}
