// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <fib_churn|flow_cache|te_fattree> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//   perfbench --calib-selftest
//
// Prints every metric by name with its unit and sample count, the
// deterministic digest, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 the run is repeated
// with spans and probes attached and the metrics are the per-layer set.
// Exits non-zero when any op failed or any output was wrong.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t scaled_ops(double seconds, double per_second, std::uint64_t floor) {
  const auto n = static_cast<std::uint64_t>(std::llround(seconds * per_second));
  return n < floor ? floor : n;
}

}  // namespace perfbench

namespace {

/// The traced run's result metrics (BENCHMARK.json "per_layer"): the
/// per-layer figures every workload reports under one name.
const char* const kPerLayer[] = {
    "setup.construct_s",
    "setup.preload_s",
    "setup.warm_s",
    "request.us_p50",
    "request.us_p99",
    "request.cpu_share",
    "tick.cpu_share",
    "outside.cpu_share",
    "tick.us_mean",
    "tick.us_max",
    "lookup_engine.lookup_ns",
    "lookup_engine.buckets_probed_mean",
    "tcam_table.find_us",
    "overlap_index.closure_query_us",
    "overlap_index.closure_query_rules",
    "partition.call_us",
    "tcam_table.shifts_per_insert",
    "tcam_table.main_fill",
    "asic.busy_ratio",
    "gate_keeper.guaranteed_share",
    "rule_manager.migrations",
    "cache.promotions_per_kpkt",
    "trace.overhead_share",
    "run.calibration_factor",
};

using perfbench::Context;
using perfbench::Metric;
using perfbench::Result;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fib_churn|flow_cache|te_fattree> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

Result run_workload(Context& ctx) {
  if (ctx.opt.workload == "fib_churn") return perfbench::run_fib_churn(ctx);
  if (ctx.opt.workload == "flow_cache") return perfbench::run_flow_cache(ctx);
  return perfbench::run_te_fattree(ctx);
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_metrics(const std::map<std::string, Metric>& m) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, v] : m) {
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + json_number(v.value) +
           ", \"unit\": \"" + v.unit + "\"}";
    first = false;
  }
  return out + "}";
}

void print_metrics(const char* kind, const std::map<std::string, Metric>& m) {
  for (const auto& [name, v] : m)
    std::printf("%-8s %-40s %16.6g %-9s n=%llu\n", kind, name.c_str(), v.value,
                v.unit.c_str(), static_cast<unsigned long long>(v.samples));
}

/// Calibration self-test: the reference kernel's time between a tiny
/// register-only loop and between random touches of a 256 MiB buffer
/// (alternating, so both see the same machine drift). A kernel that does
/// not depend on the program's cache footprint reads the same under both.
int calib_selftest() {
  perfbench::RefKernel kernel;
  std::vector<std::uint64_t> big((std::size_t{256} << 20) / sizeof(std::uint64_t));
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = i;
  std::vector<double> tiny, large;
  std::uint64_t s = 0x2545F4914F6CDD1Dull, sink = 0;
  auto next = [&s] {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  };
  for (int i = 0; i < 60; ++i) {
    for (int j = 0; j < (1 << 19); ++j) sink += next() & 1;
    tiny.push_back(kernel.sample());
    for (int j = 0; j < (1 << 19); ++j) big[next() % big.size()] += 1;
    large.push_back(kernel.sample());
  }
  auto q = [](std::vector<double> v, double p) { return perfbench::percentile(v, p); };
  const double tm = q(tiny, 0.5), lm = q(large, 0.5);
  std::printf("calib nominal_ms %.4f\n", perfbench::RefKernel::kNominalNs * 1e-6);
  std::printf("calib tiny_dummy  median_ms %.4f q1 %.4f q3 %.4f iqr/median %.4f n=%zu\n",
              tm * 1e-6, q(tiny, 0.25) * 1e-6, q(tiny, 0.75) * 1e-6,
              (q(tiny, 0.75) - q(tiny, 0.25)) / tm, tiny.size());
  std::printf("calib 256MiB_dummy median_ms %.4f q1 %.4f q3 %.4f iqr/median %.4f n=%zu\n",
              lm * 1e-6, q(large, 0.25) * 1e-6, q(large, 0.75) * 1e-6,
              (q(large, 0.75) - q(large, 0.25)) / lm, large.size());
  std::printf("calib large/tiny median ratio %.4f (sink %llu)\n", lm / tm,
              static_cast<unsigned long long>(sink & 1));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--calib-selftest") == 0) return calib_selftest();
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    std::string v = argv[++i];
    if (a == "--workload") {
      opt.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v.c_str());
    } else if (a == "--trace") {
      opt.trace = v == "1";
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || opt.seconds <= 0 ||
      (opt.workload != "fib_churn" && opt.workload != "flow_cache" &&
       opt.workload != "te_fattree"))
    return usage();

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);

  // The end-to-end run (always: the traced run needs its ops_per_s for
  // trace.overhead_share).
  Context plain;
  plain.opt = opt;
  Result r = run_workload(plain);
  std::string digest = perfbench::digest_of(r);
  print_metrics("metric", r.metrics);
  print_metrics("detail", r.report);
  std::printf("digest %s\n", digest.c_str());
  std::printf("detail_json {\"digest\": \"%s\", \"metrics\": %s, \"details\": %s}\n",
              digest.c_str(), json_metrics(r.metrics).c_str(),
              json_metrics(r.report).c_str());

  Result out = r;
  if (opt.trace) {
    Context traced;
    traced.opt = opt;
    traced.tracer = std::make_unique<perfbench::Tracer>();
    hermes::obs::Registry registry;
    hermes::obs::attach(&registry);
    Result t = run_workload(traced);
    hermes::obs::attach(nullptr);
    const std::string tdigest = perfbench::digest_of(t);
    if (tdigest != digest) {
      std::printf("error: traced run digest %s differs from untraced %s\n",
                  tdigest.c_str(), digest.c_str());
      t.correct = false;
    }
    const double plain_rate = r.metrics["ops_per_s"].value;
    const double traced_rate = t.metrics["ops_per_s"].value;
    t.layer("trace.overhead_share",
            plain_rate > 0 ? 1.0 - traced_rate / plain_rate : 0, "fraction");
    print_metrics("layer", t.layers);
    mkdir(opt.out_dir.c_str(), 0755);
    const std::string path = opt.out_dir + "/trace_" + opt.workload + "_" +
                             std::to_string(opt.seed) + ".json";
    std::ofstream f(path);
    f << traced.tracer->artifact_json(t.report["run.calibration_factor"].value);
    std::printf("trace artifact %s\n", path.c_str());
    out.correct = r.correct && t.correct;
    out.failed = r.failed + t.failed;
    out.metrics.clear();
    for (const char* name : kPerLayer) {
      auto it = t.layers.find(name);
      if (it == t.layers.end()) {
        std::printf("error: per-layer metric %s missing\n", name);
        out.correct = false;
        continue;
      }
      out.metrics[name] = it->second;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              json_metrics(out.metrics).c_str());
  std::fflush(stdout);
  return out.correct && out.failed == 0 ? 0 : 1;
}
