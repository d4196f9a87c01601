// Span recorder for the traced run.
//
// The benchmark wraps every call it makes into a layer in a span (name,
// start, end, parent span, op id). Spans are aggregated as they close:
// per span name a count, total and self time (the span minus the time
// its child spans cover) and the duration of every span; the full span
// trees of the K slowest ops are kept as exemplars. The artifact written
// at the end holds per-name log-bucket histograms plus those K trees, so
// its size does not grow with run length.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr int kWorstK = 16;
  static constexpr std::size_t kMaxSpansPerOp = 64;

  /// Id of span name `n`, registered on first use.
  int name(std::string_view n);

  /// Opens / closes a top-level op; spans in between belong to it.
  void op_begin(std::uint64_t op);
  void op_end();

  void begin(int name_id);
  void end();

  class Span {
   public:
    Span(Tracer* t, int name_id) : t_(t) {
      if (t_ != nullptr) t_->begin(name_id);
    }
    ~Span() {
      if (t_ != nullptr) t_->end();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* t_;
  };

  struct Stat {
    std::string name;
    std::uint64_t count = 0;
    double total_ns = 0;
    double self_ns = 0;
    double max_ns = 0;
    std::vector<float> durations;  ///< every span's duration, ns
  };
  /// Stat for `n` (an empty one if the name never closed a span).
  const Stat& stat(std::string_view n) const;
  /// Percentile q of span `n`'s durations, in ns (0 if none).
  double percentile_ns(std::string_view n, double q) const;

  /// Bounded JSON artifact: per-name summary and log2 histogram, plus the
  /// span trees of the kWorstK slowest ops.
  std::string artifact_json(double ns_scale) const;

 private:
  struct Open {
    int name = 0;
    std::int64_t start = 0;
    double child_ns = 0;
    int record = -1;  ///< index into op_spans_, or -1 when not recorded
  };
  struct Record {
    int name = 0;
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;  ///< index of the parent record in the same op
  };
  struct Exemplar {
    std::uint64_t op = 0;
    std::int64_t duration = 0;
    std::vector<Record> spans;
  };

  std::vector<Stat> stats_;
  std::vector<Open> stack_;
  std::vector<Record> op_spans_;
  std::uint64_t op_ = 0;
  std::int64_t op_start_ = 0;
  bool in_op_ = false;
  std::vector<Exemplar> worst_;  ///< min-heap on duration
};

}  // namespace perfbench
