#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "calib.h"

namespace perfbench {

namespace {

bool heap_less(std::int64_t a, std::int64_t b) { return a > b; }

}  // namespace

int Tracer::name(std::string_view n) {
  for (std::size_t i = 0; i < stats_.size(); ++i)
    if (stats_[i].name == n) return static_cast<int>(i);
  stats_.push_back(Stat{std::string(n), 0, 0, 0, 0, {}});
  return static_cast<int>(stats_.size() - 1);
}

void Tracer::op_begin(std::uint64_t op) {
  op_ = op;
  op_spans_.clear();
  in_op_ = true;
  op_start_ = mono_ns();
}

void Tracer::op_end() {
  const std::int64_t duration = mono_ns() - op_start_;
  in_op_ = false;
  auto cmp = [](const Exemplar& a, const Exemplar& b) {
    return heap_less(a.duration, b.duration);
  };
  if (worst_.size() < static_cast<std::size_t>(kWorstK)) {
    worst_.push_back({op_, duration, op_spans_});
    std::push_heap(worst_.begin(), worst_.end(), cmp);
  } else if (duration > worst_.front().duration) {
    std::pop_heap(worst_.begin(), worst_.end(), cmp);
    worst_.back() = {op_, duration, op_spans_};
    std::push_heap(worst_.begin(), worst_.end(), cmp);
  }
}

void Tracer::begin(int name_id) {
  Open o;
  o.name = name_id;
  if (in_op_ && op_spans_.size() < kMaxSpansPerOp) {
    o.record = static_cast<int>(op_spans_.size());
    int parent = -1;
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it)
      if (it->record >= 0) {
        parent = it->record;
        break;
      }
    op_spans_.push_back({name_id, 0, 0, parent});
  }
  o.start = mono_ns();
  if (o.record >= 0) op_spans_[static_cast<std::size_t>(o.record)].start = o.start;
  stack_.push_back(o);
}

void Tracer::end() {
  const std::int64_t now = mono_ns();
  Open o = stack_.back();
  stack_.pop_back();
  const double dur = static_cast<double>(now - o.start);
  Stat& s = stats_[static_cast<std::size_t>(o.name)];
  ++s.count;
  s.total_ns += dur;
  s.self_ns += dur - o.child_ns;
  s.max_ns = std::max(s.max_ns, dur);
  s.durations.push_back(static_cast<float>(dur));
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (o.record >= 0) op_spans_[static_cast<std::size_t>(o.record)].end = now;
}

const Tracer::Stat& Tracer::stat(std::string_view n) const {
  static const Stat kEmpty;
  for (const Stat& s : stats_)
    if (s.name == n) return s;
  return kEmpty;
}

double Tracer::percentile_ns(std::string_view n, double q) const {
  std::vector<float> v = stat(n).durations;
  if (v.empty()) return 0;
  std::size_t k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()))) ;
  k = k == 0 ? 0 : k - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

std::string Tracer::artifact_json(double ns_scale) const {
  std::string out = "{\n  \"ns_scale\": ";
  char buf[256];
  std::snprintf(buf, sizeof buf, "%.6f", ns_scale);
  out += buf;
  out += ",\n  \"spans\": {";
  bool first = true;
  for (const Stat& s : stats_) {
    if (s.count == 0) continue;
    // log2 histogram of durations in ns: bucket b holds [2^b, 2^(b+1)).
    std::vector<std::uint64_t> hist(40, 0);
    for (float d : s.durations) {
      int b = d < 1 ? 0 : static_cast<int>(std::log2(d));
      hist[static_cast<std::size_t>(std::clamp(b, 0, 39))]++;
    }
    while (!hist.empty() && hist.back() == 0) hist.pop_back();
    std::snprintf(buf, sizeof buf,
                  "%s\n    \"%s\": {\"count\": %llu, \"total_ns\": %.0f, "
                  "\"self_ns\": %.0f, \"max_ns\": %.0f, \"log2_hist\": [",
                  first ? "" : ",", s.name.c_str(),
                  static_cast<unsigned long long>(s.count), s.total_ns,
                  s.self_ns, s.max_ns);
    out += buf;
    for (std::size_t i = 0; i < hist.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%llu", i ? ", " : "",
                    static_cast<unsigned long long>(hist[i]));
      out += buf;
    }
    out += "]}";
    first = false;
  }
  out += "\n  },\n  \"worst_ops\": [";
  std::vector<Exemplar> worst = worst_;
  std::sort(worst.begin(), worst.end(), [](const Exemplar& a, const Exemplar& b) {
    return a.duration > b.duration;
  });
  for (std::size_t i = 0; i < worst.size(); ++i) {
    const Exemplar& e = worst[i];
    std::snprintf(buf, sizeof buf, "%s\n    {\"op\": %llu, \"duration_ns\": %lld, \"spans\": [",
                  i ? "," : "", static_cast<unsigned long long>(e.op),
                  static_cast<long long>(e.duration));
    out += buf;
    const std::int64_t base = e.spans.empty() ? 0 : e.spans.front().start;
    for (std::size_t j = 0; j < e.spans.size(); ++j) {
      const Record& r = e.spans[j];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                    "\"parent\": %d}",
                    j ? ", " : "", stats_[static_cast<std::size_t>(r.name)].name.c_str(),
                    static_cast<long long>(r.start - base),
                    static_cast<long long>(r.end - base), r.parent);
      out += buf;
    }
    out += "]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace perfbench
