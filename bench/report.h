// Shared machine-readable result emission for the bench harnesses.
//
// Every bench binary opens a Reporter at the top of main() and writes a
// schema-versioned BENCH_<name>.json next to its human-readable output:
//
//   auto& rep = report::open("fig08_rit");
//   rep.row().label("backend", "hermes").value("p99_ms", p99);
//   rep.derived("speedup", plain_p99 / hermes_p99);
//   rep.write();                       // -> BENCH_fig08_rit.json
//
// open() also attaches a process-wide obs::Registry, so every component
// built afterwards — TCAM slices, gate keepers, agents, simulations —
// feeds counters/histograms/trace events that write() embeds under
// "metrics". Rows produced through bench::print_summary_line are added
// automatically (see common.h).
//
// JSON document shape (schema_version 1):
//   {
//     "schema_version": 1,
//     "benchmark": "<name>",
//     "unit": "<unit of the primary value columns>",
//     "results":  [ {"<label>": "...", "<value>": 1.23, ...}, ... ],
//     "derived":  { "<metric>": 4.56, ... },
//     "metrics":  { ...obs::export_json()... } | null
//   }
// tools/bench_compare.py diffs two such documents.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace hermes::bench::report {

namespace detail {

inline void append_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

inline void append_num(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  if (v == std::floor(v) && std::fabs(v) < 9e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.10g", v);
  }
  out += buf;
}

}  // namespace detail

/// One result row: ordered label (string) and value (number) fields.
class Row {
 public:
  Row& label(std::string key, std::string value) {
    fields_.push_back({std::move(key), true, std::move(value), 0});
    return *this;
  }
  Row& value(std::string key, double v) {
    fields_.push_back({std::move(key), false, {}, v});
    return *this;
  }

 private:
  friend class Reporter;
  struct Field {
    std::string key;
    bool is_label;
    std::string s;
    double n;
  };
  std::vector<Field> fields_;
};

class Reporter {
 public:
  Reporter(std::string name, std::string unit)
      : name_(std::move(name)), unit_(std::move(unit)) {}

  const std::string& name() const { return name_; }
  void set_unit(std::string unit) { unit_ = std::move(unit); }

  /// Appends an empty row; chain label()/value() on the reference.
  Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Headline scalar (speedups, ratios) — what bench_compare gates on.
  void derived(std::string key, double value) {
    derived_.emplace_back(std::move(key), value);
  }

  /// Writes the document; empty path means "BENCH_<name>.json" in the
  /// working directory. Returns false (with a stderr note) on I/O error.
  bool write(const std::string& path = "") const {
    std::string target = path.empty() ? "BENCH_" + name_ + ".json" : path;
    std::string doc = render();
    std::FILE* f = std::fopen(target.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", target.c_str());
      return false;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", target.c_str());
    return true;
  }

  /// The document as a string (used by tests).
  std::string render() const {
    std::string out;
    out += "{\n  \"schema_version\": 1,\n  \"benchmark\": ";
    detail::append_escaped(out, name_);
    out += ",\n  \"unit\": ";
    detail::append_escaped(out, unit_);
    out += ",\n  \"results\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += i == 0 ? "\n    {" : ",\n    {";
      const auto& fields = rows_[i].fields_;
      for (std::size_t j = 0; j < fields.size(); ++j) {
        if (j > 0) out += ", ";
        detail::append_escaped(out, fields[j].key);
        out += ": ";
        if (fields[j].is_label) {
          detail::append_escaped(out, fields[j].s);
        } else {
          detail::append_num(out, fields[j].n);
        }
      }
      out += "}";
    }
    out += rows_.empty() ? "],\n" : "\n  ],\n";
    out += "  \"derived\": {";
    for (std::size_t i = 0; i < derived_.size(); ++i) {
      out += i == 0 ? "\n    " : ",\n    ";
      detail::append_escaped(out, derived_[i].first);
      out += ": ";
      detail::append_num(out, derived_[i].second);
    }
    out += derived_.empty() ? "},\n" : "\n  },\n";
    out += "  \"metrics\": ";
    out += obs::export_json();  // "null" when no registry is attached
    out += "\n}\n";
    return out;
  }

 private:
  std::string name_;
  std::string unit_;
  std::vector<Row> rows_;
  std::vector<std::pair<std::string, double>> derived_;
};

namespace detail {
inline Reporter*& current_slot() {
  static Reporter* current = nullptr;
  return current;
}
}  // namespace detail

/// The open reporter, or nullptr before open() (used by the common.h
/// summary hook).
inline Reporter* current() { return detail::current_slot(); }

/// Opens the process-wide reporter (call FIRST in main(), before any
/// instrumented component is constructed) and attaches a metric registry
/// with a bounded trace ring.
inline Reporter& open(std::string name, std::string unit = "") {
  static Reporter reporter{"", ""};
  static bool opened = false;
  if (!opened) {
    opened = true;
    reporter = Reporter{std::move(name), std::move(unit)};
    static obs::Registry registry(/*trace_capacity=*/4096);
    obs::attach(&registry);
    detail::current_slot() = &reporter;
  }
  return reporter;
}

}  // namespace hermes::bench::report
