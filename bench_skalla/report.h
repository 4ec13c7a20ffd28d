#ifndef BENCH_SKALLA_REPORT_H_
#define BENCH_SKALLA_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace bench_skalla {

/// One reported number: its value, unit, and how many samples it summarizes
/// (1 for a single measurement or an exact count).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 1;
};

/// What one workload run reports: correctness, the attempted/failed request
/// counts, and the metrics of the run (end-to-end for an untraced run,
/// per-layer for a traced one).
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1) {
    for (Metric& m : metrics_) {
      if (m.name == name) {
        m = Metric{name, value, unit, samples};
        return;
      }
    }
    metrics_.push_back(Metric{name, value, unit, samples});
  }

  /// Records a wrong output; the run then reports correct=false and the
  /// process exits non-zero.
  void Wrong(const std::string& what) {
    if (errors_.size() < 20) errors_.push_back(what);
    ++wrong_;
  }

  void CountAttempt(int64_t n = 1) { attempted_ += n; }
  void CountFailure(int64_t n = 1) { failed_ += n; }

  bool correct() const { return wrong_ == 0; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
  int64_t wrong_ = 0;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Escapes a string for a JSON string literal.
inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Seconds as "0.412 0.398 ...", for progress lines.
inline std::string JoinSeconds(const std::vector<double>& seconds) {
  std::string out;
  char buf[32];
  for (double s : seconds) {
    std::snprintf(buf, sizeof(buf), out.empty() ? "%.3f" : " %.3f", s);
    out += buf;
  }
  return out;
}

/// A double as JSON with every significant digit kept.
inline std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace bench_skalla

#endif  // BENCH_SKALLA_REPORT_H_
