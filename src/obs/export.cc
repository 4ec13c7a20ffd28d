#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <ostream>
#include <set>

namespace skalla {
namespace obs {

namespace {

// Microseconds with sub-µs precision, the unit Chrome trace "ts"/"dur"
// fields expect.
std::string Micros(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

// Writes one export destination. The atexit hook that usually calls
// WriteConfiguredTraceOutputs drops its result, so a failure is also said
// on stderr.
template <typename WriteFn>
bool WriteTraceFile(const std::string& path, const char* what,
                    const WriteFn& write) {
  std::ofstream file(path);
  if (file) write(file);
  file.close();
  if (!file) {
    std::cerr << "[skalla] could not write " << what << " to " << path
              << "\n";
    return false;
  }
  std::cerr << "[skalla] " << what << " written to " << path << "\n";
  return true;
}

}  // namespace

std::string JsonEscape(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
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
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
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

void ExportChromeTrace(const std::vector<TraceSpan>& spans,
                       std::ostream& out) {
  std::set<int> tracks;
  for (const TraceSpan& span : spans) tracks.insert(span.track);

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };

  // Track naming + ordering. tid doubles as the sort key: coordinator (0),
  // sites (1+), pool lanes (10000+), aggregators (20000+).
  for (int track : tracks) {
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << track
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << JsonEscape(TrackName(track)) << "\"}}";
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << track
        << ",\"name\":\"thread_sort_index\",\"args\":{\"sort_index\":" << track
        << "}}";
  }

  for (const TraceSpan& span : spans) {
    sep();
    out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << span.track
        << ",\"ts\":" << Micros(span.start_ns)
        << ",\"dur\":" << Micros(span.end_ns - span.start_ns)
        << ",\"name\":\"" << JsonEscape(span.name)
        << "\",\"cat\":\"skalla\",\"args\":{";
    if (!span.detail.empty()) {
      out << "\"detail\":\"" << JsonEscape(span.detail) << "\",";
    }
    out << "\"thread\":" << span.thread << "}}";
  }

  out << "\n]}\n";
}

void ExportTextTimeline(const std::vector<TraceSpan>& spans,
                        std::ostream& out) {
  std::map<int, std::vector<TraceSpan>> by_track;
  for (const TraceSpan& span : spans) by_track[span.track].push_back(span);
  for (auto& entry : by_track) {
    std::stable_sort(entry.second.begin(), entry.second.end(),
                     [](const TraceSpan& a, const TraceSpan& b) {
                       return a.start_ns < b.start_ns;
                     });
    out << "== " << TrackName(entry.first) << " ==\n";
    std::vector<int64_t> open_ends;  // nesting from start/end containment
    for (const TraceSpan& span : entry.second) {
      while (!open_ends.empty() && span.start_ns >= open_ends.back()) {
        open_ends.pop_back();
      }
      char line[160];
      std::snprintf(line, sizeof(line), "%10.3fms %8.3fms ",
                    static_cast<double>(span.start_ns) / 1e6,
                    static_cast<double>(span.end_ns - span.start_ns) / 1e6);
      out << line;
      for (size_t i = 0; i < open_ends.size(); ++i) out << "  ";
      out << span.name;
      if (!span.detail.empty()) out << " [" << span.detail << "]";
      out << "\n";
      open_ends.push_back(span.end_ns);
    }
  }
}

bool WriteConfiguredTraceOutputs() {
  const TraceConfig config = CurrentTraceConfig();
  bool ok = true;
  if (!config.chrome_path.empty()) {
    ok &= WriteTraceFile(config.chrome_path, "chrome trace",
                         [](std::ostream& out) {
                           ExportChromeTrace(SpanSnapshot(), out);
                         });
  }
  if (config.text_path == "-") {
    ExportTextTimeline(SpanSnapshot(), std::cerr);
  } else if (!config.text_path.empty()) {
    ok &= WriteTraceFile(config.text_path, "text timeline",
                         [](std::ostream& out) {
                           ExportTextTimeline(SpanSnapshot(), out);
                         });
  }
  return ok;
}

}  // namespace obs
}  // namespace skalla
