#ifndef SKALLA_OBS_EXPORT_H_
#define SKALLA_OBS_EXPORT_H_

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace skalla {
namespace obs {

/// Writes spans as Chrome trace-event JSON, loadable in Perfetto /
/// chrome://tracing. One timeline track per site plus the coordinator,
/// pool-lane, and aggregator tracks (named via ph:"M" thread_name
/// metadata).
void ExportChromeTrace(const std::vector<TraceSpan>& spans,
                       std::ostream& out);

/// Writes a plain-text per-track timeline (start/duration/indent by
/// nesting) for terminals without a trace viewer.
void ExportTextTimeline(const std::vector<TraceSpan>& spans,
                        std::ostream& out);

/// Writes whatever destinations the current TraceConfig names
/// (chrome_path / text_path; text "-" = stderr). Registered via atexit when
/// SKALLA_TRACE requests file output. Prints one "[skalla]" line on stderr
/// per destination that could not be written and then returns false.
bool WriteConfiguredTraceOutputs();

/// JSON string-escapes `value` (quotes not included).
std::string JsonEscape(const std::string& value);

}  // namespace obs
}  // namespace skalla

#endif  // SKALLA_OBS_EXPORT_H_
