#ifndef SKALLA_SERVER_PROTOCOL_H_
#define SKALLA_SERVER_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/result.h"

namespace skalla {
namespace server {

/// \brief The Skalla wire protocol: length-prefixed text frames.
///
/// A frame is a 4-byte big-endian unsigned payload length followed by that
/// many bytes of text. Requests carry one command per frame; the server
/// answers every request frame with exactly one response frame, in request
/// order per connection. See docs/server.md for the full grammar.
///
/// Commands (keywords are case-insensitive; arguments are not):
///
///   QUERY [PRIORITY low|normal|high] [DEADLINE <sec>] [THREADS <n>]
///         [NOCACHE] <olap query text>
///   PROFILE <same options and text as QUERY>
///   LOAD tpcr|flow <rows>
///   MUTATE <table> APPEND <csv row>
///   STATS
///   METRICS [JSON]
///   CANCEL <id> | CANCEL ALL
///
/// Responses: "OK\n<payload>" or "ERR <code>\n<message>", where <code> is a
/// single-token status-code name (WireStatusCodeName). A QUERY payload is
/// the result relation CSV-encoded — and byte-identical for a given query
/// no matter the concurrency, thread count, or cache configuration
/// (DESIGN.md invariant 10).

/// Hard cap on a frame's payload; a length prefix beyond it is a protocol
/// violation (the connection is poisoned, not the process).
inline constexpr size_t kMaxFrameBytes = size_t{16} << 20;

/// Bytes of the big-endian length prefix.
inline constexpr size_t kFramePrefixBytes = 4;

/// Wraps a payload in a length-prefixed frame. Aborts (DCHECK-style
/// InvalidArgument at the call sites that can receive untrusted sizes) —
/// callers never produce payloads near kMaxFrameBytes.
std::string EncodeFrame(std::string_view payload);

/// Pops one complete frame off the front of `buffer`.
///  - A complete, well-formed frame: returns its payload and erases it.
///  - No complete frame yet (truncated prefix or payload): returns nullopt
///    and leaves the buffer untouched — feed more bytes and retry.
///  - A malformed frame (length prefix > kMaxFrameBytes): returns a typed
///    kInvalidArgument status; the stream cannot be resynchronized and the
///    connection must be torn down.
Result<std::optional<std::string>> DecodeFrame(std::string* buffer);

/// The kinds of request the server understands.
enum class CommandType {
  kQuery,
  kProfile,  ///< QUERY + an EXPLAIN-ANALYZE-style profile payload
  kLoad,
  kMutate,
  kStats,
  kMetrics,  ///< metrics-registry exposition (obs/metrics.h)
  kCancel,
};

/// Admission priority of a query (higher preempts the queue, never a
/// running query).
enum class QueryPriority : int {
  kLow = 0,
  kNormal = 1,
  kHigh = 2,
};

/// One parsed request. Only the fields of the matching CommandType are
/// meaningful.
struct Command {
  CommandType type = CommandType::kStats;

  // QUERY / PROFILE
  std::string query_text;  ///< the OLAP dialect text (sql/olap_parser.h)
  QueryPriority priority = QueryPriority::kNormal;
  double deadline_sec = -1.0;  ///< per-attempt deadline; < 0 = warehouse's
  int threads = -1;            ///< site + morsel lane quota; < 0 = warehouse's
  bool no_cache = false;       ///< bypass (and do not populate) the caches

  // LOAD
  std::string load_kind;  ///< "tpcr" or "flow"
  int64_t load_rows = 0;

  // MUTATE
  std::string mutate_table;
  std::string mutate_row_csv;  ///< one CSV row in the table's column order

  // METRICS
  bool metrics_json = false;  ///< JSONL snapshot instead of text exposition

  // CANCEL
  uint64_t cancel_id = 0;
  bool cancel_all = false;
};

/// Parses one request payload into a Command. Typed errors, never crashes:
/// embedded NUL bytes, unknown commands, malformed numbers, and missing
/// arguments all yield kInvalidArgument with a message naming the problem
/// (the malformed-input corpus in tests/server_protocol_test.cc pins this).
Result<Command> ParseCommand(std::string_view text);

/// Single-token wire name of a status code ("invalid_argument", ...).
const char* WireStatusCodeName(StatusCode code);

/// Inverse of WireStatusCodeName; nullopt for an unknown token.
std::optional<StatusCode> WireStatusCodeFromName(std::string_view name);

/// Builds the "OK\n<payload>" success response.
std::string OkResponse(std::string_view payload);

/// Builds the "ERR <code>\n<message>" response for a non-OK status.
std::string ErrResponse(const Status& status);

/// Client-side: splits a response payload back into the OK payload or the
/// typed error status it encodes.
Result<std::string> ParseResponse(std::string_view response);

}  // namespace server
}  // namespace skalla

#endif  // SKALLA_SERVER_PROTOCOL_H_
