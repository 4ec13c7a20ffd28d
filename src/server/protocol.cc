#include "server/protocol.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "common/string_util.h"

namespace skalla {
namespace server {

namespace {

/// Pops the next whitespace-delimited token off `*rest` (which is trimmed
/// of leading whitespace first). Empty result means end of input.
std::string_view NextToken(std::string_view* rest) {
  size_t start = 0;
  while (start < rest->size() &&
         std::isspace(static_cast<unsigned char>((*rest)[start]))) {
    ++start;
  }
  size_t end = start;
  while (end < rest->size() &&
         !std::isspace(static_cast<unsigned char>((*rest)[end]))) {
    ++end;
  }
  std::string_view token = rest->substr(start, end - start);
  rest->remove_prefix(end);
  return token;
}

Result<int64_t> ParseInt(std::string_view token, const char* what) {
  const std::optional<int64_t> v = ParseInt64(token);
  if (!v.has_value()) {
    return Status::InvalidArgument(std::string(what) +
                                   " expects an integer, got '" +
                                   std::string(token) + "'");
  }
  return *v;
}

Result<double> ParseDouble(std::string_view token, const char* what) {
  const std::string s(token);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || errno == ERANGE) {
    return Status::InvalidArgument(std::string(what) + " expects a number, got '" + s + "'");
  }
  return v;
}

}  // namespace

std::string EncodeFrame(std::string_view payload) {
  const uint32_t n = static_cast<uint32_t>(payload.size());
  std::string frame;
  frame.reserve(kFramePrefixBytes + payload.size());
  frame.push_back(static_cast<char>((n >> 24) & 0xff));
  frame.push_back(static_cast<char>((n >> 16) & 0xff));
  frame.push_back(static_cast<char>((n >> 8) & 0xff));
  frame.push_back(static_cast<char>(n & 0xff));
  frame.append(payload);
  return frame;
}

Result<std::optional<std::string>> DecodeFrame(std::string* buffer) {
  if (buffer->size() < kFramePrefixBytes) return std::optional<std::string>();
  const auto* b = reinterpret_cast<const unsigned char*>(buffer->data());
  const uint64_t n = (uint64_t{b[0]} << 24) | (uint64_t{b[1]} << 16) |
                     (uint64_t{b[2]} << 8) | uint64_t{b[3]};
  if (n > kMaxFrameBytes) {
    return Status::InvalidArgument(
        "frame length " + std::to_string(n) + " exceeds the " +
        std::to_string(kMaxFrameBytes) + "-byte cap");
  }
  if (buffer->size() < kFramePrefixBytes + n) {
    return std::optional<std::string>();
  }
  std::string payload = buffer->substr(kFramePrefixBytes, n);
  buffer->erase(0, kFramePrefixBytes + n);
  return std::optional<std::string>(std::move(payload));
}

Result<Command> ParseCommand(std::string_view text) {
  if (text.find('\0') != std::string_view::npos) {
    return Status::InvalidArgument("command contains an embedded NUL byte");
  }
  std::string_view rest = text;
  const std::string word = ToLower(NextToken(&rest));
  if (word.empty()) {
    return Status::InvalidArgument("empty command");
  }

  Command cmd;
  if (word == "stats") {
    cmd.type = CommandType::kStats;
    if (!NextToken(&rest).empty()) {
      return Status::InvalidArgument("STATS takes no arguments");
    }
    return cmd;
  }

  if (word == "metrics") {
    cmd.type = CommandType::kMetrics;
    const std::string arg = ToLower(NextToken(&rest));
    if (arg == "json") {
      cmd.metrics_json = true;
    } else if (!arg.empty()) {
      return Status::InvalidArgument("METRICS takes JSON or no argument");
    }
    if (!NextToken(&rest).empty()) {
      return Status::InvalidArgument("METRICS takes at most one argument");
    }
    return cmd;
  }

  if (word == "cancel") {
    cmd.type = CommandType::kCancel;
    const std::string_view arg = NextToken(&rest);
    if (arg.empty()) {
      return Status::InvalidArgument("CANCEL expects a query id or ALL");
    }
    if (ToLower(arg) == "all") {
      cmd.cancel_all = true;
    } else {
      SKALLA_ASSIGN_OR_RETURN(int64_t id, ParseInt(arg, "CANCEL"));
      if (id < 0) return Status::InvalidArgument("CANCEL id must be >= 0");
      cmd.cancel_id = static_cast<uint64_t>(id);
    }
    if (!NextToken(&rest).empty()) {
      return Status::InvalidArgument("CANCEL takes a single argument");
    }
    return cmd;
  }

  if (word == "load") {
    cmd.type = CommandType::kLoad;
    cmd.load_kind = ToLower(NextToken(&rest));
    if (cmd.load_kind != "tpcr" && cmd.load_kind != "flow") {
      return Status::InvalidArgument(
          "LOAD expects a dataset kind (tpcr or flow)");
    }
    SKALLA_ASSIGN_OR_RETURN(cmd.load_rows,
                            ParseInt(NextToken(&rest), "LOAD rows"));
    if (cmd.load_rows <= 0) {
      return Status::InvalidArgument("LOAD rows must be positive");
    }
    if (!NextToken(&rest).empty()) {
      return Status::InvalidArgument("LOAD takes kind and rows only");
    }
    return cmd;
  }

  if (word == "mutate") {
    cmd.type = CommandType::kMutate;
    cmd.mutate_table = std::string(NextToken(&rest));
    if (cmd.mutate_table.empty()) {
      return Status::InvalidArgument("MUTATE expects a table name");
    }
    const std::string verb = ToLower(NextToken(&rest));
    if (verb != "append") {
      return Status::InvalidArgument("MUTATE supports APPEND only, got '" +
                                     verb + "'");
    }
    cmd.mutate_row_csv = std::string(StripWhitespace(rest));
    if (cmd.mutate_row_csv.empty()) {
      return Status::InvalidArgument("MUTATE APPEND expects a CSV row");
    }
    return cmd;
  }

  if (word == "query" || word == "profile") {
    cmd.type =
        word == "query" ? CommandType::kQuery : CommandType::kProfile;
    // Options come before the query text; the first token that is not an
    // option keyword starts the OLAP dialect text.
    while (true) {
      std::string_view peek = rest;
      const std::string_view raw = NextToken(&peek);
      const std::string option = ToLower(raw);
      if (option == "priority") {
        rest = peek;
        const std::string level = ToLower(NextToken(&rest));
        if (level == "low") {
          cmd.priority = QueryPriority::kLow;
        } else if (level == "normal") {
          cmd.priority = QueryPriority::kNormal;
        } else if (level == "high") {
          cmd.priority = QueryPriority::kHigh;
        } else {
          return Status::InvalidArgument(
              "PRIORITY expects low, normal, or high");
        }
      } else if (option == "deadline") {
        rest = peek;
        SKALLA_ASSIGN_OR_RETURN(cmd.deadline_sec,
                                ParseDouble(NextToken(&rest), "DEADLINE"));
        if (cmd.deadline_sec < 0) {
          return Status::InvalidArgument("DEADLINE must be >= 0");
        }
      } else if (option == "threads") {
        rest = peek;
        SKALLA_ASSIGN_OR_RETURN(int64_t n,
                                ParseInt(NextToken(&rest), "THREADS"));
        if (n < 0 || n > 1024) {
          return Status::InvalidArgument("THREADS must be in [0, 1024]");
        }
        cmd.threads = static_cast<int>(n);
      } else if (option == "nocache") {
        rest = peek;
        cmd.no_cache = true;
      } else {
        break;
      }
    }
    cmd.query_text = std::string(StripWhitespace(rest));
    if (cmd.query_text.empty()) {
      return Status::InvalidArgument(
          (cmd.type == CommandType::kQuery ? std::string("QUERY")
                                           : std::string("PROFILE")) +
          " expects query text");
    }
    return cmd;
  }

  return Status::InvalidArgument("unknown command '" + word + "'");
}

const char* WireStatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kTypeError:
      return "type_error";
    case StatusCode::kIoError:
      return "io_error";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kNotImplemented:
      return "not_implemented";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    case StatusCode::kCancelled:
      return "cancelled";
  }
  return "internal";
}

std::optional<StatusCode> WireStatusCodeFromName(std::string_view name) {
  static constexpr StatusCode kAll[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,   StatusCode::kTypeError,
      StatusCode::kIoError,      StatusCode::kInternal,
      StatusCode::kNotImplemented, StatusCode::kUnavailable,
      StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
  };
  for (StatusCode code : kAll) {
    if (name == WireStatusCodeName(code)) return code;
  }
  return std::nullopt;
}

std::string OkResponse(std::string_view payload) {
  std::string out = "OK\n";
  out.append(payload);
  return out;
}

std::string ErrResponse(const Status& status) {
  std::string out = "ERR ";
  out += WireStatusCodeName(status.code());
  out += '\n';
  out += status.message();
  return out;
}

Result<std::string> ParseResponse(std::string_view response) {
  if (response.rfind("OK\n", 0) == 0) {
    return std::string(response.substr(3));
  }
  if (response.rfind("ERR ", 0) == 0) {
    const size_t nl = response.find('\n');
    const std::string_view code_name =
        response.substr(4, (nl == std::string_view::npos ? response.size()
                                                         : nl) -
                               4);
    const std::string message(
        nl == std::string_view::npos ? "" : response.substr(nl + 1));
    const std::optional<StatusCode> code = WireStatusCodeFromName(code_name);
    if (!code.has_value() || *code == StatusCode::kOk) {
      return Status::IoError("response carries unknown error code '" +
                             std::string(code_name) + "'");
    }
    return Status(*code, message);
  }
  return Status::IoError("response is neither OK nor ERR");
}

}  // namespace server
}  // namespace skalla
