// Malformed-input corpus for the wire protocol (ISSUE 6): every corrupt,
// truncated, oversized, or hostile input must produce a typed error
// status — never a crash, never an untyped failure — and framing errors
// must poison only the one connection.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "server/protocol.h"
#include "server/server.h"
#include "storage/csv.h"
#include "test_util.h"

namespace skalla {
namespace server {
namespace {

// ---- Framing ---------------------------------------------------------------

TEST(FramingTest, RoundTrip) {
  const std::string payload = "STATS";
  std::string buffer = EncodeFrame(payload);
  ASSERT_EQ(buffer.size(), kFramePrefixBytes + payload.size());
  ASSERT_OK_AND_ASSIGN(auto frame, DecodeFrame(&buffer));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, payload);
  EXPECT_TRUE(buffer.empty());
}

TEST(FramingTest, EmptyPayloadRoundTrips) {
  std::string buffer = EncodeFrame("");
  ASSERT_OK_AND_ASSIGN(auto frame, DecodeFrame(&buffer));
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(*frame, "");
}

TEST(FramingTest, TruncatedPrefixNeedsMoreBytes) {
  std::string buffer("\x00\x00\x01", 3);  // 3 of 4 prefix bytes
  ASSERT_OK_AND_ASSIGN(auto frame, DecodeFrame(&buffer));
  EXPECT_FALSE(frame.has_value());
  EXPECT_EQ(buffer.size(), 3u);  // untouched
}

TEST(FramingTest, TruncatedPayloadNeedsMoreBytes) {
  std::string buffer = EncodeFrame("STATS");
  buffer.resize(buffer.size() - 2);
  ASSERT_OK_AND_ASSIGN(auto frame, DecodeFrame(&buffer));
  EXPECT_FALSE(frame.has_value());
}

TEST(FramingTest, ByteAtATimeDelivery) {
  const std::string wire = EncodeFrame("STATS") + EncodeFrame("CANCEL ALL");
  std::string buffer;
  std::vector<std::string> frames;
  for (char byte : wire) {
    buffer.push_back(byte);
    while (true) {
      ASSERT_OK_AND_ASSIGN(auto frame, DecodeFrame(&buffer));
      if (!frame.has_value()) break;
      frames.push_back(*frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0], "STATS");
  EXPECT_EQ(frames[1], "CANCEL ALL");
}

TEST(FramingTest, OversizedLengthPrefixIsTyped) {
  std::string buffer("\xFF\xFF\xFF\xFF", 4);  // 4 GiB claimed
  auto frame = DecodeFrame(&buffer);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FramingTest, PrefixJustOverTheCapIsTyped) {
  const uint32_t length = static_cast<uint32_t>(kMaxFrameBytes) + 1;
  std::string buffer;
  for (int shift = 24; shift >= 0; shift -= 8) {
    buffer.push_back(static_cast<char>((length >> shift) & 0xFF));
  }
  auto frame = DecodeFrame(&buffer);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(FramingTest, ErrorPoisonsTheConnectionNotTheServer) {
  Server srv(2);
  Connection bad(&srv);
  std::string out;
  Status fed = bad.Feed(std::string("\xFF\xFF\xFF\xFF", 4), &out);
  EXPECT_EQ(fed.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(bad.broken());
  // The poisoned connection sent an ERR frame before dying.
  ASSERT_OK_AND_ASSIGN(auto err_frame, DecodeFrame(&out));
  ASSERT_TRUE(err_frame.has_value());
  auto parsed = ParseResponse(*err_frame);
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
  // Further bytes are refused.
  EXPECT_FALSE(bad.Feed("x", &out).ok());
  // A fresh connection to the same server still works.
  Client good(&srv);
  ASSERT_OK_AND_ASSIGN(std::string stats, good.Call("STATS"));
  EXPECT_NE(stats.find("queries_submitted"), std::string::npos);
}

// ---- Command parsing -------------------------------------------------------

Status ParseError(const std::string& text) {
  auto cmd = ParseCommand(text);
  EXPECT_FALSE(cmd.ok()) << "parsed unexpectedly: " << text;
  return cmd.status();
}

TEST(ParseCommandTest, MalformedCorpusYieldsTypedErrors) {
  const std::string corpus[] = {
      "",                               // empty frame
      "   ",                            // only whitespace
      "FROB 1",                         // unknown command
      "QUERY",                          // missing query text
      "QUERY PRIORITY",                 // dangling option
      "QUERY PRIORITY urgent SELECT",   // bad priority token
      "QUERY DEADLINE SELECT",          // non-numeric deadline
      "QUERY DEADLINE -3 SELECT",       // negative deadline
      "QUERY DEADLINE 1e999 SELECT",    // out-of-range double
      "QUERY THREADS many SELECT",      // non-numeric threads
      "QUERY THREADS -1 SELECT",        // negative threads
      "QUERY THREADS 99999 SELECT",     // absurd threads
      "LOAD",                           // missing kind
      "LOAD tpcr",                      // missing rows
      "LOAD tpcr ten",                  // non-numeric rows
      "LOAD tpcr -5",                   // negative rows
      "LOAD parquet 100",               // unknown dataset
      "MUTATE",                         // missing table
      "MUTATE TPCR",                    // missing verb
      "MUTATE TPCR DELETE 1",           // unsupported verb
      "MUTATE TPCR APPEND",             // missing row
      "CANCEL",                         // missing id
      "CANCEL abc",                     // non-numeric id
      "CANCEL -4",                      // negative id
      std::string("QUERY SELECT\0 x", 14),  // embedded NUL
  };
  for (const std::string& text : corpus) {
    EXPECT_EQ(ParseError(text).code(), StatusCode::kInvalidArgument)
        << "input: " << text;
  }
}

TEST(ParseCommandTest, QueryOptionsParse) {
  ASSERT_OK_AND_ASSIGN(
      Command cmd,
      ParseCommand("QUERY PRIORITY high DEADLINE 2.5 THREADS 3 NOCACHE "
                   "SELECT CustKey, COUNT(*) AS c FROM TPCR GROUP BY CustKey"));
  EXPECT_EQ(cmd.type, CommandType::kQuery);
  EXPECT_EQ(cmd.priority, QueryPriority::kHigh);
  EXPECT_DOUBLE_EQ(cmd.deadline_sec, 2.5);
  EXPECT_EQ(cmd.threads, 3);
  EXPECT_TRUE(cmd.no_cache);
  EXPECT_EQ(cmd.query_text,
            "SELECT CustKey, COUNT(*) AS c FROM TPCR GROUP BY CustKey");
}

TEST(ParseCommandTest, OtherCommandsParse) {
  ASSERT_OK_AND_ASSIGN(Command load, ParseCommand("LOAD flow 1000"));
  EXPECT_EQ(load.type, CommandType::kLoad);
  EXPECT_EQ(load.load_kind, "flow");
  EXPECT_EQ(load.load_rows, 1000);

  ASSERT_OK_AND_ASSIGN(Command mut,
                       ParseCommand("MUTATE TPCR APPEND 1,2,3"));
  EXPECT_EQ(mut.type, CommandType::kMutate);
  EXPECT_EQ(mut.mutate_table, "TPCR");
  EXPECT_EQ(mut.mutate_row_csv, "1,2,3");

  ASSERT_OK_AND_ASSIGN(Command stats, ParseCommand("STATS"));
  EXPECT_EQ(stats.type, CommandType::kStats);

  ASSERT_OK_AND_ASSIGN(Command one, ParseCommand("CANCEL 17"));
  EXPECT_EQ(one.type, CommandType::kCancel);
  EXPECT_EQ(one.cancel_id, 17u);
  EXPECT_FALSE(one.cancel_all);

  ASSERT_OK_AND_ASSIGN(Command all, ParseCommand("CANCEL ALL"));
  EXPECT_TRUE(all.cancel_all);
}

// ---- Responses -------------------------------------------------------------

TEST(ResponseTest, OkRoundTrip) {
  ASSERT_OK_AND_ASSIGN(std::string payload,
                       ParseResponse(OkResponse("a,b\n1,2\n")));
  EXPECT_EQ(payload, "a,b\n1,2\n");
}

TEST(ResponseTest, ErrRoundTripsEveryCode) {
  const StatusCode codes[] = {
      StatusCode::kInvalidArgument, StatusCode::kNotFound,
      StatusCode::kAlreadyExists,   StatusCode::kOutOfRange,
      StatusCode::kTypeError,       StatusCode::kIoError,
      StatusCode::kInternal,        StatusCode::kNotImplemented,
      StatusCode::kUnavailable,     StatusCode::kDeadlineExceeded,
      StatusCode::kCancelled,
  };
  for (StatusCode code : codes) {
    const Status status(code, "the reason");
    auto parsed = ParseResponse(ErrResponse(status));
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.status().code(), code)
        << "code name: " << WireStatusCodeName(code);
    EXPECT_EQ(parsed.status().message(), "the reason");
    // The wire name itself round-trips too.
    auto back = WireStatusCodeFromName(WireStatusCodeName(code));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, code);
  }
  EXPECT_FALSE(WireStatusCodeFromName("no_such_code").has_value());
}

TEST(ResponseTest, MalformedResponsesAreTyped) {
  for (const char* text : {"", "YES\npayload", "ERR", "ERR bogus\nmsg"}) {
    auto parsed = ParseResponse(text);
    EXPECT_FALSE(parsed.ok()) << "input: " << text;
  }
}

// ---- End-to-end hostile input ----------------------------------------------

TEST(ServerHostileInputTest, UnknownCommandsGetErrResponses) {
  Server srv(2);
  Client client(&srv);
  auto reply = client.Call("FROB 42");
  EXPECT_EQ(reply.status().code(), StatusCode::kInvalidArgument);
  // The connection survives a bad command (unlike a framing error).
  ASSERT_OK_AND_ASSIGN(std::string stats, client.Call("STATS"));
  EXPECT_NE(stats.find("queries_submitted"), std::string::npos);
}

TEST(ServerHostileInputTest, QueryOnEmptyWarehouseIsTyped) {
  Server srv(2);
  Client client(&srv);
  auto reply =
      client.Call("QUERY SELECT CustKey, COUNT(*) AS c FROM TPCR "
                  "GROUP BY CustKey");
  EXPECT_FALSE(reply.ok());
  EXPECT_NE(reply.status().code(), StatusCode::kInternal);
}

TEST(ServerHostileInputTest, MutateOfAMissingRelationIsNotFound) {
  for (int sites : {0, 2}) {
    Server srv(sites);
    Client client(&srv);
    auto reply = client.Call("MUTATE TPCR APPEND 1,2,3");
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().code(), StatusCode::kNotFound)
        << sites << " sites";
  }
}

TEST(ServerHostileInputTest, Int64OverflowIsNotACrash) {
  Server srv(2);
  Client client(&srv);
  ASSERT_OK(client.Call("LOAD tpcr 2000").status());
  // The left operand is INT64_MIN, and INT64_MIN % -1 overflows the
  // quotient, which traps on x86. int64 arithmetic wraps in the dialect
  // and x % -1 is 0, so the condition holds on every detail row.
  ASSERT_OK_AND_ASSIGN(
      std::string reply,
      client.Call("QUERY SELECT NationKey, COUNT(*) AS cnt FROM TPCR "
                  "GROUP BY NationKey EXTEND COUNT(*) AS x WHERE "
                  "(Quantity - Quantity - 9223372036854775807 - 1) % -1 = 0"));
  EXPECT_NE(reply.find("NationKey"), std::string::npos) << reply;
  ASSERT_OK_AND_ASSIGN(std::string stats, client.Call("STATS"));
  EXPECT_NE(stats.find("queries_submitted"), std::string::npos);
}

TEST(ServerHostileInputTest, OutOfRangeIntegersGetErrResponses) {
  Server srv(2);
  Client client(&srv);
  ASSERT_OK(client.Call("LOAD tpcr 2000").status());
  // A literal past INT64_MAX must fail, not run as INT64_MAX.
  auto query = client.Call(
      "QUERY SELECT NationKey, COUNT(*) AS cnt FROM TPCR "
      "WHERE Quantity < 99999999999999999999 GROUP BY NationKey");
  EXPECT_EQ(query.status().code(), StatusCode::kInvalidArgument)
      << query.status().ToString();
  // So must a MUTATE row whose int64 field overflows: a loaded row with
  // its first int64 column past INT64_MAX.
  auto table = srv.warehouse().central_catalog().GetTable("TPCR");
  ASSERT_TRUE(table.ok());
  Row row = (*table)->row(0);
  size_t col = 0;
  while ((*table)->schema().field(static_cast<int>(col)).type !=
         ValueType::kInt64) {
    ++col;
  }
  constexpr int64_t kMarker = 731113579246801;
  row[col] = Value(kMarker);
  Table one((*table)->schema_ptr());
  one.AddRow(std::move(row));
  std::string csv = CsvToString(one);
  csv = csv.substr(csv.find('\n') + 1);  // drop the header line
  if (!csv.empty() && csv.back() == '\n') csv.pop_back();
  csv.replace(csv.find(std::to_string(kMarker)),
              std::to_string(kMarker).size(), "99999999999999999999");
  auto mutate = client.Call("MUTATE TPCR APPEND " + csv);
  EXPECT_EQ(mutate.status().code(), StatusCode::kInvalidArgument)
      << mutate.status().ToString();
  EXPECT_EQ(srv.stats().mutations, 0u);
}

TEST(ServerHostileInputTest, RandomBytesNeverCrashTheServer) {
  Server srv(2);
  Rng rng(0xBADF00D);
  for (int round = 0; round < 64; ++round) {
    Connection conn(&srv);
    std::string out;
    // Random garbage, sometimes framed, sometimes raw.
    std::string bytes;
    const int64_t len = rng.Uniform(0, 64);
    for (int64_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    if (rng.Chance(0.5)) bytes = EncodeFrame(bytes);
    // Feed in random fragments; every outcome must be a Status, responses
    // must be well-formed frames, and only this connection may break.
    size_t offset = 0;
    while (offset < bytes.size()) {
      const size_t chunk = static_cast<size_t>(
          rng.Uniform(1, static_cast<int64_t>(bytes.size() - offset)));
      Status fed =
          conn.Feed(std::string_view(bytes).substr(offset, chunk), &out);
      if (!fed.ok()) break;
      offset += chunk;
    }
    while (!out.empty()) {
      auto frame = DecodeFrame(&out);
      ASSERT_TRUE(frame.ok());
      if (!frame->has_value()) break;
      // Every response parses as OK or a typed error.
      ParseResponse(**frame).status();
    }
  }
  // The server survived 64 hostile connections.
  Client client(&srv);
  ASSERT_OK_AND_ASSIGN(std::string stats, client.Call("STATS"));
  EXPECT_NE(stats.find("queries_submitted"), std::string::npos);
}

}  // namespace
}  // namespace server
}  // namespace skalla
