#ifndef SKALLA_SERVER_SERVER_H_
#define SKALLA_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "server/admission.h"
#include "server/protocol.h"
#include "server/result_cache.h"
#include "skalla/warehouse.h"

namespace skalla {
namespace server {

/// Serving configuration of a Server.
struct ServerOptions {
  /// Admission limits (concurrent slots + bounded priority queue).
  AdmissionOptions admission;

  /// Cross-query caching (src/server/result_cache.h). Disabling either
  /// never changes any response byte — only how much work produces it.
  bool enable_result_cache = true;
  bool enable_prefix_reuse = true;
  size_t cache_max_entries = 64;

  /// Optimizer settings for served queries (fixed per server so a query's
  /// plan — and therefore its result bytes — is reproducible).
  bool optimize = true;
};

/// Monotonic serving counters (see Server::stats and the STATS command).
/// Snapshot consistency: `running`/`queued` come from one
/// AdmissionController::snapshot() (a single lock acquisition), the
/// outcome counters are read before it, and `queries_submitted` is read
/// last — so completed + failed + cancelled + shed + running + queued
/// <= submitted holds in every snapshot, even under concurrent serving.
struct ServerStats {
  uint64_t queries_submitted = 0;
  uint64_t queries_completed = 0;
  uint64_t queries_failed = 0;    ///< parse/execution/typed errors
  uint64_t queries_cancelled = 0;
  uint64_t queries_shed = 0;      ///< refused: queue full or queue deadline
  uint64_t mutations = 0;
  uint64_t loads = 0;
  CacheCounters cache;
  int running = 0;
  size_t queued = 0;
  size_t cache_result_entries = 0;
  size_t cache_prefix_entries = 0;
};

/// \brief The concurrent query-serving front-end over one Warehouse.
///
/// Accepts many simultaneous clients (each driving its own Connection from
/// its own thread), admits queries through a bounded priority queue
/// (AdmissionController), executes them on the caller's thread with the
/// morsel work multiplexed onto the shared ThreadPool under a per-query
/// lane quota, and serves repeated queries from a mutation-invalidated
/// cross-query cache (ResultCache). Queries run under a shared lock,
/// mutations (MUTATE/LOAD) under an exclusive lock, so every query sees a
/// consistent warehouse snapshot and mutations serialize against in-flight
/// queries. Every stage is traced with obs spans (SKALLA_TRACE), so a
/// served query shows admission wait, cache probes, and the full
/// coordinator round structure end-to-end on one timeline.
///
/// The serving invariant (DESIGN.md invariant 10): a query's response
/// bytes depend only on the query text, the optimizer setting, and the
/// sequence of mutations applied before it — never on concurrency,
/// priorities, thread counts, or cache configuration.
class Server {
 public:
  Server(std::unique_ptr<Warehouse> warehouse, ServerOptions options = {});
  /// Convenience: a fresh empty warehouse with `num_sites` sites (load
  /// data with the LOAD command).
  explicit Server(int num_sites, ServerOptions options = {});

  ~Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Executes one already-deframed command and returns the response
  /// payload ("OK\n..." / "ERR <code>\n..."). Thread-safe; QUERY blocks
  /// the calling thread through admission and execution.
  std::string HandleCommand(const std::string& text);

  /// Snapshot of the serving counters.
  ServerStats stats() const;

  /// The served warehouse — for test setup before serving starts; not
  /// synchronized against concurrent HandleCommand calls.
  Warehouse& warehouse() { return *warehouse_; }

  const ServerOptions& options() const { return options_; }

 private:
  struct ActiveQuery {
    uint64_t id = 0;
    std::atomic<bool> cancel{false};
    std::atomic<bool> running{false};
    int priority = 1;
  };

  /// Execution provenance captured for the PROFILE verb: what the shared
  /// query path actually did (cache hit, prefix resume, the QueryResult).
  struct ProfileCapture {
    bool result_cache_hit = false;
    size_t resumed_rounds = 0;
    std::optional<QueryResult> result;
  };

  Result<std::string> Dispatch(const Command& cmd);
  Result<std::string> HandleQuery(const Command& cmd);
  Result<std::string> HandleProfile(const Command& cmd);
  Result<std::string> HandleLoad(const Command& cmd);
  Result<std::string> HandleMutate(const Command& cmd);
  Result<std::string> HandleStats();
  Result<std::string> HandleMetrics(const Command& cmd);
  Result<std::string> HandleCancel(const Command& cmd);

  /// The one query path QUERY and PROFILE share: admission, cache probes,
  /// execution, cache population. `capture` (may be null) receives the
  /// provenance PROFILE renders.
  Result<std::string> ExecuteQueryCommand(const Command& cmd,
                                          ProfileCapture* capture);

  /// Version stamps of the relations `expr` reads, under versions_mu_.
  VersionMap SnapshotVersions(const GmdjExpr& expr);
  /// Bumps a relation's version and drops dependent cache entries.
  void BumpVersion(const std::string& table);

  std::unique_ptr<Warehouse> warehouse_;
  ServerOptions options_;
  AdmissionController admission_;
  ResultCache cache_;

  /// Queries shared, mutations exclusive: a query's execution is one
  /// consistent snapshot and mutations never race site catalogs.
  std::shared_mutex warehouse_mu_;

  std::mutex versions_mu_;
  std::map<std::string, uint64_t> versions_;

  /// Cross-query SKLD delta-base cache (Coordinator::set_ship_cache): what
  /// each site slot last received of X, surviving between queries so
  /// repeated queries ship deltas from their first round. One query at a
  /// time borrows it (try_to_lock — concurrent queries fall back to a
  /// per-query cache, which is today's behavior); mutations clear it under
  /// the exclusive warehouse lock. Never affects response bytes, only
  /// bytes shipped (DESIGN.md invariant 10).
  std::mutex ship_cache_mu_;
  std::vector<std::optional<Table>> ship_cache_;

  /// Serializes Warehouse::EstimateCost calls made before admission: the
  /// estimate runs under the shared warehouse lock (no mutation races) but
  /// populates the relation-stats cache, which concurrent pre-admission
  /// estimates must not write simultaneously.
  std::mutex estimate_mu_;

  std::mutex active_mu_;
  std::map<uint64_t, std::shared_ptr<ActiveQuery>> active_;
  std::atomic<uint64_t> next_query_id_{1};

  std::atomic<uint64_t> queries_submitted_{0};
  std::atomic<uint64_t> queries_completed_{0};
  std::atomic<uint64_t> queries_failed_{0};
  std::atomic<uint64_t> queries_cancelled_{0};
  std::atomic<uint64_t> queries_shed_{0};
  std::atomic<uint64_t> mutations_{0};
  std::atomic<uint64_t> loads_{0};
};

/// \brief One client's byte stream into a Server.
///
/// Owns the framing state of a single connection: feed raw bytes in any
/// fragmentation; every complete request frame is executed in order and
/// its response frame appended to `out`. Not thread-safe — one Connection
/// per client thread (the server behind it is shared and thread-safe).
class Connection {
 public:
  explicit Connection(Server* server) : server_(server) {}

  /// Appends bytes to the connection buffer and executes every complete
  /// frame. Returns kInvalidArgument — after appending an ERR response
  /// frame — when the stream is unrecoverably corrupt (oversized length
  /// prefix); the connection refuses further bytes.
  Status Feed(std::string_view bytes, std::string* out);

  bool broken() const { return broken_; }

 private:
  Server* server_;
  std::string buffer_;
  bool broken_ = false;
};

/// \brief In-process convenience client: one Connection plus frame
/// round-tripping. Call() returns the OK payload or the typed error the
/// ERR response encodes.
class Client {
 public:
  explicit Client(Server* server) : connection_(server) {}

  Result<std::string> Call(const std::string& command);

 private:
  Connection connection_;
  std::string pending_;  ///< response bytes not yet consumed
};

}  // namespace server
}  // namespace skalla

#endif  // SKALLA_SERVER_SERVER_H_
