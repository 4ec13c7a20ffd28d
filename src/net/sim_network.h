#ifndef SKALLA_NET_SIM_NETWORK_H_
#define SKALLA_NET_SIM_NETWORK_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/cost_model.h"
#include "net/fault_injector.h"

namespace skalla {

/// Endpoint id of the coordinator in transfer records.
inline constexpr int kCoordinatorId = -1;

/// Aggregation-tree internal nodes are encoded as endpoint ids
/// kAggregatorIdBase - node_id, keeping them distinct from the coordinator
/// (-1) and from site ids (>= 0).
inline constexpr int kAggregatorIdBase = -2;

inline int EncodeAggregatorId(int node_id) {
  return kAggregatorIdBase - node_id;
}

/// One recorded message on the simulated network.
struct TransferRecord {
  int from = kCoordinatorId;
  int to = kCoordinatorId;
  size_t bytes = 0;
  int64_t rows = 0;       ///< relation rows carried (0 for control messages)
  int round = -1;
  std::string label;
  double seconds = 0.0;   ///< simulated transfer time charged
  TransferDirection dir = TransferDirection::kToSite;
  int attempt = 0;        ///< 0 = first transmission, >0 = retransmission
  bool delivered = true;  ///< false when the fault injector lost it
};

/// Outcome of one Transfer call.
struct TransferOutcome {
  bool delivered = true;
  double seconds = 0.0;  ///< modelled time incl. any injected delay
};

/// \brief In-process stand-in for the warehouse's WAN.
///
/// Every relation shipped between the coordinator and a site is first
/// binary-serialized (storage/serializer.h), so byte counts are exact; the
/// cost model then converts bytes to simulated seconds. By default the
/// network never loses or reorders messages — Skalla's evaluation
/// algorithm is synchronous by construction (rounds). Attaching a
/// FaultInjector makes transfers fallible: messages with a site endpoint
/// may be dropped, delayed, or slowed, and the coordinators recover with
/// retries (net/cost_model.h RetryPolicy). Lost messages are still
/// recorded — the bytes really crossed the wire — with delivered = false.
class SimNetwork {
 public:
  explicit SimNetwork(NetworkConfig config = NetworkConfig())
      : config_(config) {}

  const NetworkConfig& config() const { return config_; }

  /// Attaches a fault injector (borrowed, may be null). The injector is
  /// consulted for every transfer with a site endpoint; aggregator-to-
  /// aggregator hops of a tree are assumed reliable.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* fault_injector() const { return injector_; }

  /// Starts a new accounting round with a human-readable label.
  void BeginRound(std::string label);

  /// Records one message and returns whether it was delivered plus the
  /// simulated seconds it took. `attempt` is the coordinator's retry
  /// counter for the exchange this message belongs to. `dir` defaults to
  /// the direction implied by the endpoints (from == coordinator →
  /// kToSite); tree coordinators pass it explicitly for aggregator hops.
  TransferOutcome Transfer(int from, int to, size_t bytes, int64_t rows,
                           std::string label, int attempt = 0,
                           std::optional<TransferDirection> dir = std::nullopt);

  const std::vector<TransferRecord>& transfers() const { return transfers_; }

  size_t TotalBytes() const;
  size_t BytesToCoordinator() const;    ///< upstream bytes (record dir)
  size_t BytesFromCoordinator() const;  ///< downstream bytes (record dir)
  int64_t RowsToCoordinator() const;
  int64_t RowsFromCoordinator() const;

  /// Bytes of retransmissions (records with attempt > 0).
  size_t RetransmittedBytes() const;
  /// Number of messages the injector lost.
  int DroppedCount() const;

  /// Clears all recorded traffic (metrics for a fresh query) and, when an
  /// injector is attached, its event log (its schedule is kept).
  void Reset();

  /// A per-round traffic summary for debugging, including retransmissions
  /// and the injected-fault summary when faults occurred.
  std::string Report() const;

 private:
  NetworkConfig config_;
  FaultInjector* injector_ = nullptr;
  std::vector<TransferRecord> transfers_;
  std::vector<std::string> round_labels_;
  int current_round_ = -1;
};

}  // namespace skalla

#endif  // SKALLA_NET_SIM_NETWORK_H_
