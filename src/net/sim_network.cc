#include "net/sim_network.h"

#include <sstream>

#include "common/string_util.h"

namespace skalla {

void SimNetwork::BeginRound(std::string label) {
  round_labels_.push_back(std::move(label));
  current_round_ = static_cast<int>(round_labels_.size()) - 1;
}

TransferOutcome SimNetwork::Transfer(int from, int to, size_t bytes,
                                     int64_t rows, std::string label,
                                     int attempt,
                                     std::optional<TransferDirection> dir) {
  TransferRecord record;
  record.from = from;
  record.to = to;
  record.bytes = bytes;
  record.rows = rows;
  record.round = current_round_;
  record.label = std::move(label);
  record.dir = dir.has_value() ? *dir
                               : (from == kCoordinatorId
                                      ? TransferDirection::kToSite
                                      : TransferDirection::kToCoordinator);
  record.attempt = attempt;
  record.seconds = config_.TransferSeconds(bytes);

  // Messages with a site endpoint are subject to injected faults;
  // aggregator-internal hops are assumed reliable.
  const int site = from >= 0 ? from : to;
  if (injector_ != nullptr && site >= 0) {
    const TransferFate fate = injector_->Decide(
        site, current_round_, record.dir, attempt, record.seconds,
        record.label);
    record.delivered = fate.delivered;
    if (fate.delivered) record.seconds += fate.extra_delay_sec;
  }

  TransferOutcome outcome{record.delivered, record.seconds};
  transfers_.push_back(std::move(record));
  return outcome;
}

size_t SimNetwork::TotalBytes() const {
  size_t total = 0;
  for (const TransferRecord& t : transfers_) total += t.bytes;
  return total;
}

size_t SimNetwork::BytesToCoordinator() const {
  size_t total = 0;
  for (const TransferRecord& t : transfers_) {
    if (t.dir == TransferDirection::kToCoordinator) total += t.bytes;
  }
  return total;
}

size_t SimNetwork::BytesFromCoordinator() const {
  size_t total = 0;
  for (const TransferRecord& t : transfers_) {
    if (t.dir == TransferDirection::kToSite) total += t.bytes;
  }
  return total;
}

int64_t SimNetwork::RowsToCoordinator() const {
  int64_t total = 0;
  for (const TransferRecord& t : transfers_) {
    if (t.dir == TransferDirection::kToCoordinator) total += t.rows;
  }
  return total;
}

int64_t SimNetwork::RowsFromCoordinator() const {
  int64_t total = 0;
  for (const TransferRecord& t : transfers_) {
    if (t.dir == TransferDirection::kToSite) total += t.rows;
  }
  return total;
}

size_t SimNetwork::RetransmittedBytes() const {
  size_t total = 0;
  for (const TransferRecord& t : transfers_) {
    if (t.attempt > 0) total += t.bytes;
  }
  return total;
}

int SimNetwork::DroppedCount() const {
  int total = 0;
  for (const TransferRecord& t : transfers_) {
    if (!t.delivered) ++total;
  }
  return total;
}

void SimNetwork::Reset() {
  transfers_.clear();
  round_labels_.clear();
  current_round_ = -1;
  if (injector_ != nullptr) injector_->ClearEvents();
}

std::string SimNetwork::Report() const {
  std::ostringstream os;
  for (size_t r = 0; r < round_labels_.size(); ++r) {
    size_t to_sites = 0;
    size_t to_coord = 0;
    size_t resent = 0;
    int dropped = 0;
    for (const TransferRecord& t : transfers_) {
      if (t.round != static_cast<int>(r)) continue;
      if (t.dir == TransferDirection::kToSite) to_sites += t.bytes;
      if (t.dir == TransferDirection::kToCoordinator) to_coord += t.bytes;
      if (t.attempt > 0) resent += t.bytes;
      if (!t.delivered) ++dropped;
    }
    os << StrFormat("round %zu (%s): coord->sites %s, sites->coord %s", r,
                    round_labels_[r].c_str(),
                    HumanBytes(static_cast<double>(to_sites)).c_str(),
                    HumanBytes(static_cast<double>(to_coord)).c_str());
    if (resent > 0 || dropped > 0) {
      os << StrFormat(", retransmitted %s, dropped %d msg(s)",
                      HumanBytes(static_cast<double>(resent)).c_str(),
                      dropped);
    }
    os << "\n";
  }
  os << "total: " << HumanBytes(static_cast<double>(TotalBytes()));
  if (RetransmittedBytes() > 0) {
    os << " (incl. "
       << HumanBytes(static_cast<double>(RetransmittedBytes()))
       << " retransmitted)";
  }
  if (injector_ != nullptr && !injector_->events().empty()) {
    os << "\n" << injector_->Summary();
  }
  return os.str();
}

}  // namespace skalla
