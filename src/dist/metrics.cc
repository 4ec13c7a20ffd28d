#include "dist/metrics.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace skalla {

size_t ExecutionMetrics::TotalBytes() const {
  return BytesToSites() + BytesToCoord();
}

size_t ExecutionMetrics::BytesToSites() const {
  size_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.bytes_to_sites;
  return total;
}

size_t ExecutionMetrics::BytesToCoord() const {
  size_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.bytes_to_coord;
  return total;
}

int64_t ExecutionMetrics::GroupsToSites() const {
  int64_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.groups_to_sites;
  return total;
}

int64_t ExecutionMetrics::GroupsToCoord() const {
  int64_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.groups_to_coord;
  return total;
}

int ExecutionMetrics::Retries() const {
  int total = 0;
  for (const RoundMetrics& r : rounds) total += r.retries;
  return total;
}

int ExecutionMetrics::Timeouts() const {
  int total = 0;
  for (const RoundMetrics& r : rounds) total += r.timeouts;
  return total;
}

int ExecutionMetrics::Drops() const {
  int total = 0;
  for (const RoundMetrics& r : rounds) total += r.drops;
  return total;
}

int ExecutionMetrics::Failovers() const {
  int total = 0;
  for (const RoundMetrics& r : rounds) total += r.failovers;
  return total;
}

size_t ExecutionMetrics::BytesRetransmitted() const {
  size_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.bytes_retransmitted;
  return total;
}

int64_t ExecutionMetrics::RetryGroupsToSites() const {
  int64_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.groups_retry_to_sites;
  return total;
}

int64_t ExecutionMetrics::RetryGroupsToCoord() const {
  int64_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.groups_retry_to_coord;
  return total;
}

size_t ExecutionMetrics::BytesSavedByDelta() const {
  size_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.bytes_saved_by_delta;
  return total;
}

size_t ExecutionMetrics::BytesBaselineSkl1() const {
  size_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.bytes_baseline_skl1;
  return total;
}

int64_t ExecutionMetrics::DetailRowsScanned() const {
  int64_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.detail_rows_scanned;
  return total;
}

int64_t ExecutionMetrics::DetailRowsMatched() const {
  int64_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.detail_rows_matched;
  return total;
}

int64_t ExecutionMetrics::MorselsVectorized() const {
  int64_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.morsels_vectorized;
  return total;
}

int64_t ExecutionMetrics::MorselsScalar() const {
  int64_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.morsels_scalar;
  return total;
}

int ExecutionMetrics::RebalanceSplits() const {
  int total = 0;
  for (const RoundMetrics& r : rounds) total += r.rebalance_splits;
  return total;
}

int64_t ExecutionMetrics::RebalanceGroupsToSites() const {
  int64_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.groups_rebalance_to_sites;
  return total;
}

int64_t ExecutionMetrics::RebalanceGroupsToCoord() const {
  int64_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.groups_rebalance_to_coord;
  return total;
}

size_t ExecutionMetrics::RebalanceBytes() const {
  size_t total = 0;
  for (const RoundMetrics& r : rounds) total += r.bytes_rebalance;
  return total;
}

double ExecutionMetrics::CompressionRatio() const {
  const size_t actual = TotalBytes();
  const size_t baseline = BytesBaselineSkl1();
  if (actual == 0 || baseline == 0) return 1.0;
  return static_cast<double>(baseline) / static_cast<double>(actual);
}

double ExecutionMetrics::SiteCpuSeconds() const {
  double total = 0;
  for (const RoundMetrics& r : rounds) total += r.site_cpu_max_sec;
  return total;
}

double ExecutionMetrics::CoordCpuSeconds() const {
  double total = 0;
  for (const RoundMetrics& r : rounds) total += r.coord_cpu_sec;
  return total;
}

double ExecutionMetrics::CommSeconds() const {
  double total = 0;
  for (const RoundMetrics& r : rounds) total += r.comm_sec;
  return total;
}

double ExecutionMetrics::ResponseSeconds() const {
  double total = 0;
  for (const RoundMetrics& r : rounds) total += r.ResponseSeconds();
  return total;
}

std::string ExecutionMetrics::ToString() const {
  std::ostringstream os;
  os << StrFormat("%d round(s), response %.4fs (site %.4fs, coord %.4fs, "
                  "comm %.4fs), traffic %s out / %s in, groups %lld out / "
                  "%lld in\n",
                  NumRounds(), ResponseSeconds(), SiteCpuSeconds(),
                  CoordCpuSeconds(), CommSeconds(),
                  HumanBytes(static_cast<double>(BytesToSites())).c_str(),
                  HumanBytes(static_cast<double>(BytesToCoord())).c_str(),
                  static_cast<long long>(GroupsToSites()),
                  static_cast<long long>(GroupsToCoord()));
  if (Retries() > 0 || Timeouts() > 0 || Drops() > 0 || Failovers() > 0) {
    os << StrFormat(
        "faults survived: %d retry(ies), %d timeout(s), %d drop(s), "
        "%d failover(s), %s retransmitted\n",
        Retries(), Timeouts(), Drops(), Failovers(),
        HumanBytes(static_cast<double>(BytesRetransmitted())).c_str());
  }
  if (RebalanceSplits() > 0) {
    os << StrFormat(
        "skew: %d straggler split(s), %s rebalance traffic, %lld groups "
        "out / %lld in\n",
        RebalanceSplits(),
        HumanBytes(static_cast<double>(RebalanceBytes())).c_str(),
        static_cast<long long>(RebalanceGroupsToSites()),
        static_cast<long long>(RebalanceGroupsToCoord()));
  }
  if (BytesSavedByDelta() > 0 || CompressionRatio() > 1.0) {
    os << StrFormat(
        "wire: %s saved by delta shipping, %.2fx vs SKL1 full-ship\n",
        HumanBytes(static_cast<double>(BytesSavedByDelta())).c_str(),
        CompressionRatio());
  }
  if (DetailRowsScanned() > 0) {
    os << StrFormat(
        "scan: %lld detail row(s), %lld match(es), morsels %lld vectorized "
        "/ %lld scalar\n",
        static_cast<long long>(DetailRowsScanned()),
        static_cast<long long>(DetailRowsMatched()),
        static_cast<long long>(MorselsVectorized()),
        static_cast<long long>(MorselsScalar()));
  }
  for (const RoundMetrics& r : rounds) {
    os << StrFormat(
        "  %-28s sites=%d  out=%s in=%s  site_cpu(max)=%.4fs "
        "coord_cpu=%.4fs comm=%.4fs\n",
        r.label.c_str(), r.sites,
        HumanBytes(static_cast<double>(r.bytes_to_sites)).c_str(),
        HumanBytes(static_cast<double>(r.bytes_to_coord)).c_str(),
        r.site_cpu_max_sec, r.coord_cpu_sec, r.comm_sec);
  }
  return os.str();
}

void PublishExecutionMetrics(const ExecutionMetrics& metrics) {
  if (!obs::MetricsEnabled()) return;
  const std::pair<const char*, int64_t> totals[] = {
      {"skalla_dist_rounds_total", metrics.NumRounds()},
      {"skalla_dist_retries_total", metrics.Retries()},
      {"skalla_dist_timeouts_total", metrics.Timeouts()},
      {"skalla_dist_drops_total", metrics.Drops()},
      {"skalla_dist_failovers_total", metrics.Failovers()},
      {"skalla_dist_bytes_shipped_total",
       static_cast<int64_t>(metrics.TotalBytes())},
      {"skalla_dist_bytes_saved_by_delta_total",
       static_cast<int64_t>(metrics.BytesSavedByDelta())},
      {"skalla_gmdj_rows_scanned_total", metrics.DetailRowsScanned()},
      {"skalla_gmdj_rows_matched_total", metrics.DetailRowsMatched()},
  };
  for (const auto& [name, value] : totals) {
    obs::GetCounter(name).Add(static_cast<uint64_t>(value));
  }
  for (const RoundMetrics& r : metrics.rounds) {
    for (const SiteLoad& load : r.site_loads) {
      const std::string site = std::to_string(load.site);
      obs::GetHistogram("skalla_dist_site_round_seconds{site=\"" + site + "\"}",
                        obs::HistogramLayout::LatencySeconds())
          .Observe(load.cpu_sec);
      obs::GetCounter("skalla_dist_site_bytes_total{dir=\"in\",site=\"" +
                      site + "\"}")
          .Add(load.bytes_in);
      obs::GetCounter("skalla_dist_site_bytes_total{dir=\"out\",site=\"" +
                      site + "\"}")
          .Add(load.bytes_out);
    }
  }
}

namespace {

double SkewFactor(double max_value, double sum, size_t n) {
  if (n == 0 || sum <= 0) return 1.0;
  const double mean = sum / static_cast<double>(n);
  return mean > 0 ? max_value / mean : 1.0;
}

}  // namespace

SiteLoad& SiteLoad::operator+=(const SiteLoad& other) {
  cpu_sec += other.cpu_sec;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  groups_in += other.groups_in;
  groups_out += other.groups_out;
  attempts += other.attempts;
  retries += other.retries;
  timeouts += other.timeouts;
  drops += other.drops;
  failovers += other.failovers;
  return *this;
}

StragglerReport BuildStragglerReport(const ExecutionMetrics& metrics) {
  std::map<int, SiteLoad> by_site;
  for (const RoundMetrics& r : metrics.rounds) {
    for (const SiteLoad& load : r.site_loads) {
      SiteLoad& sum = by_site[load.site];
      sum.site = load.site;
      sum += load;
    }
  }
  StragglerReport report;
  double cpu_sum = 0, cpu_max = 0;
  double bytes_sum = 0, bytes_max = 0;
  for (const auto& entry : by_site) {
    const SiteLoad& site = entry.second;
    report.sites.push_back(site);
    cpu_sum += site.cpu_sec;
    const double site_bytes =
        static_cast<double>(site.bytes_in + site.bytes_out);
    bytes_sum += site_bytes;
    if (site.cpu_sec > cpu_max) {
      cpu_max = site.cpu_sec;
      report.slowest_site = site.site;
    }
    bytes_max = std::max(bytes_max, site_bytes);
  }
  report.cpu_skew = SkewFactor(cpu_max, cpu_sum, report.sites.size());
  report.bytes_skew = SkewFactor(bytes_max, bytes_sum, report.sites.size());
  return report;
}

std::string StragglerReport::ToString() const {
  std::string out;
  char line[256];
  out +=
      "  site   cpu(s)    bytes in/out       groups in/out   att  rty  tmo  "
      "drp  fov\n";
  for (const SiteLoad& site : sites) {
    std::snprintf(line, sizeof(line),
                  "  %4d %8.4f %9zu/%-9zu %8lld/%-8lld %4d %4d %4d %4d %4d\n",
                  site.site, site.cpu_sec, site.bytes_in, site.bytes_out,
                  static_cast<long long>(site.groups_in),
                  static_cast<long long>(site.groups_out), site.attempts,
                  site.retries, site.timeouts, site.drops, site.failovers);
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  cpu skew (max/mean) %.2fx   bytes skew %.2fx", cpu_skew,
                bytes_skew);
  out += line;
  if (slowest_site >= 0) {
    std::snprintf(line, sizeof(line), "   slowest site %d", slowest_site);
    out += line;
  }
  out += "\n";
  return out;
}

}  // namespace skalla
