#include "dist/metrics.h"

#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace skalla {

SiteLoad& SiteLoad::operator+=(const SiteLoad& other) {
  cpu_sec += other.cpu_sec;
  success_sec += other.success_sec;
  bytes_in += other.bytes_in;
  bytes_out += other.bytes_out;
  groups_in += other.groups_in;
  groups_out += other.groups_out;
  bytes_retransmitted += other.bytes_retransmitted;
  groups_retry_in += other.groups_retry_in;
  groups_retry_out += other.groups_retry_out;
  bytes_saved_by_delta += other.bytes_saved_by_delta;
  bytes_baseline_skl1 += other.bytes_baseline_skl1;
  attempts += other.attempts;
  retries += other.retries;
  timeouts += other.timeouts;
  drops += other.drops;
  failovers += other.failovers;
  scan += other.scan;
  return *this;
}

SiteLoad& RoundMetrics::Exchange(int id) {
  for (SiteLoad& row : exchanges) {
    if (row.site == id) return row;
  }
  SiteLoad& row = exchanges.emplace_back();
  row.site = id;
  return row;
}

SiteLoad RoundMetrics::Total() const {
  SiteLoad total;
  for (const SiteLoad& row : exchanges) total += row;
  return total;
}

SiteSeconds RoundMetrics::ReplySeconds() const {
  SiteSeconds out;
  int replied = 0;
  double sum = 0;
  for (const SiteLoad& row : exchanges) {
    if (row.site < 0 || !row.replied()) continue;
    const double sec = row.success_sec;
    out.min = replied == 0 ? sec : std::min(out.min, sec);
    if (replied == 0 || sec > out.max) {
      out.max = sec;
      out.slowest_site = row.site;
    }
    sum += sec;
    ++replied;
  }
  if (replied > 0) out.mean = sum / static_cast<double>(replied);
  return out;
}

SiteLoad ExecutionMetrics::Total() const {
  SiteLoad total;
  for (const RoundMetrics& r : rounds) total += r.Total();
  return total;
}

int ExecutionMetrics::RebalanceSplits() const {
  int splits = 0;
  for (const RoundMetrics& r : rounds) {
    for (const SiteLoad& row : r.exchanges) splits += row.rebalance;
  }
  return splits;
}

double ExecutionMetrics::CompressionRatio() const {
  const SiteLoad total = Total();
  const size_t actual = total.bytes_in + total.bytes_out;
  const size_t baseline = total.bytes_baseline_skl1;
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
  const SiteLoad total = Total();
  std::ostringstream os;
  os << StrFormat("%d round(s), response %.4fs (site %.4fs, coord %.4fs, "
                  "comm %.4fs), traffic %s out / %s in, groups %lld out / "
                  "%lld in\n",
                  NumRounds(), ResponseSeconds(), SiteCpuSeconds(),
                  CoordCpuSeconds(), CommSeconds(),
                  HumanBytes(static_cast<double>(total.bytes_in)).c_str(),
                  HumanBytes(static_cast<double>(total.bytes_out)).c_str(),
                  static_cast<long long>(total.groups_in),
                  static_cast<long long>(total.groups_out));
  if (total.retries > 0 || total.timeouts > 0 || total.drops > 0 ||
      total.failovers > 0) {
    os << StrFormat(
        "faults survived: %d retry(ies), %d timeout(s), %d drop(s), "
        "%d failover(s), %s retransmitted\n",
        total.retries, total.timeouts, total.drops, total.failovers,
        HumanBytes(static_cast<double>(total.bytes_retransmitted)).c_str());
  }
  if (RebalanceSplits() > 0) {
    // The split surcharge: the helper rows' first-attempt traffic (their
    // retries are in the retry surcharge).
    SiteLoad helpers;
    for (const RoundMetrics& r : rounds) {
      for (const SiteLoad& row : r.exchanges) {
        if (row.rebalance) helpers += row;
      }
    }
    os << StrFormat(
        "skew: %d straggler split(s), %s rebalance traffic, %lld groups "
        "out / %lld in\n",
        RebalanceSplits(),
        HumanBytes(static_cast<double>(helpers.bytes_in + helpers.bytes_out -
                                       helpers.bytes_retransmitted))
            .c_str(),
        static_cast<long long>(helpers.groups_in - helpers.groups_retry_in),
        static_cast<long long>(helpers.groups_out -
                               helpers.groups_retry_out));
  }
  if (total.bytes_saved_by_delta > 0 || CompressionRatio() > 1.0) {
    os << StrFormat(
        "wire: %s saved by delta shipping, %.2fx vs SKL1 full-ship\n",
        HumanBytes(static_cast<double>(total.bytes_saved_by_delta)).c_str(),
        CompressionRatio());
  }
  if (total.scan.rows_scanned > 0) {
    os << StrFormat(
        "scan: %lld detail row(s), %lld match(es), morsels %lld vectorized "
        "/ %lld scalar\n",
        static_cast<long long>(total.scan.rows_scanned),
        static_cast<long long>(total.scan.rows_matched),
        static_cast<long long>(total.scan.morsels_vectorized),
        static_cast<long long>(total.scan.morsels_scalar));
  }
  for (const RoundMetrics& r : rounds) {
    const SiteLoad round = r.Total();
    os << StrFormat(
        "  %-28s sites=%d  out=%s in=%s  site_cpu(max)=%.4fs "
        "coord_cpu=%.4fs comm=%.4fs\n",
        r.label.c_str(), r.sites,
        HumanBytes(static_cast<double>(round.bytes_in)).c_str(),
        HumanBytes(static_cast<double>(round.bytes_out)).c_str(),
        r.site_cpu_max_sec, r.coord_cpu_sec, r.comm_sec);
  }
  return os.str();
}

void PublishExecutionMetrics(const ExecutionMetrics& metrics) {
  if (!obs::MetricsEnabled()) return;
  const SiteLoad total = metrics.Total();
  const std::pair<const char*, int64_t> totals[] = {
      {"skalla_dist_rounds_total", metrics.NumRounds()},
      {"skalla_dist_retries_total", total.retries},
      {"skalla_dist_timeouts_total", total.timeouts},
      {"skalla_dist_drops_total", total.drops},
      {"skalla_dist_failovers_total", total.failovers},
      {"skalla_dist_bytes_shipped_total",
       static_cast<int64_t>(total.bytes_in + total.bytes_out)},
      {"skalla_dist_bytes_saved_by_delta_total",
       static_cast<int64_t>(total.bytes_saved_by_delta)},
      {"skalla_gmdj_rows_scanned_total", total.scan.rows_scanned},
      {"skalla_gmdj_rows_matched_total", total.scan.rows_matched},
  };
  for (const auto& [name, value] : totals) {
    obs::GetCounter(name).Add(static_cast<uint64_t>(value));
  }
  for (const RoundMetrics& r : metrics.rounds) {
    for (const SiteLoad& load : r.exchanges) {
      if (load.site < 0) continue;  // an aggregator hop: no site of its own
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

StragglerReport BuildStragglerReport(const ExecutionMetrics& metrics) {
  std::map<int, SiteLoad> by_site;
  for (const RoundMetrics& r : metrics.rounds) {
    for (const SiteLoad& load : r.exchanges) {
      if (load.site < 0) continue;
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
