#include "tpc/partitioner.h"

#include <limits>

namespace skalla {

namespace {

Result<int> AttrIndex(const Table& table, const std::string& attr) {
  return table.schema().MustIndexOf(attr);
}

PartitionedData MakeFragments(const Table& table, int num_sites,
                              const std::vector<int>& assignment) {
  // Each fragment is sized to its row count up front, so no fragment
  // reallocates (or ends with spare slots) on the way.
  std::vector<int64_t> rows_of(static_cast<size_t>(num_sites), 0);
  for (int site : assignment) ++rows_of[static_cast<size_t>(site)];
  std::vector<Table> tables;
  tables.reserve(static_cast<size_t>(num_sites));
  for (int i = 0; i < num_sites; ++i) {
    tables.emplace_back(table.schema_ptr());
    tables.back().Reserve(rows_of[static_cast<size_t>(i)]);
  }
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    tables[static_cast<size_t>(assignment[static_cast<size_t>(r)])].AddRow(
        table.row(r));
  }
  PartitionedData out;
  out.fragments.reserve(static_cast<size_t>(num_sites));
  for (Table& t : tables) {
    out.fragments.push_back(std::make_shared<const Table>(std::move(t)));
  }
  out.infos.resize(static_cast<size_t>(num_sites));
  return out;
}

}  // namespace

Result<PartitionedData> PartitionByRange(const Table& table,
                                         const std::string& attr,
                                         int num_sites, int64_t attr_min,
                                         int64_t attr_max) {
  if (num_sites <= 0) {
    return Status::InvalidArgument("num_sites must be positive");
  }
  if (attr_max < attr_min) {
    return Status::InvalidArgument("attr_max < attr_min");
  }
  SKALLA_ASSIGN_OR_RETURN(int idx, AttrIndex(table, attr));
  const int64_t span = attr_max - attr_min + 1;
  const int64_t per_site = (span + num_sites - 1) / num_sites;

  std::vector<int> assignment(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.Get(r, idx);
    if (!v.is_int64()) {
      return Status::TypeError("range partitioning requires int64 attribute '" +
                               attr + "'");
    }
    int64_t site = (v.AsInt64() - attr_min) / per_site;
    if (site < 0) site = 0;
    if (site >= num_sites) site = num_sites - 1;
    assignment[static_cast<size_t>(r)] = static_cast<int>(site);
  }
  PartitionedData out = MakeFragments(table, num_sites, assignment);
  for (int s = 0; s < num_sites; ++s) {
    const int64_t lo = attr_min + s * per_site;
    int64_t hi = attr_min + (s + 1) * per_site - 1;
    if (s == num_sites - 1) hi = attr_max;
    out.infos[static_cast<size_t>(s)].SetDomain(
        attr, AttrDomain::Range(Value(lo), Value(hi)));
  }
  return out;
}

Result<PartitionedData> PartitionByRangeWeighted(const Table& table,
                                                 const std::string& attr,
                                                 int num_sites,
                                                 int64_t attr_min,
                                                 int64_t attr_max) {
  if (num_sites <= 0) {
    return Status::InvalidArgument("num_sites must be positive");
  }
  if (attr_max < attr_min) {
    return Status::InvalidArgument("attr_max < attr_min");
  }
  SKALLA_ASSIGN_OR_RETURN(int idx, AttrIndex(table, attr));

  // Exact per-key histogram over the (dense, generator-sized) domain.
  const size_t span = static_cast<size_t>(attr_max - attr_min + 1);
  std::vector<int64_t> key_rows(span, 0);
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    const Value& v = table.Get(r, idx);
    if (!v.is_int64()) {
      return Status::TypeError("range partitioning requires int64 attribute '" +
                               attr + "'");
    }
    const int64_t k = v.AsInt64();
    if (k < attr_min || k > attr_max) {
      return Status::InvalidArgument(
          "attribute value outside [attr_min, attr_max]");
    }
    key_rows[static_cast<size_t>(k - attr_min)]++;
  }

  // Greedy boundary placement: advance through keys in order, closing a
  // site's range once it reached the fair share of rows — keeping every
  // remaining site at least one key of the domain.
  const double fair =
      static_cast<double>(table.num_rows()) / static_cast<double>(num_sites);
  std::vector<int64_t> boundary_lo(static_cast<size_t>(num_sites), attr_min);
  std::vector<int64_t> boundary_hi(static_cast<size_t>(num_sites), attr_max);
  int site = 0;
  int64_t site_rows = 0;
  boundary_lo[0] = attr_min;
  for (size_t k = 0; k < span; ++k) {
    site_rows += key_rows[k];
    const size_t keys_left = span - 1 - k;
    const size_t sites_left = static_cast<size_t>(num_sites - 1 - site);
    if (site < num_sites - 1 &&
        (static_cast<double>(site_rows) >= fair || keys_left <= sites_left)) {
      boundary_hi[static_cast<size_t>(site)] =
          attr_min + static_cast<int64_t>(k);
      ++site;
      boundary_lo[static_cast<size_t>(site)] =
          attr_min + static_cast<int64_t>(k) + 1;
      site_rows = 0;
    }
  }
  boundary_hi[static_cast<size_t>(num_sites - 1)] = attr_max;

  std::vector<int> assignment(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    const int64_t k = table.Get(r, idx).AsInt64();
    // Binary search over the (few) contiguous boundaries.
    int lo = 0, hi = num_sites - 1;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (k > boundary_hi[static_cast<size_t>(mid)]) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    assignment[static_cast<size_t>(r)] = lo;
  }
  PartitionedData out = MakeFragments(table, num_sites, assignment);
  for (int s = 0; s < num_sites; ++s) {
    out.infos[static_cast<size_t>(s)].SetDomain(
        attr, AttrDomain::Range(Value(boundary_lo[static_cast<size_t>(s)]),
                                Value(boundary_hi[static_cast<size_t>(s)])));
  }
  return out;
}

Result<PartitionedData> PartitionByHash(const Table& table,
                                        const std::string& attr,
                                        int num_sites) {
  if (num_sites <= 0) {
    return Status::InvalidArgument("num_sites must be positive");
  }
  SKALLA_ASSIGN_OR_RETURN(int idx, AttrIndex(table, attr));
  std::vector<int> assignment(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    assignment[static_cast<size_t>(r)] = static_cast<int>(
        table.Get(r, idx).Hash() % static_cast<uint64_t>(num_sites));
  }
  return MakeFragments(table, num_sites, assignment);
}

Result<PartitionedData> PartitionRoundRobin(const Table& table,
                                            int num_sites) {
  if (num_sites <= 0) {
    return Status::InvalidArgument("num_sites must be positive");
  }
  std::vector<int> assignment(static_cast<size_t>(table.num_rows()));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    assignment[static_cast<size_t>(r)] = static_cast<int>(r % num_sites);
  }
  return MakeFragments(table, num_sites, assignment);
}

Status ProfileDomains(PartitionedData* data,
                      const std::vector<std::string>& attrs) {
  for (size_t s = 0; s < data->fragments.size(); ++s) {
    const Table& fragment = *data->fragments[s];
    for (const std::string& attr : attrs) {
      SKALLA_ASSIGN_OR_RETURN(int idx, fragment.schema().MustIndexOf(attr));
      if (fragment.num_rows() == 0) {
        // An empty fragment can contain nothing; an empty value set is the
        // tightest (and sound) domain.
        data->infos[s].SetDomain(attr, AttrDomain::Set({}));
        continue;
      }
      Value lo = fragment.Get(0, idx);
      Value hi = lo;
      for (int64_t r = 1; r < fragment.num_rows(); ++r) {
        const Value& v = fragment.Get(r, idx);
        if (v.Compare(lo) < 0) lo = v;
        if (v.Compare(hi) > 0) hi = v;
      }
      data->infos[s].SetDomain(attr, AttrDomain::Range(lo, hi));
    }
  }
  return Status::OK();
}

}  // namespace skalla
