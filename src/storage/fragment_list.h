#ifndef SKALLA_STORAGE_FRAGMENT_LIST_H_
#define SKALLA_STORAGE_FRAGMENT_LIST_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace skalla {

/// Relations by name, each as the ordered list of its fragments; a relation
/// held whole is the one-fragment list of itself.
using FragmentCatalog =
    std::map<std::string, std::vector<std::shared_ptr<const Table>>>;

/// \brief A relation read in place as the ordered list of its fragments.
///
/// Row d of the list is the row a UnionAll of the fragments would hold at
/// d — the fragments one after another, each in its own row order — but no
/// row is copied: the list borrows the fragments, which must outlive it.
/// Every fragment is read under the first one's schema. A Table converts
/// implicitly into the one-fragment list of itself.
class FragmentList {
 public:
  FragmentList(const Table& table)  // NOLINT(runtime/explicit)
      : parts_{&table}, ends_{table.num_rows()} {}

  /// The list of `fragments`, in order. Fails with InvalidArgument, as
  /// UnionAll does, when two fragments differ in arity, and when there is
  /// no fragment to take the schema from.
  static Result<FragmentList> Of(
      const std::vector<std::shared_ptr<const Table>>& fragments);

  /// Relation `name` of `relations`; NotFound when there is none.
  static Result<FragmentList> Of(const FragmentCatalog& relations,
                                 const std::string& name);

  const Schema& schema() const { return parts_[0]->schema(); }
  int64_t num_rows() const { return ends_.back(); }
  size_t num_fragments() const { return parts_.size(); }
  const Table& fragment(size_t i) const { return *parts_[i]; }

  /// Calls fn(row) for rows [lo, hi) of the list, in order.
  template <typename Fn>
  void ForEachRow(int64_t lo, int64_t hi, Fn&& fn) const {
    int64_t start = 0;
    for (size_t f = 0; f < parts_.size() && start < hi; ++f) {
      const Table& part = *parts_[f];
      const int64_t end = ends_[f];
      for (int64_t d = std::max(lo, start); d < std::min(hi, end); ++d) {
        fn(part.row(d - start));
      }
      start = end;
    }
  }

 private:
  FragmentList() = default;

  std::vector<const Table*> parts_;
  /// ends_[f]: rows in fragments 0..f, so fragment f holds list rows
  /// [ends_[f - 1], ends_[f]).
  std::vector<int64_t> ends_;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_FRAGMENT_LIST_H_
