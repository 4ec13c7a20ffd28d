#include "storage/fragment_list.h"

namespace skalla {

Result<FragmentList> FragmentList::Of(
    const std::vector<std::shared_ptr<const Table>>& fragments) {
  if (fragments.empty()) {
    return Status::InvalidArgument("a relation needs at least one fragment");
  }
  FragmentList list;
  list.parts_.reserve(fragments.size());
  list.ends_.reserve(fragments.size());
  const Schema& first = fragments[0]->schema();
  int64_t rows = 0;
  for (const std::shared_ptr<const Table>& fragment : fragments) {
    if (fragment->schema().num_fields() != first.num_fields()) {
      return Status::InvalidArgument(
          "union of incompatible schemas: [" + first.ToString() + "] vs [" +
          fragment->schema().ToString() + "]");
    }
    rows += fragment->num_rows();
    list.parts_.push_back(fragment.get());
    list.ends_.push_back(rows);
  }
  return list;
}

Result<FragmentList> FragmentList::Of(const FragmentCatalog& relations,
                                      const std::string& name) {
  auto it = relations.find(name);
  if (it == relations.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return Of(it->second);
}

}  // namespace skalla
