#ifndef SKALLA_STORAGE_CATALOG_H_
#define SKALLA_STORAGE_CATALOG_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace skalla {

/// \brief A named collection of tables.
///
/// Each Skalla site holds a Catalog of its local partitions, which a replica
/// shares. Tables are held by shared pointer, so sharing copies no rows.
/// Readers outside a site take a relation as the list of its fragments
/// (Warehouse::fragments(), storage/fragment_list.h);
/// Warehouse::central_catalog() copies them into a Catalog of unions per
/// call, for inspection only.
class Catalog {
 public:
  Catalog() = default;

  /// Registers a table; fails with AlreadyExists on duplicate names.
  Status AddTable(const std::string& name, std::shared_ptr<const Table> table);

  /// Registers or replaces a table.
  void PutTable(const std::string& name, std::shared_ptr<const Table> table);

  /// Looks up a table by name.
  Result<std::shared_ptr<const Table>> GetTable(const std::string& name) const;

  bool HasTable(const std::string& name) const {
    return tables_.count(name) > 0;
  }

  /// Removes a table if present; returns whether it existed.
  bool DropTable(const std::string& name);

  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, std::shared_ptr<const Table>> tables_;
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_CATALOG_H_
