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
/// shares; Warehouse::central_catalog() builds one of unioned relations per
/// call. Tables are held by shared pointer, so sharing copies no rows.
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
