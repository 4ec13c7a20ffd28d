#ifndef SKALLA_SKALLA_PERSISTENCE_H_
#define SKALLA_SKALLA_PERSISTENCE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "skalla/warehouse.h"

namespace skalla {

/// \brief Saves a warehouse to a directory.
///
/// Layout:
///   <dir>/MANIFEST            site count + per-site partition metadata
///   <dir>/site<N>/<table>.skl binary fragments (storage/serializer.h)
///
/// Fragments are written as SKL2; LoadWarehouse also reads the SKL1
/// fragments earlier versions wrote under the same manifest. Both formats
/// are byte-exact and round-trip NULLs and types; the manifest is a
/// line-oriented text format (see the .cc for the grammar). Overwrites
/// existing files; the directory must exist.
Status SaveWarehouse(const Warehouse& warehouse, const std::string& dir);

/// Loads a warehouse previously written by SaveWarehouse. Site count,
/// fragments and partition metadata are restored; queries behave
/// identically on the restored instance.
Result<std::unique_ptr<Warehouse>> LoadWarehouse(const std::string& dir);

}  // namespace skalla

#endif  // SKALLA_SKALLA_PERSISTENCE_H_
