#ifndef SKALLA_GMDJ_CENTRAL_EVAL_H_
#define SKALLA_GMDJ_CENTRAL_EVAL_H_

#include "common/result.h"
#include "gmdj/gmdj.h"
#include "storage/fragment_list.h"

namespace skalla {

/// \brief Evaluates the base query B₀ over one relation instance: a site's
/// fragment, or a relation read in place as its fragments.
///
/// One pass filters and projects each source row; no filtered copy of the
/// source is made. The rows come back in ascending key order
/// (lexicographic over the projected columns): NULL < numbers by exact
/// value < NaN < strings, with ties — NaNs, 5 and 5.0 — kept in
/// first-appearance order. Every site derives its B_i this way, so sorted
/// keys reach the wire.
Result<Table> EvalBaseQuery(const BaseQuery& base, const FragmentList& source);

/// \brief Centralized reference evaluation of a complex GMDJ expression.
///
/// Evaluates the chain against the full relations in `relations` (i.e. as
/// if all data lived in one warehouse), each read in place as its fragments
/// in order, so the answer equals the evaluation over their UnionAll byte
/// for byte and no row is copied. This is the correctness oracle for the
/// distributed evaluator: by Theorems 1, 3, 4, 5 every distributed plan
/// must produce exactly this result.
///
/// Scans run scalar (LocalGmdjOptions::vectorize = false), sharing no typed
/// kernel with the site scans they check; `num_threads` is forwarded to the
/// morsel-driven evaluator (0 = the SKALLA_THREADS default, 1 = sequential).
Result<Table> EvalGmdjExprCentralized(const GmdjExpr& expr,
                                      const FragmentCatalog& relations,
                                      int num_threads = 0);

}  // namespace skalla

#endif  // SKALLA_GMDJ_CENTRAL_EVAL_H_
