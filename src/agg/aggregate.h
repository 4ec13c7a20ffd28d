#ifndef SKALLA_AGG_AGGREGATE_H_
#define SKALLA_AGG_AGGREGATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "storage/schema.h"
#include "storage/value.h"

namespace skalla {

/// The distributive/algebraic aggregate functions supported in GMDJ blocks.
///
/// All five decompose into *sub-aggregates* computed at the sites and
/// *super-aggregates* applied at the coordinator (Gray et al.'s terminology,
/// adopted by Theorem 1 of the paper):
///
///   COUNT:  sub = COUNT,            super = SUM
///   SUM:    sub = SUM,              super = SUM
///   MIN:    sub = MIN,              super = MIN
///   MAX:    sub = MAX,              super = MAX
///   AVG:    sub = (SUM,COUNT),      super = (SUM,SUM), final = SUM/COUNT
///   VAR:    sub = (SUM,SUMSQ,COUNT) — population variance
///           final = SUMSQ/COUNT − (SUM/COUNT)²
///   STDDEV: same carriers as VAR, final = √VAR
enum class AggFunc : uint8_t {
  kCount,
  kSum,
  kMin,
  kMax,
  kAvg,
  kVar,
  kStdDev,
};

const char* AggFuncToString(AggFunc func);

/// Parses "count"/"sum"/"min"/"max"/"avg" (case-insensitive).
Result<AggFunc> AggFuncFromString(const std::string& name);

/// \brief One aggregate of a GMDJ block: `func(input) → output`.
///
/// `input` is a column of the detail relation, or "*" for COUNT(*).
/// `output` is the name of the produced column of the base-result structure
/// (and may be referenced by later GMDJ conditions as `B.output`).
struct AggSpec {
  AggFunc func = AggFunc::kCount;
  std::string input = "*";
  std::string output;

  static AggSpec Count(std::string output) {
    return AggSpec{AggFunc::kCount, "*", std::move(output)};
  }
  static AggSpec CountCol(std::string input, std::string output) {
    return AggSpec{AggFunc::kCount, std::move(input), std::move(output)};
  }
  static AggSpec Sum(std::string input, std::string output) {
    return AggSpec{AggFunc::kSum, std::move(input), std::move(output)};
  }
  static AggSpec Min(std::string input, std::string output) {
    return AggSpec{AggFunc::kMin, std::move(input), std::move(output)};
  }
  static AggSpec Max(std::string input, std::string output) {
    return AggSpec{AggFunc::kMax, std::move(input), std::move(output)};
  }
  static AggSpec Avg(std::string input, std::string output) {
    return AggSpec{AggFunc::kAvg, std::move(input), std::move(output)};
  }
  static AggSpec Var(std::string input, std::string output) {
    return AggSpec{AggFunc::kVar, std::move(input), std::move(output)};
  }
  static AggSpec StdDev(std::string input, std::string output) {
    return AggSpec{AggFunc::kStdDev, std::move(input), std::move(output)};
  }

  bool is_count_star() const {
    return func == AggFunc::kCount && (input == "*" || input.empty());
  }

  /// "sum(NumBytes) -> sum1"
  std::string ToString() const;
};

/// Number of sub-aggregate columns the spec ships (2 for AVG, 3 for
/// VAR/STDDEV, 1 otherwise).
int SubArity(AggFunc func);

/// The finalized output field (name/type) of the spec, typed against the
/// detail schema. Fails if the input column is missing or the function is
/// not applicable to its type (e.g. SUM over a string).
Result<Field> FinalFieldFor(const AggSpec& spec, const Schema& detail);

/// The sub-aggregate fields shipped from sites to the coordinator. For AVG
/// these are `<output>__sum` and `<output>__cnt`; for the other functions a
/// single field named `output` (sub equals final).
Result<std::vector<Field>> SubFieldsFor(const AggSpec& spec,
                                        const Schema& detail);

/// Initial ("zero") sub-aggregate values for a group no site has touched:
/// COUNT → 0, SUM/MIN/MAX → NULL, AVG → (NULL, 0). Writes SubArity values.
void InitSubValues(AggFunc func, Value* out);

/// How a super-aggregate folds one sub-aggregate column (a *carrier*):
/// COUNT, SUM, and every carrier of AVG, VAR and STDDEV add; MIN and MAX
/// keep the extreme.
enum class CarrierOp : uint8_t { kAdd, kMin, kMax };

/// The op of each of `func`'s SubArity(func) carriers.
CarrierOp CarrierOpOf(AggFunc func);

/// Theorem 1's super-aggregate step for one carrier: folds `sub` into
/// `*acc`. Add is NULL-aware (NULL adopts the other side), wraps int64,
/// promotes a mixed int64/double pair to double and resolves NaNs
/// accumulator first; both sides must be numeric or NULL. Min and Max
/// order by Value::Compare with the accumulator first, keep it on ties,
/// and never pick a NULL over a value.
void MergeCarrier(CarrierOp op, const Value& sub, Value* acc);

/// MergeCarrier down one carrier column: for r in [0, n), in order, folds
/// sub[r] into acc[ids[r] * stride].
void MergeCarrierColumn(CarrierOp op, const Value* sub, size_t n,
                        const int64_t* ids, size_t stride, Value* acc);

/// Super-aggregate step: folds one site's sub-values into the accumulator
/// (element-wise; both arrays have SubArity(func) entries), one
/// MergeCarrier per carrier.
void MergeSubValues(AggFunc func, const Value* sub, Value* acc);

/// Finalization of merged sub-values into the visible output value
/// (identity except AVG → sum/cnt, NULL when cnt = 0).
Value FinalizeSubValues(AggFunc func, const Value* acc);

/// The exact integers an AVG finalizes from: true, with `*num` the merged
/// sum and `*den` the merged count, when the count is positive and the sum
/// is an int64 or a double equal to one bit for bit — then
/// FinalizeSubValues(kAvg, acc) is static_cast<double>(*num) /
/// static_cast<double>(*den).
bool AvgQuotient(const Value* acc, int64_t* num, int64_t* den);

/// \brief Accumulator used by the local GMDJ evaluator: one state per
/// (base tuple, aggregate) pair, updated once per matching detail tuple.
class AggState {
 public:
  explicit AggState(AggFunc func = AggFunc::kCount) : func_(func) {}

  /// Folds one input value. For COUNT(*), pass any non-NULL value.
  /// NULL inputs are ignored by every function except COUNT(*) (the caller
  /// implements the COUNT(*) vs COUNT(col) distinction by what it passes).
  void Update(const Value& v);

  /// Typed point folds for the vectorized scan: each is exactly
  /// Update(Value(v)) — same state transitions, same accumulation
  /// arithmetic, same int64→double promotion rules — without constructing
  /// the boxed Value. Used by the hash-probe path, where matches arrive one
  /// (base, detail) pair at a time.
  void UpdateInt64(int64_t v);
  void UpdateDouble(double v);
  /// COUNT(*) point fold: exactly Update(kNonNull). Precondition:
  /// func() == AggFunc::kCount.
  void UpdateCountStar() { ++count_; }

  /// Typed batch folds over a selection vector (docs/vectorized-execution.md):
  /// folds values[sel[k]] for k = 0..n-1 in ascending k, skipping entries
  /// whose bit is clear in the LSB-first `valid` bitmap (nullptr = no
  /// NULLs). Equivalent to calling Update(Value(values[sel[k]])) in the
  /// same order: the accumulator is unboxed once and reboxed once, and a
  /// NULL accumulator adopts the first value rather than seeding 0.0, so
  /// every float operation (and hence every bit, including -0.0 and NaN
  /// behavior) matches the scalar path. VAR/STDDEV fold all three carriers
  /// (sum, sum of squares, count) in one pass with the scalar per-element
  /// op order — value into the sum, then the same v*v square into the
  /// sum-of-squares carrier, each carrier adopting its first value. Falls
  /// back to boxed updates on a type-deviant accumulator or carrier.
  void UpdateBatchInt64(const int64_t* values, const uint64_t* valid,
                        const int64_t* sel, size_t n);
  void UpdateBatchDouble(const double* values, const uint64_t* valid,
                         const int64_t* sel, size_t n);
  /// COUNT(*) over n matches: exactly n times UpdateCountStar().
  void UpdateBatchCountStar(size_t n) {
    count_ += static_cast<int64_t>(n);
  }

  /// Folds another state of the same function into this one — the
  /// super-aggregate step of Theorem 1 applied to in-memory partials. Used
  /// by the morsel-parallel local evaluator to combine worker-private
  /// accumulators; merging partials in a fixed order reproduces the
  /// sequential result exactly whenever the accumulation arithmetic is
  /// exact (int64, integral doubles).
  void Merge(const AggState& other);

  /// Appends SubArity(func) sub-aggregate values.
  void EmitSub(std::vector<Value>* out) const;

  /// The finalized (centralized-evaluation) value.
  Value Final() const;

  AggFunc func() const { return func_; }
  int64_t count() const { return count_; }

 private:
  AggFunc func_;
  int64_t count_ = 0;  // non-null inputs folded
  Value acc_;          // running SUM / MIN / MAX (NULL until first input)
  Value acc_sq_;       // running sum of squares (VAR/STDDEV only)
};

}  // namespace skalla

#endif  // SKALLA_AGG_AGGREGATE_H_
