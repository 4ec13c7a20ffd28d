#include "agg/aggregate.h"

#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/wrapping.h"

namespace skalla {

namespace {

/// Double addition with a pinned NaN rule: a naked `a + b` leaves the
/// result's NaN payload/sign to the hardware's operand order, which the
/// compiler may commute differently at different inlining sites (x86
/// addsd keeps the *destination* operand's NaN). That breaks byte
/// identity between the boxed accumulation and the batch kernels when a
/// generated NaN (inf + -inf → negative quiet NaN) later meets an input
/// NaN. Resolving NaNs explicitly — accumulator first — makes every
/// call site agree bit-for-bit.
inline double AddDoubles(double a, double b) {
  if (std::isnan(a)) return a;
  if (std::isnan(b)) return b;
  return a + b;
}

/// Null-aware numeric addition with int64 → double promotion.
Value AddValues(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  if (a.is_int64() && b.is_int64()) {
    return Value(WrapAdd(a.AsInt64(), b.AsInt64()));
  }
  return Value(AddDoubles(a.ToDouble(), b.ToDouble()));
}

Value MinValue(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  return a.Compare(b) <= 0 ? a : b;
}

Value MaxValue(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  return a.Compare(b) >= 0 ? a : b;
}

}  // namespace

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kVar:
      return "var";
    case AggFunc::kStdDev:
      return "stddev";
  }
  return "?";
}

Result<AggFunc> AggFuncFromString(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "count" || lower == "cnt") return AggFunc::kCount;
  if (lower == "sum") return AggFunc::kSum;
  if (lower == "min") return AggFunc::kMin;
  if (lower == "max") return AggFunc::kMax;
  if (lower == "avg" || lower == "average") return AggFunc::kAvg;
  if (lower == "var" || lower == "variance") return AggFunc::kVar;
  if (lower == "stddev" || lower == "std") return AggFunc::kStdDev;
  return Status::InvalidArgument("unknown aggregate function '" + name + "'");
}

std::string AggSpec::ToString() const {
  return StrFormat("%s(%s) -> %s", AggFuncToString(func), input.c_str(),
                   output.c_str());
}

int SubArity(AggFunc func) {
  switch (func) {
    case AggFunc::kAvg:
      return 2;
    case AggFunc::kVar:
    case AggFunc::kStdDev:
      return 3;
    default:
      return 1;
  }
}

namespace {

Result<ValueType> InputType(const AggSpec& spec, const Schema& detail) {
  if (spec.is_count_star()) return ValueType::kInt64;
  SKALLA_ASSIGN_OR_RETURN(int idx, detail.MustIndexOf(spec.input));
  return detail.field(idx).type;
}

}  // namespace

Result<Field> FinalFieldFor(const AggSpec& spec, const Schema& detail) {
  SKALLA_ASSIGN_OR_RETURN(ValueType input_type, InputType(spec, detail));
  switch (spec.func) {
    case AggFunc::kCount:
      return Field{spec.output, ValueType::kInt64};
    case AggFunc::kSum:
    case AggFunc::kAvg:
    case AggFunc::kVar:
    case AggFunc::kStdDev:
      if (input_type == ValueType::kString) {
        return Status::TypeError(StrFormat("%s over string column '%s'",
                                           AggFuncToString(spec.func),
                                           spec.input.c_str()));
      }
      return Field{spec.output, spec.func == AggFunc::kSum
                                    ? input_type
                                    : ValueType::kDouble};
    case AggFunc::kMin:
    case AggFunc::kMax:
      return Field{spec.output, input_type};
  }
  return Status::Internal("unreachable agg func");
}

Result<std::vector<Field>> SubFieldsFor(const AggSpec& spec,
                                        const Schema& detail) {
  if (spec.func == AggFunc::kAvg || spec.func == AggFunc::kVar ||
      spec.func == AggFunc::kStdDev) {
    SKALLA_ASSIGN_OR_RETURN(ValueType input_type, InputType(spec, detail));
    if (input_type == ValueType::kString) {
      return Status::TypeError(StrFormat("%s over string column '%s'",
                                         AggFuncToString(spec.func),
                                         spec.input.c_str()));
    }
    std::vector<Field> fields{Field{spec.output + "__sum", input_type}};
    if (spec.func != AggFunc::kAvg) {
      fields.push_back(Field{spec.output + "__sumsq", input_type});
    }
    fields.push_back(Field{spec.output + "__cnt", ValueType::kInt64});
    return fields;
  }
  SKALLA_ASSIGN_OR_RETURN(Field f, FinalFieldFor(spec, detail));
  return std::vector<Field>{std::move(f)};
}

void InitSubValues(AggFunc func, Value* out) {
  switch (func) {
    case AggFunc::kCount:
      out[0] = Value(int64_t{0});
      return;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      out[0] = Value::Null();
      return;
    case AggFunc::kAvg:
      out[0] = Value::Null();
      out[1] = Value(int64_t{0});
      return;
    case AggFunc::kVar:
    case AggFunc::kStdDev:
      out[0] = Value::Null();
      out[1] = Value::Null();
      out[2] = Value(int64_t{0});
      return;
  }
}

void MergeSubValues(AggFunc func, const Value* sub, Value* acc) {
  switch (func) {
    case AggFunc::kCount:
    case AggFunc::kSum:
      acc[0] = AddValues(acc[0], sub[0]);
      return;
    case AggFunc::kMin:
      acc[0] = MinValue(acc[0], sub[0]);
      return;
    case AggFunc::kMax:
      acc[0] = MaxValue(acc[0], sub[0]);
      return;
    case AggFunc::kAvg:
      acc[0] = AddValues(acc[0], sub[0]);
      acc[1] = AddValues(acc[1], sub[1]);
      return;
    case AggFunc::kVar:
    case AggFunc::kStdDev:
      acc[0] = AddValues(acc[0], sub[0]);
      acc[1] = AddValues(acc[1], sub[1]);
      acc[2] = AddValues(acc[2], sub[2]);
      return;
  }
}

Value FinalizeSubValues(AggFunc func, const Value* acc) {
  switch (func) {
    case AggFunc::kCount:
      return acc[0].is_null() ? Value(int64_t{0}) : acc[0];
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      return acc[0];
    case AggFunc::kAvg: {
      const int64_t cnt = acc[1].is_null() ? 0 : acc[1].AsInt64();
      if (cnt == 0 || acc[0].is_null()) return Value::Null();
      return Value(acc[0].ToDouble() / static_cast<double>(cnt));
    }
    case AggFunc::kVar:
    case AggFunc::kStdDev: {
      const int64_t cnt = acc[2].is_null() ? 0 : acc[2].AsInt64();
      if (cnt == 0 || acc[0].is_null() || acc[1].is_null()) {
        return Value::Null();
      }
      const double n = static_cast<double>(cnt);
      const double mean = acc[0].ToDouble() / n;
      double variance = acc[1].ToDouble() / n - mean * mean;
      if (variance < 0) variance = 0;  // numeric noise guard
      return Value(func == AggFunc::kVar ? variance
                                         : std::sqrt(variance));
    }
  }
  return Value::Null();
}

void AggState::Update(const Value& v) {
  if (v.is_null()) return;
  switch (func_) {
    case AggFunc::kCount:
      ++count_;
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      acc_ = AddValues(acc_, v);
      ++count_;
      return;
    case AggFunc::kVar:
    case AggFunc::kStdDev: {
      acc_ = AddValues(acc_, v);
      const Value square = v.is_int64()
                               ? Value(WrapMul(v.AsInt64(), v.AsInt64()))
                               : Value(v.ToDouble() * v.ToDouble());
      acc_sq_ = AddValues(acc_sq_, square);
      ++count_;
      return;
    }
    case AggFunc::kMin:
      acc_ = MinValue(acc_, v);
      ++count_;
      return;
    case AggFunc::kMax:
      acc_ = MaxValue(acc_, v);
      ++count_;
      return;
  }
}

void AggState::UpdateInt64(int64_t v) {
  switch (func_) {
    case AggFunc::kCount:
      ++count_;
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      // AddValues: NULL adopts v; int64 accumulators stay int64; a double
      // accumulator (mixed-type history) promotes v.
      if (acc_.is_null()) {
        acc_ = Value(v);
      } else if (acc_.is_int64()) {
        acc_ = Value(WrapAdd(acc_.AsInt64(), v));
      } else {
        acc_ = Value(acc_.ToDouble() + static_cast<double>(v));
      }
      ++count_;
      return;
    case AggFunc::kVar:
    case AggFunc::kStdDev:
      // Both carriers int64 (or fresh): exact arithmetic, same ops as the
      // scalar Update — sum, then the same v*v square, then the count.
      if ((acc_.is_null() || acc_.is_int64()) &&
          (acc_sq_.is_null() || acc_sq_.is_int64())) {
        acc_ = Value(acc_.is_null() ? v : WrapAdd(acc_.AsInt64(), v));
        const int64_t square = WrapMul(v, v);
        acc_sq_ = Value(acc_sq_.is_null() ? square
                                          : WrapAdd(acc_sq_.AsInt64(), square));
        ++count_;
        return;
      }
      Update(Value(v));  // type-deviant carrier: keep one code path
      return;
    case AggFunc::kMin:
      // MinValue keeps the accumulator on ties and replaces only on a
      // strictly greater accumulator.
      if (acc_.is_null()) {
        acc_ = Value(v);
      } else if (acc_.is_int64()) {
        if (acc_.AsInt64() > v) acc_ = Value(v);
      } else if (acc_.is_double()) {
        // Compare(double, int64) order: NaN accumulators compare "equal"
        // to everything, so they are kept — same as the scalar path.
        if (acc_.AsDouble() > static_cast<double>(v)) acc_ = Value(v);
      } else {
        acc_ = MinValue(acc_, Value(v));
      }
      ++count_;
      return;
    case AggFunc::kMax:
      if (acc_.is_null()) {
        acc_ = Value(v);
      } else if (acc_.is_int64()) {
        if (acc_.AsInt64() < v) acc_ = Value(v);
      } else if (acc_.is_double()) {
        if (acc_.AsDouble() < static_cast<double>(v)) acc_ = Value(v);
      } else {
        acc_ = MaxValue(acc_, Value(v));
      }
      ++count_;
      return;
  }
}

void AggState::UpdateDouble(double v) {
  switch (func_) {
    case AggFunc::kCount:
      ++count_;
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      if (acc_.is_null()) {
        acc_ = Value(v);  // adopt v, never seed 0.0 (preserves -0.0)
      } else if (acc_.is_numeric()) {
        acc_ = Value(AddDoubles(acc_.ToDouble(), v));
      } else {
        acc_ = AddValues(acc_, Value(v));
      }
      ++count_;
      return;
    case AggFunc::kVar:
    case AggFunc::kStdDev:
      // Each double carrier adopts its first value (AddValues(NULL, v)
      // returns v itself — preserves -0.0); the square is the scalar's
      // v*v product, fed in the same order.
      if ((acc_.is_null() || acc_.is_double()) &&
          (acc_sq_.is_null() || acc_sq_.is_double())) {
        acc_ = Value(acc_.is_null() ? v : AddDoubles(acc_.AsDouble(), v));
        const double square = v * v;
        acc_sq_ =
            Value(acc_sq_.is_null() ? square
                                    : AddDoubles(acc_sq_.AsDouble(), square));
        ++count_;
        return;
      }
      Update(Value(v));
      return;
    case AggFunc::kMin:
      if (acc_.is_null()) {
        acc_ = Value(v);
      } else if (acc_.is_numeric()) {
        // acc > v is false under NaN on either side: NaN inputs never
        // displace the accumulator and a NaN accumulator is never
        // displaced — exactly Value::Compare's incomparable-NaN behavior.
        if (acc_.ToDouble() > v) acc_ = Value(v);
      } else {
        acc_ = MinValue(acc_, Value(v));
      }
      ++count_;
      return;
    case AggFunc::kMax:
      if (acc_.is_null()) {
        acc_ = Value(v);
      } else if (acc_.is_numeric()) {
        if (acc_.ToDouble() < v) acc_ = Value(v);
      } else {
        acc_ = MaxValue(acc_, Value(v));
      }
      ++count_;
      return;
  }
}

namespace {

inline bool BitmapValid(const uint64_t* valid, int64_t i) {
  return valid == nullptr ||
         ((valid[static_cast<size_t>(i) >> 6] >> (i & 63)) & 1) != 0;
}

}  // namespace

void AggState::UpdateBatchInt64(const int64_t* values, const uint64_t* valid,
                                const int64_t* sel, size_t n) {
  switch (func_) {
    case AggFunc::kCount: {
      int64_t c = 0;
      for (size_t k = 0; k < n; ++k) c += BitmapValid(valid, sel[k]) ? 1 : 0;
      count_ += c;
      return;
    }
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (acc_.is_null() || acc_.is_int64()) {
        // int64 addition is exact (mod 2^64), so seeding 0 is safe here —
        // unlike the double kernel below.
        int64_t s = acc_.is_null() ? 0 : acc_.AsInt64();
        int64_t c = 0;
        for (size_t k = 0; k < n; ++k) {
          const int64_t i = sel[k];
          if (!BitmapValid(valid, i)) continue;
          s = WrapAdd(s, values[i]);
          ++c;
        }
        if (c > 0) {
          acc_ = Value(s);
          count_ += c;
        }
        return;
      }
      break;  // type-deviant accumulator: boxed fallback
    }
    case AggFunc::kVar:
    case AggFunc::kStdDev: {
      // Three carriers (sum, sum of squares, count), each folded with the
      // exact scalar op sequence: int64 arithmetic is exact, so seeding 0
      // is safe, and the square is the same int64 product the scalar
      // Update computes before AddValues.
      if ((acc_.is_null() || acc_.is_int64()) &&
          (acc_sq_.is_null() || acc_sq_.is_int64())) {
        int64_t s = acc_.is_null() ? 0 : acc_.AsInt64();
        int64_t sq = acc_sq_.is_null() ? 0 : acc_sq_.AsInt64();
        int64_t c = 0;
        for (size_t k = 0; k < n; ++k) {
          const int64_t i = sel[k];
          if (!BitmapValid(valid, i)) continue;
          const int64_t v = values[i];
          s = WrapAdd(s, v);
          sq = WrapAdd(sq, WrapMul(v, v));
          ++c;
        }
        if (c > 0) {
          acc_ = Value(s);
          acc_sq_ = Value(sq);
          count_ += c;
        }
        return;
      }
      break;  // type-deviant carrier: boxed fallback
    }
    case AggFunc::kMin: {
      if (acc_.is_null() || acc_.is_int64()) {
        bool have = !acc_.is_null();
        int64_t cur = have ? acc_.AsInt64() : 0;
        int64_t c = 0;
        for (size_t k = 0; k < n; ++k) {
          const int64_t i = sel[k];
          if (!BitmapValid(valid, i)) continue;
          const int64_t v = values[i];
          if (!have) {
            cur = v;
            have = true;
          } else if (cur > v) {
            cur = v;
          }
          ++c;
        }
        if (c > 0) {
          acc_ = Value(cur);
          count_ += c;
        }
        return;
      }
      break;
    }
    case AggFunc::kMax: {
      if (acc_.is_null() || acc_.is_int64()) {
        bool have = !acc_.is_null();
        int64_t cur = have ? acc_.AsInt64() : 0;
        int64_t c = 0;
        for (size_t k = 0; k < n; ++k) {
          const int64_t i = sel[k];
          if (!BitmapValid(valid, i)) continue;
          const int64_t v = values[i];
          if (!have) {
            cur = v;
            have = true;
          } else if (cur < v) {
            cur = v;
          }
          ++c;
        }
        if (c > 0) {
          acc_ = Value(cur);
          count_ += c;
        }
        return;
      }
      break;
    }
  }
  for (size_t k = 0; k < n; ++k) {
    if (BitmapValid(valid, sel[k])) UpdateInt64(values[sel[k]]);
  }
}

void AggState::UpdateBatchDouble(const double* values, const uint64_t* valid,
                                 const int64_t* sel, size_t n) {
  switch (func_) {
    case AggFunc::kCount: {
      int64_t c = 0;
      for (size_t k = 0; k < n; ++k) c += BitmapValid(valid, sel[k]) ? 1 : 0;
      count_ += c;
      return;
    }
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (acc_.is_null() || acc_.is_double()) {
        // Unbox once, add in selection order, rebox once. A NULL
        // accumulator adopts the first value (AddValues(NULL, v) returns v
        // itself) instead of computing 0.0 + v, which would lose -0.0 and
        // reassociate nothing else.
        bool have = !acc_.is_null();
        double s = have ? acc_.AsDouble() : 0.0;
        int64_t c = 0;
        for (size_t k = 0; k < n; ++k) {
          const int64_t i = sel[k];
          if (!BitmapValid(valid, i)) continue;
          const double v = values[i];
          if (!have) {
            s = v;
            have = true;
          } else {
            s = AddDoubles(s, v);
          }
          ++c;
        }
        if (c > 0) {
          acc_ = Value(s);
          count_ += c;
        }
        return;
      }
      break;
    }
    case AggFunc::kVar:
    case AggFunc::kStdDev: {
      // Three carriers; each double carrier adopts its first value instead
      // of computing 0.0 + v (AddValues(NULL, v) returns v — preserves
      // -0.0), and the square is the same v*v product the scalar Update
      // feeds AddValues, in the same per-element order.
      if ((acc_.is_null() || acc_.is_double()) &&
          (acc_sq_.is_null() || acc_sq_.is_double())) {
        bool have_s = !acc_.is_null();
        double s = have_s ? acc_.AsDouble() : 0.0;
        bool have_sq = !acc_sq_.is_null();
        double sq = have_sq ? acc_sq_.AsDouble() : 0.0;
        int64_t c = 0;
        for (size_t k = 0; k < n; ++k) {
          const int64_t i = sel[k];
          if (!BitmapValid(valid, i)) continue;
          const double v = values[i];
          if (!have_s) {
            s = v;
            have_s = true;
          } else {
            s = AddDoubles(s, v);
          }
          const double square = v * v;
          if (!have_sq) {
            sq = square;
            have_sq = true;
          } else {
            sq = AddDoubles(sq, square);
          }
          ++c;
        }
        if (c > 0) {
          acc_ = Value(s);
          acc_sq_ = Value(sq);
          count_ += c;
        }
        return;
      }
      break;  // type-deviant carrier: boxed fallback
    }
    case AggFunc::kMin: {
      if (acc_.is_null() || acc_.is_double()) {
        bool have = !acc_.is_null();
        double cur = have ? acc_.AsDouble() : 0.0;
        int64_t c = 0;
        for (size_t k = 0; k < n; ++k) {
          const int64_t i = sel[k];
          if (!BitmapValid(valid, i)) continue;
          const double v = values[i];
          if (!have) {
            cur = v;
            have = true;
          } else if (cur > v) {  // false under NaN: keeps the accumulator
            cur = v;
          }
          ++c;
        }
        if (c > 0) {
          acc_ = Value(cur);
          count_ += c;
        }
        return;
      }
      break;
    }
    case AggFunc::kMax: {
      if (acc_.is_null() || acc_.is_double()) {
        bool have = !acc_.is_null();
        double cur = have ? acc_.AsDouble() : 0.0;
        int64_t c = 0;
        for (size_t k = 0; k < n; ++k) {
          const int64_t i = sel[k];
          if (!BitmapValid(valid, i)) continue;
          const double v = values[i];
          if (!have) {
            cur = v;
            have = true;
          } else if (cur < v) {
            cur = v;
          }
          ++c;
        }
        if (c > 0) {
          acc_ = Value(cur);
          count_ += c;
        }
        return;
      }
      break;
    }
  }
  for (size_t k = 0; k < n; ++k) {
    if (BitmapValid(valid, sel[k])) UpdateDouble(values[sel[k]]);
  }
}

void AggState::Merge(const AggState& other) {
  count_ += other.count_;
  switch (func_) {
    case AggFunc::kCount:
      return;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      acc_ = AddValues(acc_, other.acc_);
      return;
    case AggFunc::kVar:
    case AggFunc::kStdDev:
      acc_ = AddValues(acc_, other.acc_);
      acc_sq_ = AddValues(acc_sq_, other.acc_sq_);
      return;
    case AggFunc::kMin:
      acc_ = MinValue(acc_, other.acc_);
      return;
    case AggFunc::kMax:
      acc_ = MaxValue(acc_, other.acc_);
      return;
  }
}

void AggState::EmitSub(std::vector<Value>* out) const {
  switch (func_) {
    case AggFunc::kCount:
      out->push_back(Value(count_));
      return;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      out->push_back(acc_);
      return;
    case AggFunc::kAvg:
      out->push_back(acc_);
      out->push_back(Value(count_));
      return;
    case AggFunc::kVar:
    case AggFunc::kStdDev:
      out->push_back(acc_);
      out->push_back(acc_sq_);
      out->push_back(Value(count_));
      return;
  }
}

Value AggState::Final() const {
  switch (func_) {
    case AggFunc::kCount:
      return Value(count_);
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      return acc_;
    case AggFunc::kAvg:
      if (count_ == 0) return Value::Null();
      return Value(acc_.ToDouble() / static_cast<double>(count_));
    case AggFunc::kVar:
    case AggFunc::kStdDev: {
      if (count_ == 0) return Value::Null();
      Value sub[3] = {acc_, acc_sq_, Value(count_)};
      return FinalizeSubValues(func_, sub);
    }
  }
  return Value::Null();
}

}  // namespace skalla
