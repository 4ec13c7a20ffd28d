#ifndef SKALLA_COMMON_WRAPPING_H_
#define SKALLA_COMMON_WRAPPING_H_

#include <cstdint>
#include <cstring>

namespace skalla {

// Two's-complement int64 arithmetic: the exact result mod 2^64, computed
// through uint64_t so that overflow is defined instead of undefined. The
// expression evaluator and the int64 aggregate accumulators use these, so
// a query over extreme values can neither trap nor differ between the
// scalar and the batch code paths.

inline int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

inline int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

inline int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

inline int64_t WrapNeg(int64_t a) {
  return static_cast<int64_t>(uint64_t{0} - static_cast<uint64_t>(a));
}

/// a % b for b != 0. INT64_MIN % -1 overflows the quotient (and traps on
/// x86); every x % -1 is 0, which is also its value mod 2^64.
inline int64_t WrapMod(int64_t a, int64_t b) {
  return b == -1 ? 0 : a % b;
}

/// True when `d` equals an int64 bit for bit, stored in `*out`. The range
/// check runs before the cast, which is undefined for NaN, ±inf and values
/// outside [-2^63, 2^63); the bit compare rejects -0.0 and fractions.
inline bool ExactInt64(double d, int64_t* out) {
  if (!(d >= -0x1p63 && d < 0x1p63)) return false;
  *out = static_cast<int64_t>(d);
  const double back = static_cast<double>(*out);
  return std::memcmp(&back, &d, sizeof d) == 0;
}

}  // namespace skalla

#endif  // SKALLA_COMMON_WRAPPING_H_
