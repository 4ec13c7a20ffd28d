#include "storage/serializer.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/wrapping.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/columnar.h"

namespace skalla {

namespace {

constexpr uint32_t kMagicSkl1 = 0x534b4c31;  // 'SKL1'
constexpr uint32_t kMagicSkl2 = 0x534b4c32;  // 'SKL2'
constexpr uint32_t kMagicSkld = 0x534b4c44;  // 'SKLD' (delta)

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

/// Appends the bytes of a fixed-width value (u32, u64 or double).
template <typename T>
void PutFixed(std::string* out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out->append(buf, sizeof v);
}

/// Unsigned LEB128; at most 10 bytes for a u64.
void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

size_t VarintSize(uint64_t v) {
  return static_cast<size_t>((std::bit_width(v | 1) + 6) / 7);
}

uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > bytes_.size()) return false;
    *v = static_cast<uint8_t>(bytes_[pos_]);
    pos_ += 1;
    return true;
  }
  /// Reads a fixed-width value (u32, u64 or double).
  template <typename T>
  bool ReadFixed(T* v) {
    if (pos_ + sizeof *v > bytes_.size()) return false;
    std::memcpy(v, bytes_.data() + pos_, sizeof *v);
    pos_ += sizeof *v;
    return true;
  }
  bool ReadString(uint32_t len, std::string* v) {
    if (pos_ + len > bytes_.size()) return false;
    v->assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }
  /// The next `len` bytes, in place; `len` must be at most remaining().
  std::string_view Take(size_t len) {
    const std::string_view v = bytes_.substr(pos_, len);
    pos_ += len;
    return v;
  }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
};

Result<uint64_t> ReadVarint(Reader* reader) {
  uint64_t result = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    uint8_t byte = 0;
    if (!reader->ReadU8(&byte)) return Status::IoError("truncated varint");
    if (shift == 63 && (byte & 0xfe) != 0) {
      return Status::IoError("varint overflow");
    }
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return result;
  }
  return Status::IoError("varint overflow");
}

// ---------------------------------------------------------------------------
// Per-value codec: an SKL1 row's cells and an SKL2 mixed section's.

void PutValue(std::string* out, const Value& v) {
  PutU8(out, static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt64:
      PutFixed(out, static_cast<uint64_t>(v.AsInt64()));
      break;
    case ValueType::kDouble:
      PutFixed(out, v.AsDouble());
      break;
    case ValueType::kString:
      PutFixed(out, static_cast<uint32_t>(v.AsString().size()));
      out->append(v.AsString());
      break;
  }
}

Result<Value> ReadValue(Reader* reader) {
  uint8_t tag = 0;
  if (!reader->ReadU8(&tag)) {
    return Status::IoError("truncated value tag");
  }
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kInt64: {
      uint64_t raw = 0;
      if (!reader->ReadFixed(&raw)) return Status::IoError("truncated int64");
      return Value(static_cast<int64_t>(raw));
    }
    case ValueType::kDouble: {
      double d = 0;
      if (!reader->ReadFixed(&d)) return Status::IoError("truncated double");
      return Value(d);
    }
    case ValueType::kString: {
      uint32_t len = 0;
      if (!reader->ReadFixed(&len) || len > reader->remaining()) {
        return Status::IoError("truncated string");
      }
      return Value(reader->Take(len));
    }
  }
  return Status::IoError("unknown value tag " + std::to_string(tag));
}

// ---------------------------------------------------------------------------
// SKL2 per-column codec. A column section over the rows [begin, end) of one
// table column opens with a u8 tag: the low four bits name the codec, bit 7
// (kNullFree) says a bitmap-carrying codec dropped its null bitmap because
// every value is present, bit 6 (kPacked) says an integer section is
// bit-packed, and bits 4-5 are reserved (zero). A null bitmap is LSB-first
// within each byte, bit set = non-null, and is followed by the non-null
// values. Every codec past the first five, and the packed flag, is chosen
// only when it makes the section strictly smaller (docs/wire-format.md §3).

enum ColumnCodec : uint8_t {
  kColAllNull = 0,
  kColInt64 = 1,
  kColDouble = 2,
  kColString = 3,
  kColMixed = 4,  ///< heterogeneous non-null types: per-value tag + payload
  kColIntegralDouble = 5,  ///< int64-exact doubles, written as kColInt64
  kColRepeat = 6,  ///< varint field index of an earlier, byte-equal section
  kColQuotient = 7,  ///< doubles as num / den, two integer sub-sections
};

constexpr uint8_t kCodecMask = 0x0f;
constexpr uint8_t kNullFree = 0x80;
constexpr uint8_t kPacked = 0x40;

/// Appends `cur` as the zig-zag varint of its difference from `*prev`, the
/// section's previous non-null value (0 before the first). The difference
/// wraps on overflow and unwraps identically on decode (two's complement).
void PutDelta(std::string* out, int64_t cur, int64_t* prev) {
  PutVarint(out, ZigZagEncode(WrapSub(cur, *prev)));
  *prev = cur;
}

// Packed integer sections. A kPacked Int64 or IntegralDouble section writes
// its n non-null values frame-of-reference bit-packed instead of as varint
// deltas: a layout byte (bit 7 = kPackDifferences, bits 0-6 = the bit width
// w, at most 64), then either
//   values layout:      varint zz(min), then the n offsets v - min; or
//   differences layout: varint zz(first value), varint zz(min difference),
//                       then the n - 1 offsets (v[i] - v[i-1]) - min diff;
// each offset w bits wide, LSB-first, ceil(count * w / 8) bytes in all.
// Offsets and differences wrap in two's complement like the varint deltas.

constexpr uint8_t kPackDifferences = 0x80;
constexpr uint8_t kPackWidthMask = 0x7f;
constexpr int kMaxPackWidth = 64;

uint64_t PackedBytes(uint64_t count, int width) {
  return (count * static_cast<uint64_t>(width) + 7) / 8;
}

/// What one pass over a section's non-null int64 values (in row order)
/// learns: enough to size the varint deltas and both packed layouts.
struct IntSummary {
  uint64_t count = 0;
  uint64_t varint_bytes = 0;  ///< the zig-zag varint deltas
  int64_t first = 0;
  int64_t last = 0;
  int64_t lo = std::numeric_limits<int64_t>::max();
  int64_t hi = std::numeric_limits<int64_t>::min();
  /// Over the count - 1 successive differences.
  int64_t diff_lo = std::numeric_limits<int64_t>::max();
  int64_t diff_hi = std::numeric_limits<int64_t>::min();

  void Add(int64_t v) {
    const int64_t d = WrapSub(v, last);
    varint_bytes += VarintSize(ZigZagEncode(d));
    if (count == 0) {
      first = v;
    } else {
      diff_lo = std::min(diff_lo, d);
      diff_hi = std::max(diff_hi, d);
    }
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    last = v;
    ++count;
  }
};

/// How a section's integers ship: varint deltas (packed = false) or one of
/// the packed layouts, and the bytes that takes.
struct IntEncoding {
  bool packed = false;
  bool differences = false;
  int width = 0;
  uint64_t bytes = 0;
};

/// The smaller packed layout (values on a tie) when it is strictly smaller
/// than the varint deltas; the varint deltas otherwise.
IntEncoding ChooseIntEncoding(const IntSummary& s) {
  IntEncoding best{false, false, 0, s.varint_bytes};
  if (s.count == 0) return best;
  const int width = std::bit_width(static_cast<uint64_t>(s.hi) -
                                   static_cast<uint64_t>(s.lo));
  const IntEncoding values{true, false, width,
                           1 + VarintSize(ZigZagEncode(s.lo)) +
                               PackedBytes(s.count, width)};
  if (values.bytes < best.bytes) best = values;
  if (s.count > 1) {
    const int diff_width = std::bit_width(static_cast<uint64_t>(s.diff_hi) -
                                          static_cast<uint64_t>(s.diff_lo));
    const IntEncoding differences{
        true, true, diff_width,
        1 + VarintSize(ZigZagEncode(s.first)) +
            VarintSize(ZigZagEncode(s.diff_lo)) +
            PackedBytes(s.count - 1, diff_width)};
    if (differences.bytes < best.bytes) best = differences;
  }
  return best;
}

/// Appends values of one width in [1, 64], LSB-first, a 64-bit word at a
/// time; Finish() writes the partial last word's bytes.
class BitPacker {
 public:
  BitPacker(std::string* out, int width) : out_(out), width_(width) {}

  /// `v` must fit in the width.
  void Put(uint64_t v) {
    acc_ |= v << used_;  // used_ < 64
    used_ += width_;
    if (used_ >= 64) {
      PutFixed(out_, acc_);
      used_ -= 64;
      // The bits of v that did not fit; none when used_ is 0, and then
      // width_ - used_ could be 64.
      acc_ = used_ == 0 ? 0 : v >> (width_ - used_);
    }
  }
  void Finish() {
    char buf[8];
    std::memcpy(buf, &acc_, sizeof buf);
    out_->append(buf, static_cast<size_t>((used_ + 7) / 8));
  }

 private:
  std::string* out_;
  int width_;
  uint64_t acc_ = 0;
  int used_ = 0;
};

/// Reads values of one width in [0, 64] out of a packed region, LSB-first,
/// a 64-bit word at a time (the last word zero-padded). The caller has
/// checked that the region holds every value it will ask for.
class BitUnpacker {
 public:
  BitUnpacker(std::string_view bytes, int width)
      : bytes_(bytes),
        width_(width),
        mask_(width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1) {}

  uint64_t Next() {
    if (avail_ >= width_) {
      const uint64_t v = acc_ & mask_;
      acc_ = width_ == 64 ? 0 : acc_ >> width_;
      avail_ -= width_;
      return v;
    }
    uint64_t word = 0;
    const size_t take = std::min<size_t>(8, bytes_.size() - pos_);
    std::memcpy(&word, bytes_.data() + pos_, take);
    pos_ += take;
    const uint64_t v = (acc_ | (word << avail_)) & mask_;  // avail_ < 64
    const int used = width_ - avail_;  // bits of `word` in v, in [1, 64]
    acc_ = used == 64 ? 0 : word >> used;
    avail_ = 64 - used;
    return v;
  }

 private:
  std::string_view bytes_;
  size_t pos_ = 0;
  int width_;
  uint64_t mask_;
  uint64_t acc_ = 0;
  int avail_ = 0;  ///< unread low bits of acc_, in [0, 64)
};

/// Appends the non-null int64 values of a section, which `each(fn)` passes
/// to `fn` in row order, in `encoding` (ChooseIntEncoding over the same
/// values). Returns the tag bits to add: kPacked or 0.
template <typename Each>
uint8_t PutInts(std::string* out, const IntSummary& s,
                const IntEncoding& encoding, const Each& each) {
  if (!encoding.packed) {
    int64_t prev = 0;
    each([&](int64_t v) { PutDelta(out, v, &prev); });
    return 0;
  }
  out->reserve(out->size() + encoding.bytes);
  PutU8(out, static_cast<uint8_t>(encoding.width) |
                 (encoding.differences ? kPackDifferences : 0));
  if (encoding.differences) {
    PutVarint(out, ZigZagEncode(s.first));
    PutVarint(out, ZigZagEncode(s.diff_lo));
  } else {
    PutVarint(out, ZigZagEncode(s.lo));
  }
  if (encoding.width == 0) return kPacked;
  BitPacker packer(out, encoding.width);
  if (encoding.differences) {
    bool started = false;
    int64_t prev = 0;
    each([&](int64_t v) {
      if (started) {
        packer.Put(static_cast<uint64_t>(WrapSub(v, prev)) -
                   static_cast<uint64_t>(s.diff_lo));
      }
      started = true;
      prev = v;
    });
  } else {
    each([&](int64_t v) {
      packer.Put(static_cast<uint64_t>(v) - static_cast<uint64_t>(s.lo));
    });
  }
  packer.Finish();
  return kPacked;
}

/// PutInts over `each`'s values, in whichever encoding is smaller.
template <typename Each>
uint8_t PutInts(std::string* out, const Each& each) {
  IntSummary s;
  each([&s](int64_t v) { s.Add(v); });
  return PutInts(out, s, ChooseIntEncoding(s), each);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Quotient sections. A kColQuotient section ships a double column as exact
// integer carriers (QuotientCarriers): after the tag and the Double
// section's null bitmap come two sub-sections, the non-null rows'
// numerators and then their denominators. Each sub-section is a u8 tag
// (kColInt64 | kNullFree, plus kPacked when packed), a varint count of
// values, and PutInts' values. Row r decodes to
// static_cast<double>(num) / static_cast<double>(den), FinalizeSubValues'
// AVG expression.

/// Bytes PutSubSection writes for `s` in `encoding`.
uint64_t SubSectionBytes(const IntSummary& s, const IntEncoding& encoding) {
  return 1 + VarintSize(s.count) + encoding.bytes;
}

/// Appends one quotient sub-section: `values` at the rows `each_row(fn)`
/// passes to `fn`, in row order, in `encoding` (ChooseIntEncoding over
/// their IntSummary `s`).
template <typename EachRow>
void PutSubSection(std::string* out, const IntSummary& s,
                   const IntEncoding& encoding,
                   const std::vector<int64_t>& values,
                   const EachRow& each_row) {
  PutU8(out, kColInt64 | kNullFree | (encoding.packed ? kPacked : 0));
  PutVarint(out, s.count);
  PutInts(out, s, encoding, [&](auto&& fn) {
    each_row([&](int64_t r, double) { fn(values[static_cast<size_t>(r)]); });
  });
}

/// Appends the non-null doubles of a section, which `each_row(fn)` passes
/// to `fn` as (row, value) in row order: as the int64s of
/// kColIntegralDouble (PutInts) when every value is ExactInt64 and that
/// takes fewer bytes than the raw 8 per value, raw otherwise — unless
/// `quotients` holds carriers for every row that reproduce its value bit
/// for bit, and their kColQuotient sub-sections take strictly fewer bytes
/// still. One pass sizes each form, and only the one chosen is written.
/// Returns the codec written, with its kPacked bit.
template <typename EachRow>
uint8_t PutDoubleColumn(std::string* out, const QuotientCarriers* quotients,
                        int64_t end, const EachRow& each_row) {
  const size_t rows = static_cast<size_t>(end);
  bool exact = quotients != nullptr && quotients->num.size() >= rows &&
               quotients->den.size() >= rows;
  uint64_t count = 0;
  bool integral = true;
  IntSummary ints;
  IntSummary nums;
  IntSummary dens;
  each_row([&](int64_t r, double d) {
    ++count;
    int64_t i = 0;
    integral = integral && ExactInt64(d, &i);
    if (integral) ints.Add(i);
    if (!exact) return;
    const int64_t n = quotients->num[static_cast<size_t>(r)];
    const int64_t m = quotients->den[static_cast<size_t>(r)];
    exact = m > 0 &&
            SameBits(static_cast<double>(n) / static_cast<double>(m), d);
    nums.Add(n);
    dens.Add(m);
  });
  uint64_t bytes = 8 * count;
  IntEncoding int_encoding;
  if (integral) {
    int_encoding = ChooseIntEncoding(ints);
    integral = int_encoding.bytes < bytes;
    if (integral) bytes = int_encoding.bytes;
  }
  if (exact) {
    const IntEncoding num_encoding = ChooseIntEncoding(nums);
    const IntEncoding den_encoding = ChooseIntEncoding(dens);
    if (SubSectionBytes(nums, num_encoding) +
            SubSectionBytes(dens, den_encoding) <
        bytes) {
      PutSubSection(out, nums, num_encoding, quotients->num, each_row);
      PutSubSection(out, dens, den_encoding, quotients->den, each_row);
      return kColQuotient;
    }
  }
  if (integral) {
    return kColIntegralDouble |
           PutInts(out, ints, int_encoding, [&](auto&& fn) {
             each_row(
                 [&](int64_t, double d) { fn(static_cast<int64_t>(d)); });
           });
  }
  each_row([out](int64_t, double d) { PutFixed(out, d); });
  return kColDouble;
}

/// The homogeneous codec of a column whose non-null values have `type`.
ColumnCodec CodecOf(ValueType type) {
  switch (type) {
    case ValueType::kInt64:
      return kColInt64;
    case ValueType::kDouble:
      return kColDouble;
    case ValueType::kString:
      return kColString;
    default:
      return kColAllNull;  // kNull: no non-null value
  }
}

/// Classifies the non-null cells of [begin, end); `*has_nulls` reports
/// whether any cell is NULL.
ColumnCodec ClassifyColumn(const Table& t, int col, int64_t begin,
                           int64_t end, bool* has_nulls) {
  ValueType type = ValueType::kNull;  // of the non-null cells seen so far
  for (int64_t r = begin; r < end; ++r) {
    const ValueType v = t.Get(r, col).type();
    if (v == ValueType::kNull) {
      *has_nulls = true;
    } else if (type == ValueType::kNull) {
      type = v;
    } else if (v != type) {
      return kColMixed;  // carries no bitmap, so *has_nulls is moot
    }
  }
  return CodecOf(type);
}

void PutNullBitmap(std::string* out, const Table& t, int col, int64_t begin,
                   int64_t end) {
  const int64_t n = end - begin;
  std::string bitmap(static_cast<size_t>((n + 7) / 8), '\0');
  for (int64_t r = begin; r < end; ++r) {
    if (t.Get(r, col).type() != ValueType::kNull) {
      const int64_t i = r - begin;
      bitmap[static_cast<size_t>(i / 8)] |=
          static_cast<char>(1u << (i % 8));
    }
  }
  out->append(bitmap);
}

/// Row-path section writer: boxes every cell through Table::Get. Used for
/// SKLD sub-ranges, type-deviant columns and SerializeTableRowPath.
/// `quotients` (may be null) are the column's carriers, by table row.
void EncodeColumnRange(std::string* out, const Table& t, int col,
                       int64_t begin, int64_t end,
                       const QuotientCarriers* quotients) {
  bool has_nulls = false;
  const ColumnCodec codec = ClassifyColumn(t, col, begin, end, &has_nulls);
  const size_t tag = out->size();
  PutU8(out, codec);
  if (codec == kColAllNull) return;
  if (codec == kColMixed) {
    for (int64_t r = begin; r < end; ++r) PutValue(out, t.Get(r, col));
    return;
  }
  if (has_nulls) PutNullBitmap(out, t, col, begin, end);
  // Passes each non-null cell to `fn`, in row order.
  auto each = [&](auto&& fn) {
    for (int64_t r = begin; r < end; ++r) {
      const Value& v = t.Get(r, col);
      if (v.type() != ValueType::kNull) fn(v);
    }
  };
  uint8_t written = codec;
  switch (codec) {
    case kColInt64:
      written |= PutInts(out, [&](auto&& fn) {
        each([&](const Value& v) { fn(v.AsInt64()); });
      });
      break;
    case kColDouble:
      written = PutDoubleColumn(out, quotients, end, [&](auto&& fn) {
        for (int64_t r = begin; r < end; ++r) {
          const Value& v = t.Get(r, col);
          if (v.type() != ValueType::kNull) fn(r, v.AsDouble());
        }
      });
      break;
    case kColString: {
      // First-appearance dictionary: deterministic given the row order.
      std::unordered_map<std::string_view, uint64_t> index;
      std::vector<std::string_view> dict;
      std::vector<uint64_t> codes;
      each([&](const Value& v) {
        const std::string_view s = v.AsString();
        auto [it, inserted] = index.emplace(s, dict.size());
        if (inserted) dict.push_back(s);
        codes.push_back(it->second);
      });
      PutVarint(out, dict.size());
      for (std::string_view s : dict) {
        PutVarint(out, s.size());
        out->append(s);
      }
      for (uint64_t code : codes) PutVarint(out, code);
      break;
    }
    default:
      break;
  }
  (*out)[tag] = static_cast<char>(written | (has_nulls ? 0 : kNullFree));
}

// Columnar-fed SKL2 encoding (docs/wire-format.md §3): for a full-table
// range over a `usable` column, the ColumnarTable snapshot already holds
// everything the row-path codec re-derives per call — the typed value
// arrays, the validity bitmap in the same LSB-first bit order as the wire
// bitmap, and the first-appearance string dictionary, which over a full
// range coincides with the wire dictionary. Reading those arrays instead
// of boxing every cell through Table::Get yields byte-identical output;
// no-re-derivation rule in DESIGN.md §5. Sub-table ranges (SerializeDelta)
// and unusable columns keep the row path.

ColumnCodec ClassifyColumnar(const ColumnarTable::Column& col, int64_t n) {
  // A usable column has no type-deviant cells, so kColMixed is impossible.
  const bool any_non_null =
      col.has_nulls ? std::any_of(col.valid.begin(), col.valid.end(),
                                  [](uint64_t w) { return w != 0; })
                    : n > 0;
  return any_non_null ? CodecOf(col.type) : kColAllNull;
}

/// The wire bitmap of a column with NULLs: byte i is byte (i % 8) of the
/// snapshot's LSB-first u64 word i / 8. Trailing bits are zero in both.
void PutNullBitmapColumnar(std::string* out,
                           const ColumnarTable::Column& col, int64_t n) {
  const size_t bytes = static_cast<size_t>((n + 7) / 8);
  std::string bitmap(bytes, '\0');
  for (size_t i = 0; i < bytes; ++i) {
    bitmap[i] =
        static_cast<char>((col.valid[i >> 3] >> ((i & 7) * 8)) & 0xff);
  }
  out->append(bitmap);
}

void EncodeColumnarFull(std::string* out, const ColumnarTable::Column& col,
                        int64_t n, const QuotientCarriers* quotients) {
  const ColumnCodec codec = ClassifyColumnar(col, n);
  const size_t tag = out->size();
  PutU8(out, codec);
  if (codec == kColAllNull) return;
  if (col.has_nulls) PutNullBitmapColumnar(out, col, n);
  // Passes each non-null value of the typed array `values` to `fn`, in row
  // order.
  auto each_valid = [&col, n](const auto& values, auto&& fn) {
    for (int64_t r = 0; r < n; ++r) {
      if (col.IsValid(r)) fn(values[static_cast<size_t>(r)]);
    }
  };
  uint8_t written = codec;
  switch (codec) {
    case kColInt64:
      written |= PutInts(out, [&](auto&& fn) { each_valid(col.ints, fn); });
      break;
    case kColDouble:
      written = PutDoubleColumn(out, quotients, n, [&](auto&& fn) {
        for (int64_t r = 0; r < n; ++r) {
          if (col.IsValid(r)) fn(r, col.doubles[static_cast<size_t>(r)]);
        }
      });
      break;
    case kColString: {
      // The snapshot dictionary is first-appearance over all rows — for a
      // full-table range, exactly the wire dictionary and codes.
      PutVarint(out, col.dict.size());
      for (const std::string& s : col.dict) {
        PutVarint(out, s.size());
        out->append(s);
      }
      for (int64_t r = 0; r < n; ++r) {
        const int32_t code = col.codes[static_cast<size_t>(r)];
        if (code >= 0) PutVarint(out, static_cast<uint64_t>(code));
      }
      break;
    }
    default:
      break;  // kColMixed is unreachable for usable columns
  }
  (*out)[tag] = static_cast<char>(written | (col.has_nulls ? 0 : kNullFree));
}

/// Appends the column sections of one payload: `encode(c)` writes field
/// c's section over `rows[c]` values, and a field with no rows gets no
/// section. A section whose bytes equal those of an earlier literal
/// section over as many rows becomes kColRepeat plus that section's field
/// index, when the repeat is strictly smaller.
template <typename Encode>
void PutSections(std::string* out, const std::vector<int64_t>& rows,
                 const Encode& encode) {
  struct Literal {
    size_t start;
    size_t size;
    size_t field;
  };
  std::vector<Literal> literals;
  for (size_t c = 0; c < rows.size(); ++c) {
    if (rows[c] == 0) continue;
    const size_t start = out->size();
    encode(c);
    const size_t size = out->size() - start;
    const std::string_view section(out->data() + start, size);
    const auto same = std::find_if(
        literals.begin(), literals.end(), [&](const Literal& l) {
          return rows[l.field] == rows[c] && l.size == size &&
                 std::string_view(out->data() + l.start, size) == section;
        });
    if (same != literals.end() && 1 + VarintSize(same->field) < size) {
      out->resize(start);
      PutU8(out, kColRepeat);
      PutVarint(out, same->field);
    } else {
      literals.push_back(Literal{start, size, c});
    }
  }
}

/// Clamp for up-front reserves so a large-but-plausible claimed row count
/// cannot throw std::bad_alloc before the payload proves it out; vectors
/// grow amortized past the clamp.
constexpr uint64_t kReserveClamp = uint64_t{1} << 16;

/// Set bits among the first `n` of an LSB-first null bitmap: the section's
/// non-null values (trailing pad bits are not counted).
uint64_t CountNonNull(std::string_view bitmap, int64_t n) {
  const size_t full = static_cast<size_t>(n / 8);
  uint64_t count = 0;
  for (size_t i = 0; i < full; ++i) {
    count += static_cast<uint64_t>(
        std::popcount(static_cast<uint8_t>(bitmap[i])));
  }
  if (n % 8 != 0) {
    count += static_cast<uint64_t>(std::popcount(static_cast<uint8_t>(
        static_cast<uint8_t>(bitmap[full]) & ((1u << (n % 8)) - 1))));
  }
  return count;
}

/// The packed values of one kPacked section (PutInts), handed out in order.
class PackedInts {
 public:
  /// Reads the layout byte and reference varints of a section of `count`
  /// values, then takes the packed region after bounding it by the bytes
  /// left in the payload.
  static Result<PackedInts> Read(Reader* reader, uint64_t count) {
    uint8_t layout = 0;
    if (!reader->ReadU8(&layout)) {
      return Status::IoError("truncated packed layout");
    }
    PackedInts ints;
    ints.differences_ = (layout & kPackDifferences) != 0;
    const int width = layout & kPackWidthMask;
    if (width > kMaxPackWidth) {
      return Status::IoError("packed bit width " + std::to_string(width) +
                             " over 64");
    }
    SKALLA_ASSIGN_OR_RETURN(uint64_t base, ReadVarint(reader));
    ints.base_ = ZigZagDecode(base);
    uint64_t packed = count;
    if (ints.differences_) {
      SKALLA_ASSIGN_OR_RETURN(uint64_t diff_lo, ReadVarint(reader));
      ints.diff_lo_ = ZigZagDecode(diff_lo);
      packed = count == 0 ? 0 : count - 1;
    }
    // count is at most the 2^32-cell cap, so count * 64 cannot overflow.
    const uint64_t bytes = PackedBytes(packed, width);
    if (bytes > reader->remaining()) {
      return Status::IoError("packed section length out of range");
    }
    ints.bits_ = BitUnpacker(reader->Take(static_cast<size_t>(bytes)), width);
    return ints;
  }

  int64_t Next() {
    if (!differences_) {
      return WrapAdd(base_, static_cast<int64_t>(bits_.Next()));
    }
    // base_ is the previous value; the first value is base_ itself.
    if (started_) {
      base_ = WrapAdd(base_,
                      WrapAdd(diff_lo_, static_cast<int64_t>(bits_.Next())));
    }
    started_ = true;
    return base_;
  }

 private:
  PackedInts() = default;

  bool differences_ = false;
  int64_t base_ = 0;  ///< min (values layout) or the previous value
  int64_t diff_lo_ = 0;
  bool started_ = false;
  BitUnpacker bits_{std::string_view(), 0};
};

/// Reads one sub-section of a kColQuotient section (PutSubSection) into
/// `*out`; it must be a null-free int64 section of `count` values, the
/// section's non-null rows.
Status ReadSubSection(Reader* reader, uint64_t count,
                      std::vector<int64_t>* out) {
  uint8_t tag = 0;
  if (!reader->ReadU8(&tag)) {
    return Status::IoError("truncated quotient sub-section");
  }
  if ((tag & ~kPacked) != (kColInt64 | kNullFree)) {
    return Status::IoError("quotient sub-section " + std::to_string(tag) +
                           " is not a null-free int64 section");
  }
  SKALLA_ASSIGN_OR_RETURN(uint64_t claimed, ReadVarint(reader));
  if (claimed != count) {
    return Status::IoError("quotient sub-section count does not match the "
                           "null bitmap");
  }
  out->reserve(static_cast<size_t>(std::min(count, kReserveClamp)));
  if ((tag & kPacked) != 0) {
    SKALLA_ASSIGN_OR_RETURN(PackedInts ints, PackedInts::Read(reader, count));
    for (uint64_t i = 0; i < count; ++i) out->push_back(ints.Next());
    return Status::OK();
  }
  int64_t prev = 0;
  for (uint64_t i = 0; i < count; ++i) {
    SKALLA_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint(reader));
    prev = WrapAdd(prev, ZigZagDecode(raw));
    out->push_back(prev);
  }
  return Status::OK();
}

/// Decodes one non-repeat column section of `n` values into `*out`.
Status DecodeColumnRange(Reader* reader, uint8_t codec, bool null_free,
                         bool packed, int64_t n, std::vector<Value>* out) {
  if (codec == kColAllNull) {
    out->insert(out->end(), static_cast<size_t>(n), Value::Null());
    return Status::OK();
  }
  if (codec == kColMixed) {
    for (int64_t r = 0; r < n; ++r) {
      SKALLA_ASSIGN_OR_RETURN(Value v, ReadValue(reader));
      out->push_back(std::move(v));
    }
    return Status::OK();
  }
  // Bitmap-carrying codecs: the null bitmap first, unless null-free.
  std::string bitmap;
  if (!null_free &&
      !reader->ReadString(static_cast<uint32_t>((n + 7) / 8), &bitmap)) {
    return Status::IoError("truncated null bitmap");
  }
  auto non_null = [&bitmap, null_free](int64_t i) {
    return null_free ||
           ((static_cast<uint8_t>(bitmap[static_cast<size_t>(i / 8)]) >>
             (i % 8)) &
            1u) != 0;
  };
  switch (codec) {
    case kColInt64:
    case kColIntegralDouble: {
      auto box = [codec](int64_t v) {
        return codec == kColInt64 ? Value(v) : Value(static_cast<double>(v));
      };
      if (packed) {
        SKALLA_ASSIGN_OR_RETURN(
            PackedInts ints,
            PackedInts::Read(reader, null_free ? static_cast<uint64_t>(n)
                                               : CountNonNull(bitmap, n)));
        for (int64_t r = 0; r < n; ++r) {
          out->push_back(non_null(r) ? box(ints.Next()) : Value::Null());
        }
        return Status::OK();
      }
      int64_t prev = 0;
      for (int64_t r = 0; r < n; ++r) {
        if (!non_null(r)) {
          out->push_back(Value::Null());
          continue;
        }
        SKALLA_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint(reader));
        prev = WrapAdd(prev, ZigZagDecode(raw));
        out->push_back(box(prev));
      }
      return Status::OK();
    }
    case kColDouble: {
      for (int64_t r = 0; r < n; ++r) {
        if (!non_null(r)) {
          out->push_back(Value::Null());
          continue;
        }
        double d = 0;
        if (!reader->ReadFixed(&d)) {
          return Status::IoError("truncated double column");
        }
        out->push_back(Value(d));
      }
      return Status::OK();
    }
    case kColQuotient: {
      const uint64_t count =
          null_free ? static_cast<uint64_t>(n) : CountNonNull(bitmap, n);
      std::vector<int64_t> num;
      std::vector<int64_t> den;
      SKALLA_RETURN_NOT_OK(ReadSubSection(reader, count, &num));
      SKALLA_RETURN_NOT_OK(ReadSubSection(reader, count, &den));
      size_t i = 0;
      for (int64_t r = 0; r < n; ++r) {
        if (!non_null(r)) {
          out->push_back(Value::Null());
          continue;
        }
        if (den[i] <= 0) {
          return Status::IoError("quotient denominator " +
                                 std::to_string(den[i]) + " is not positive");
        }
        out->push_back(Value(static_cast<double>(num[i]) /
                             static_cast<double>(den[i])));
        ++i;
      }
      return Status::OK();
    }
    case kColString: {
      SKALLA_ASSIGN_OR_RETURN(uint64_t dict_count, ReadVarint(reader));
      if (dict_count > reader->remaining()) {
        // Each entry costs at least one length byte; anything larger than
        // the remaining payload is corrupt, reject before allocating.
        return Status::IoError("dictionary count out of range");
      }
      std::vector<std::string_view> dict;  // into the payload
      dict.reserve(static_cast<size_t>(dict_count));
      for (uint64_t i = 0; i < dict_count; ++i) {
        SKALLA_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(reader));
        if (len > reader->remaining()) {
          return Status::IoError("truncated dictionary entry");
        }
        dict.push_back(reader->Take(static_cast<size_t>(len)));
      }
      for (int64_t r = 0; r < n; ++r) {
        if (!non_null(r)) {
          out->push_back(Value::Null());
          continue;
        }
        SKALLA_ASSIGN_OR_RETURN(uint64_t code, ReadVarint(reader));
        if (code >= dict_count) {
          return Status::IoError("dictionary code out of range");
        }
        out->push_back(Value(dict[static_cast<size_t>(code)]));
      }
      return Status::OK();
    }
    default:
      return Status::IoError("unknown column codec");
  }
}

/// Decodes the column sections PutSections wrote for `rows` into
/// `(*columns)[c]`. A repeat copies the values of an earlier field, which
/// must span as many rows; it never decodes more cells than the fields'
/// row counts allow, so the payload's cell cap bounds it too.
Status DecodeSections(Reader* reader, const std::vector<int64_t>& rows,
                      std::vector<std::vector<Value>>* columns) {
  for (size_t c = 0; c < rows.size(); ++c) {
    const int64_t n = rows[c];
    if (n == 0) continue;
    uint8_t tag = 0;
    if (!reader->ReadU8(&tag)) return Status::IoError("truncated column tag");
    if ((tag & ~(kCodecMask | kNullFree | kPacked)) != 0) {
      return Status::IoError("unknown column codec flags " +
                             std::to_string(tag));
    }
    const uint8_t codec = tag & kCodecMask;
    const bool null_free = (tag & kNullFree) != 0;
    const bool packed = (tag & kPacked) != 0;
    if (codec > kColQuotient) {
      return Status::IoError("unknown column codec " + std::to_string(codec));
    }
    if (null_free &&
        (codec == kColAllNull || codec == kColMixed || codec == kColRepeat)) {
      return Status::IoError("null-free flag on a column codec without a "
                             "null bitmap");
    }
    if (packed && codec != kColInt64 && codec != kColIntegralDouble) {
      return Status::IoError("packed flag on a column codec without "
                             "integers");
    }
    std::vector<Value>& out = (*columns)[c];
    if (codec == kColRepeat) {
      SKALLA_ASSIGN_OR_RETURN(uint64_t k, ReadVarint(reader));
      if (k >= c) {
        return Status::IoError("column repeat must name an earlier section");
      }
      if (rows[k] != n) {
        return Status::IoError("column repeat row count mismatch");
      }
      out = (*columns)[k];
      continue;
    }
    out.reserve(static_cast<size_t>(
        std::min(static_cast<uint64_t>(n), kReserveClamp)));
    SKALLA_RETURN_NOT_OK(
        DecodeColumnRange(reader, codec, null_free, packed, n, &out));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Shared header helpers.

void PutSchema(std::string* out, const Schema& schema) {
  PutFixed(out, static_cast<uint32_t>(schema.num_fields()));
  for (const Field& f : schema.fields()) {
    PutU8(out, static_cast<uint8_t>(f.type));
    PutFixed(out, static_cast<uint32_t>(f.name.size()));
    out->append(f.name);
  }
}

Result<std::vector<Field>> ReadSchema(Reader* reader) {
  uint32_t nfields = 0;
  if (!reader->ReadFixed(&nfields)) return Status::IoError("truncated schema");
  std::vector<Field> fields;
  fields.reserve(nfields);
  for (uint32_t i = 0; i < nfields; ++i) {
    uint8_t type = 0;
    uint32_t name_len = 0;
    std::string name;
    if (!reader->ReadU8(&type) || !reader->ReadFixed(&name_len) ||
        !reader->ReadString(name_len, &name)) {
      return Status::IoError("truncated field");
    }
    if (type > static_cast<uint8_t>(ValueType::kString)) {
      return Status::IoError("bad field type " + std::to_string(type));
    }
    fields.push_back(Field{std::move(name), static_cast<ValueType>(type)});
  }
  return fields;
}

size_t HeaderSize(const Table& table) {
  size_t size = 4;  // magic
  size += 4;        // nfields
  for (const Field& f : table.schema().fields()) {
    size += 1 + 4 + f.name.size();
  }
  size += 8;  // nrows
  return size;
}

/// Exact type- and bit-level value equality: NaN equals the same NaN bit
/// pattern, -0.0 differs from +0.0, and 5 differs from 5.0 — the relation
/// under which a receiver's cached bytes can stand in for shipped ones.
bool WireEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble: {
      uint64_t ba = 0;
      uint64_t bb = 0;
      const double da = a.AsDouble();
      const double db = b.AsDouble();
      std::memcpy(&ba, &da, 8);
      std::memcpy(&bb, &db, 8);
      return ba == bb;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

/// Cells (rows x fields) a decoder is willing to materialize from one
/// payload. SKL2's all-null column codec is a single tag byte whatever the
/// row count, so no payload-proportional bound is sound for the columnar
/// path — the guard is absolute instead.
constexpr uint64_t kMaxDecodedCells = uint64_t{1} << 32;

/// Rejects row counts the payload cannot back, before any allocation
/// proportional to the claim happens. SKL1 spends at least one tag byte
/// per value, giving a tight size-relative bound; SKL2 gets the absolute
/// cell cap (see kMaxDecodedCells).
Status CheckRowCount(uint64_t nrows, size_t nfields, size_t remaining,
                     bool columnar) {
  if (nrows == 0) return Status::OK();
  if (nfields == 0) return Status::IoError("row count out of range");
  const uint64_t limit = columnar
                             ? kMaxDecodedCells / nfields
                             : static_cast<uint64_t>(remaining) / nfields;
  if (nrows > limit) return Status::IoError("row count out of range");
  return Status::OK();
}

Result<DecodedColumns> DecodeSkl1Body(Reader* reader) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<Field> fields, ReadSchema(reader));
  const size_t nfields = fields.size();
  uint64_t nrows = 0;
  if (!reader->ReadFixed(&nrows)) return Status::IoError("truncated row count");
  SKALLA_RETURN_NOT_OK(
      CheckRowCount(nrows, nfields, reader->remaining(), /*columnar=*/false));
  std::vector<std::vector<Value>> columns(nfields);
  for (std::vector<Value>& column : columns) {
    column.reserve(static_cast<size_t>(nrows));
  }
  for (uint64_t r = 0; r < nrows; ++r) {
    for (size_t c = 0; c < nfields; ++c) {
      SKALLA_ASSIGN_OR_RETURN(Value v, ReadValue(reader));
      columns[c].push_back(std::move(v));
    }
  }
  if (!reader->AtEnd()) return Status::IoError("trailing bytes after table");
  return DecodedColumns{MakeSchema(std::move(fields)),
                        static_cast<int64_t>(nrows), std::move(columns)};
}

Result<DecodedColumns> DecodeSkl2Body(Reader* reader) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<Field> fields, ReadSchema(reader));
  const size_t nfields = fields.size();
  uint64_t nrows = 0;
  if (!reader->ReadFixed(&nrows)) return Status::IoError("truncated row count");
  SKALLA_RETURN_NOT_OK(
      CheckRowCount(nrows, nfields, reader->remaining(), /*columnar=*/true));
  std::vector<std::vector<Value>> columns(nfields);
  SKALLA_RETURN_NOT_OK(DecodeSections(
      reader, std::vector<int64_t>(nfields, static_cast<int64_t>(nrows)),
      &columns));
  if (!reader->AtEnd()) return Status::IoError("trailing bytes after table");
  return DecodedColumns{MakeSchema(std::move(fields)),
                        static_cast<int64_t>(nrows), std::move(columns)};
}

/// Decodes a full-table payload (SKL1 or SKL2, by magic) into columns:
/// the one decoder of each format, which DeserializeTable and
/// DecodeShipment transpose into rows.
Result<DecodedColumns> DecodeFullTable(uint32_t magic, Reader* reader) {
  switch (magic) {
    case kMagicSkl1:
      return DecodeSkl1Body(reader);
    case kMagicSkl2:
      return DecodeSkl2Body(reader);
    case kMagicSkld:
      return Status::IoError(
          "delta payload requires a cached base (use DecodeShipment)");
    default:
      return Status::IoError("bad table magic");
  }
}

Result<DecodedColumns> DecodeFullTable(std::string_view bytes) {
  Reader reader(bytes);
  uint32_t magic = 0;
  if (!reader.ReadFixed(&magic)) return Status::IoError("bad table magic");
  return DecodeFullTable(magic, &reader);
}

/// The rows of a decoded payload: one Row per row index, cells moved out
/// of the columns.
Table RowsOf(DecodedColumns decoded) {
  const size_t nfields = decoded.columns.size();
  Table table(std::move(decoded.schema));
  table.Reserve(decoded.num_rows);
  for (int64_t r = 0; r < decoded.num_rows; ++r) {
    Row row;
    row.reserve(nfields);
    for (size_t c = 0; c < nfields; ++c) {
      row.push_back(std::move(decoded.columns[c][static_cast<size_t>(r)]));
    }
    table.AddRow(std::move(row));
  }
  return table;
}

Result<Table> DecodeDeltaBody(const Table* cached, Reader* reader) {
  if (cached == nullptr) {
    return Status::IoError("delta payload without a cached base table");
  }
  uint64_t base_hash = 0;
  if (!reader->ReadFixed(&base_hash)) {
    return Status::IoError("truncated delta base hash");
  }
  if (base_hash != Serializer::ContentHash(*cached)) {
    return Status::IoError("delta base hash mismatch");
  }
  SKALLA_ASSIGN_OR_RETURN(std::vector<Field> fields, ReadSchema(reader));
  const size_t nfields = fields.size();
  const size_t base_cols =
      static_cast<size_t>(cached->schema().num_fields());
  // Per-column mapping into the base: 0 = new column, k = base column k-1.
  std::vector<int> mapping(nfields, -1);
  for (size_t c = 0; c < nfields; ++c) {
    SKALLA_ASSIGN_OR_RETURN(uint64_t m, ReadVarint(reader));
    if (m == 0) continue;
    if (m > base_cols) {
      return Status::IoError("delta column mapping out of range");
    }
    const int k = static_cast<int>(m - 1);
    if (cached->schema().fields()[static_cast<size_t>(k)].name !=
        fields[c].name) {
      return Status::IoError("delta column mapping name mismatch");
    }
    mapping[c] = k;
  }
  SKALLA_ASSIGN_OR_RETURN(uint64_t kept_rows, ReadVarint(reader));
  SKALLA_ASSIGN_OR_RETURN(uint64_t total_rows, ReadVarint(reader));
  if (kept_rows > static_cast<uint64_t>(cached->num_rows()) ||
      kept_rows > total_rows) {
    return Status::IoError("delta row counts out of range");
  }
  // Rows beyond kept_rows must be carried by the payload; kept rows come
  // from the cache for free, so only the appended span (and, when any
  // column is new, the full span) is bounded against the remaining bytes.
  SKALLA_RETURN_NOT_OK(CheckRowCount(total_rows - kept_rows, nfields,
                                     reader->remaining(), /*columnar=*/true));
  for (size_t c = 0; c < nfields; ++c) {
    if (mapping[c] < 0) {
      SKALLA_RETURN_NOT_OK(CheckRowCount(total_rows, nfields,
                                         reader->remaining(),
                                         /*columnar=*/true));
      break;
    }
  }
  // Column sections: new columns over all rows, mapped columns over the
  // appended suffix only.
  std::vector<int64_t> rows(nfields);
  for (size_t c = 0; c < nfields; ++c) {
    rows[c] = static_cast<int64_t>(mapping[c] < 0 ? total_rows
                                                  : total_rows - kept_rows);
  }
  std::vector<std::vector<Value>> sections(nfields);
  SKALLA_RETURN_NOT_OK(DecodeSections(reader, rows, &sections));
  if (!reader->AtEnd()) return Status::IoError("trailing bytes after delta");
  Table table(MakeSchema(std::move(fields)));
  table.Reserve(static_cast<int64_t>(std::min(total_rows, kReserveClamp)));
  for (uint64_t r = 0; r < total_rows; ++r) {
    Row row;
    row.reserve(nfields);
    for (size_t c = 0; c < nfields; ++c) {
      if (mapping[c] >= 0 && r < kept_rows) {
        row.push_back(cached->Get(static_cast<int64_t>(r), mapping[c]));
      } else if (mapping[c] >= 0) {
        row.push_back(
            std::move(sections[c][static_cast<size_t>(r - kept_rows)]));
      } else {
        row.push_back(std::move(sections[c][static_cast<size_t>(r)]));
      }
    }
    table.AddRow(std::move(row));
  }
  return table;
}

}  // namespace

namespace {

/// The carriers `carriers` holds for field `col`, or null.
const QuotientCarriers* CarriersOf(std::span<const QuotientCarriers> carriers,
                                   int col) {
  for (const QuotientCarriers& q : carriers) {
    if (q.field == col) return &q;
  }
  return nullptr;
}

/// The SKL2 encoding alone, without a span or metric, so WireSize can
/// measure through it. `columnar_feed` reads usable columns from the
/// snapshot.
std::string EncodeTable(const Table& table, bool columnar_feed,
                        std::span<const QuotientCarriers> carriers) {
  std::string out;
  PutFixed(&out, kMagicSkl2);
  PutSchema(&out, table.schema());
  const int64_t nrows = table.num_rows();
  PutFixed(&out, static_cast<uint64_t>(nrows));
  const std::shared_ptr<const ColumnarTable> view =
      columnar_feed && nrows > 0 ? table.columnar() : nullptr;
  PutSections(&out,
              std::vector<int64_t>(
                  static_cast<size_t>(table.schema().num_fields()), nrows),
              [&](size_t c) {
                const int col = static_cast<int>(c);
                const QuotientCarriers* quotients = CarriersOf(carriers, col);
                if (view != nullptr && view->column(col).usable) {
                  EncodeColumnarFull(&out, view->column(col), nrows,
                                     quotients);
                } else {
                  EncodeColumnRange(&out, table, col, 0, nrows, quotients);
                }
              });
  return out;
}

std::string SerializeTableImpl(const Table& table, bool columnar_feed,
                               std::span<const QuotientCarriers> carriers) {
  obs::ScopedSpan span("serialize");
  static obs::Histogram& encode_seconds = obs::GetHistogram(
      "skalla_storage_encode_seconds", obs::HistogramLayout::LatencySeconds());
  obs::ScopedHistogramTimer timer(&encode_seconds);
  std::string out = EncodeTable(table, columnar_feed, carriers);
  if (span.armed()) {
    span.set_detail("SKL2 " + std::to_string(table.num_rows()) + " rows " +
                    std::to_string(out.size()) + "B");
  }
  if (obs::MetricsEnabled()) {
    static obs::Histogram& skl2_bytes =
        obs::GetHistogram("skalla_storage_wire_bytes{format=\"SKL2\"}",
                          obs::HistogramLayout::Bytes());
    skl2_bytes.Observe(static_cast<double>(out.size()));
  }
  return out;
}

}  // namespace

std::string Serializer::SerializeTable(
    const Table& table, std::span<const QuotientCarriers> carriers) {
  return SerializeTableImpl(table, /*columnar_feed=*/true, carriers);
}

std::string Serializer::SerializeTableRowPath(
    const Table& table, std::span<const QuotientCarriers> carriers) {
  return SerializeTableImpl(table, /*columnar_feed=*/false, carriers);
}

Result<Table> Serializer::DeserializeTable(std::string_view bytes) {
  obs::ScopedSpan span("deserialize");
  if (span.armed()) {
    span.set_detail(std::to_string(bytes.size()) + "B");
  }
  SKALLA_ASSIGN_OR_RETURN(DecodedColumns decoded, DecodeFullTable(bytes));
  return RowsOf(std::move(decoded));
}

Result<DecodedColumns> Serializer::DecodeColumns(std::string_view bytes) {
  obs::ScopedSpan span("deserialize");
  if (span.armed()) {
    span.set_detail(std::to_string(bytes.size()) + "B");
  }
  return DecodeFullTable(bytes);
}

size_t Serializer::WireSize(const Table& table) {
  return EncodeTable(table, /*columnar_feed=*/true, {}).size();
}

size_t Serializer::TablePayloadSize(const Table& table) {
  return WireSize(table) - HeaderSize(table);
}

size_t Serializer::Skl1Size(const Table& table) {
  size_t size = HeaderSize(table);
  for (const Row& row : table.rows()) {
    for (const Value& v : row) size += v.SerializedSize();
  }
  return size;
}

std::string Serializer::SerializeDelta(
    const Table& base, const Table& table,
    std::span<const QuotientCarriers> carriers) {
  obs::ScopedSpan span("serialize.delta");
  static obs::Histogram& encode_seconds = obs::GetHistogram(
      "skalla_storage_encode_seconds", obs::HistogramLayout::LatencySeconds());
  obs::ScopedHistogramTimer timer(&encode_seconds);
  const size_t nfields = static_cast<size_t>(table.schema().num_fields());
  const size_t base_cols = static_cast<size_t>(base.schema().num_fields());
  // Match columns by name + declared type (first match wins; field names
  // are unique within a schema).
  std::vector<int> mapping(nfields, -1);
  for (size_t c = 0; c < nfields; ++c) {
    const Field& f = table.schema().fields()[c];
    for (size_t k = 0; k < base_cols; ++k) {
      const Field& bf = base.schema().fields()[k];
      if (bf.name == f.name && bf.type == f.type) {
        mapping[c] = static_cast<int>(k);
        break;
      }
    }
  }
  // kept_rows: longest shared prefix over which every mapped column is
  // bit-identical to the base (so the receiver's cached rows stand in).
  int64_t kept = std::min(base.num_rows(), table.num_rows());
  bool any_mapped = false;
  for (size_t c = 0; c < nfields; ++c) {
    if (mapping[c] >= 0) any_mapped = true;
  }
  if (!any_mapped) kept = 0;
  for (int64_t r = 0; r < kept; ++r) {
    for (size_t c = 0; c < nfields; ++c) {
      if (mapping[c] < 0) continue;
      if (!WireEqual(table.Get(r, static_cast<int>(c)),
                     base.Get(r, mapping[c]))) {
        kept = r;
        break;
      }
    }
  }
  const int64_t total = table.num_rows();
  std::string out;
  PutFixed(&out, kMagicSkld);
  PutFixed(&out, ContentHash(base));
  PutSchema(&out, table.schema());
  for (size_t c = 0; c < nfields; ++c) {
    PutVarint(&out, mapping[c] < 0 ? 0
                                   : static_cast<uint64_t>(mapping[c]) + 1);
  }
  PutVarint(&out, static_cast<uint64_t>(kept));
  PutVarint(&out, static_cast<uint64_t>(total));
  std::vector<int64_t> rows(nfields);
  for (size_t c = 0; c < nfields; ++c) {
    rows[c] = mapping[c] < 0 ? total : total - kept;
  }
  PutSections(&out, rows, [&](size_t c) {
    const int col = static_cast<int>(c);
    EncodeColumnRange(&out, table, col, total - rows[c], total,
                      CarriersOf(carriers, col));
  });
  if (span.armed()) {
    span.set_detail("SKLD kept " + std::to_string(kept) + "/" +
                    std::to_string(total) + " rows " +
                    std::to_string(out.size()) + "B");
  }
  if (obs::MetricsEnabled()) {
    static obs::Histogram& skld_bytes =
        obs::GetHistogram("skalla_storage_wire_bytes{format=\"SKLD\"}",
                          obs::HistogramLayout::Bytes());
    skld_bytes.Observe(static_cast<double>(out.size()));
  }
  return out;
}

Result<Table> Serializer::DecodeShipment(const Table* cached,
                                         std::string_view bytes) {
  obs::ScopedSpan span("decode.shipment");
  if (span.armed()) {
    span.set_detail(std::to_string(bytes.size()) + "B");
  }
  Reader reader(bytes);
  uint32_t magic = 0;
  if (!reader.ReadFixed(&magic)) return Status::IoError("bad table magic");
  if (magic == kMagicSkld) return DecodeDeltaBody(cached, &reader);
  SKALLA_ASSIGN_OR_RETURN(DecodedColumns decoded,
                          DecodeFullTable(magic, &reader));
  return RowsOf(std::move(decoded));
}

uint64_t Serializer::ContentHash(const Table& table) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix_bytes = [&h](const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
  };
  auto mix_u64 = [&mix_bytes](uint64_t v) { mix_bytes(&v, 8); };
  mix_u64(static_cast<uint64_t>(table.schema().num_fields()));
  for (const Field& f : table.schema().fields()) {
    mix_u64(static_cast<uint64_t>(f.type));
    mix_u64(f.name.size());
    mix_bytes(f.name.data(), f.name.size());
  }
  mix_u64(static_cast<uint64_t>(table.num_rows()));
  for (const Row& row : table.rows()) {
    for (const Value& v : row) {
      mix_u64(static_cast<uint64_t>(v.type()));
      switch (v.type()) {
        case ValueType::kNull:
          break;
        case ValueType::kInt64:
          mix_u64(static_cast<uint64_t>(v.AsInt64()));
          break;
        case ValueType::kDouble: {
          uint64_t bits = 0;
          const double d = v.AsDouble();
          std::memcpy(&bits, &d, 8);
          mix_u64(bits);
          break;
        }
        case ValueType::kString:
          mix_u64(v.AsString().size());
          mix_bytes(v.AsString().data(), v.AsString().size());
          break;
      }
    }
  }
  return h;
}

}  // namespace skalla
