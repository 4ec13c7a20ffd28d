#include "storage/serializer.h"

#include <algorithm>
#include <cstring>
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
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
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
// SKL1 per-value codec.

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
      std::string s;
      if (!reader->ReadFixed(&len) || !reader->ReadString(len, &s)) {
        return Status::IoError("truncated string");
      }
      return Value(std::move(s));
    }
  }
  return Status::IoError("unknown value tag " + std::to_string(tag));
}

// ---------------------------------------------------------------------------
// SKL2 per-column codec. A column section over the rows [begin, end) of one
// table column opens with a u8 tag: the low four bits name the codec, bit 7
// (kNullFree) says a bitmap-carrying codec dropped its null bitmap because
// every value is present, and bits 4-6 are reserved (zero). A null bitmap
// is LSB-first within each byte, bit set = non-null, and is followed by the
// packed non-null values. Every codec past the first five is chosen only
// when it makes the section strictly smaller (docs/wire-format.md §3).

enum ColumnCodec : uint8_t {
  kColAllNull = 0,
  kColInt64 = 1,
  kColDouble = 2,
  kColString = 3,
  kColMixed = 4,  ///< heterogeneous non-null types: per-value tag + payload
  kColIntegralDouble = 5,  ///< int64-exact doubles, written as kColInt64
  kColRepeat = 6,  ///< varint field index of an earlier, byte-equal section
};

constexpr uint8_t kCodecMask = 0x0f;
constexpr uint8_t kNullFree = 0x80;

/// Appends `cur` as the zig-zag varint of its difference from `*prev`, the
/// section's previous non-null value (0 before the first). The difference
/// wraps on overflow and unwraps identically on decode (two's complement).
void PutDelta(std::string* out, int64_t cur, int64_t* prev) {
  PutVarint(out, ZigZagEncode(WrapSub(cur, *prev)));
  *prev = cur;
}

/// True when `d` equals an int64 bit for bit, stored in `*out`. The range
/// check runs before the cast, which is undefined for NaN, ±inf and values
/// outside [-2^63, 2^63); the bit compare rejects -0.0 and fractions.
bool ExactInt64(double d, int64_t* out) {
  if (!(d >= -0x1p63 && d < 0x1p63)) return false;
  *out = static_cast<int64_t>(d);
  const double back = static_cast<double>(*out);
  return std::memcmp(&back, &d, sizeof d) == 0;
}

/// Appends the non-null doubles of a section, which `each(fn)` passes to
/// `fn` in row order: as the int64 deltas of kColIntegralDouble when every
/// value is ExactInt64 and the varints take fewer bytes than the raw 8 per
/// value, raw otherwise. Returns the codec written.
template <typename Each>
ColumnCodec PutDoubles(std::string* out, const Each& each) {
  const size_t start = out->size();
  bool integral = true;
  size_t count = 0;
  int64_t prev = 0;
  each([&](double d) {
    ++count;
    int64_t i = 0;
    integral = integral && ExactInt64(d, &i);
    if (integral) PutDelta(out, i, &prev);
  });
  if (integral && out->size() - start < 8 * count) return kColIntegralDouble;
  out->resize(start);
  each([out](double d) { PutFixed(out, d); });
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
void EncodeColumnRange(std::string* out, const Table& t, int col,
                       int64_t begin, int64_t end) {
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
  ColumnCodec written = codec;
  switch (codec) {
    case kColInt64: {
      int64_t prev = 0;
      each([&](const Value& v) { PutDelta(out, v.AsInt64(), &prev); });
      break;
    }
    case kColDouble:
      written = PutDoubles(out, [&](auto&& fn) {
        each([&](const Value& v) { fn(v.AsDouble()); });
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
                        int64_t n) {
  const ColumnCodec codec = ClassifyColumnar(col, n);
  const size_t tag = out->size();
  PutU8(out, codec);
  if (codec == kColAllNull) return;
  if (col.has_nulls) PutNullBitmapColumnar(out, col, n);
  ColumnCodec written = codec;
  switch (codec) {
    case kColInt64: {
      int64_t prev = 0;
      for (int64_t r = 0; r < n; ++r) {
        if (col.IsValid(r)) {
          PutDelta(out, col.ints[static_cast<size_t>(r)], &prev);
        }
      }
      break;
    }
    case kColDouble:
      written = PutDoubles(out, [&](auto&& fn) {
        for (int64_t r = 0; r < n; ++r) {
          if (col.IsValid(r)) fn(col.doubles[static_cast<size_t>(r)]);
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

/// Decodes one non-repeat column section of `n` values into `*out`.
Status DecodeColumnRange(Reader* reader, uint8_t codec, bool null_free,
                         int64_t n, std::vector<Value>* out) {
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
      int64_t prev = 0;
      for (int64_t r = 0; r < n; ++r) {
        if (!non_null(r)) {
          out->push_back(Value::Null());
          continue;
        }
        SKALLA_ASSIGN_OR_RETURN(uint64_t raw, ReadVarint(reader));
        prev = WrapAdd(prev, ZigZagDecode(raw));
        out->push_back(codec == kColInt64 ? Value(prev)
                                          : Value(static_cast<double>(prev)));
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
    case kColString: {
      SKALLA_ASSIGN_OR_RETURN(uint64_t dict_count, ReadVarint(reader));
      if (dict_count > reader->remaining()) {
        // Each entry costs at least one length byte; anything larger than
        // the remaining payload is corrupt, reject before allocating.
        return Status::IoError("dictionary count out of range");
      }
      std::vector<std::string> dict;
      dict.reserve(static_cast<size_t>(dict_count));
      for (uint64_t i = 0; i < dict_count; ++i) {
        SKALLA_ASSIGN_OR_RETURN(uint64_t len, ReadVarint(reader));
        if (len > reader->remaining()) {
          return Status::IoError("truncated dictionary entry");
        }
        std::string s;
        if (!reader->ReadString(static_cast<uint32_t>(len), &s)) {
          return Status::IoError("truncated dictionary entry");
        }
        dict.push_back(std::move(s));
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
    if ((tag & ~(kCodecMask | kNullFree)) != 0) {
      return Status::IoError("unknown column codec flags " +
                             std::to_string(tag));
    }
    const uint8_t codec = tag & kCodecMask;
    const bool null_free = (tag & kNullFree) != 0;
    if (codec > kColRepeat) {
      return Status::IoError("unknown column codec " + std::to_string(codec));
    }
    if (null_free &&
        (codec == kColAllNull || codec == kColMixed || codec == kColRepeat)) {
      return Status::IoError("null-free flag on a column codec without a "
                             "null bitmap");
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
    SKALLA_RETURN_NOT_OK(DecodeColumnRange(reader, codec, null_free, n, &out));
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

Result<Table> DecodeSkl1Body(Reader* reader) {
  SKALLA_ASSIGN_OR_RETURN(std::vector<Field> fields, ReadSchema(reader));
  const size_t nfields = fields.size();
  uint64_t nrows = 0;
  if (!reader->ReadFixed(&nrows)) return Status::IoError("truncated row count");
  SKALLA_RETURN_NOT_OK(
      CheckRowCount(nrows, nfields, reader->remaining(), /*columnar=*/false));
  Table table(MakeSchema(std::move(fields)));
  table.Reserve(static_cast<int64_t>(nrows));
  for (uint64_t r = 0; r < nrows; ++r) {
    Row row;
    row.reserve(nfields);
    for (size_t c = 0; c < nfields; ++c) {
      SKALLA_ASSIGN_OR_RETURN(Value v, ReadValue(reader));
      row.push_back(std::move(v));
    }
    table.AddRow(std::move(row));
  }
  if (!reader->AtEnd()) return Status::IoError("trailing bytes after table");
  return table;
}

Result<Table> DecodeSkl2Body(Reader* reader) {
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
  Table table(MakeSchema(std::move(fields)));
  table.Reserve(static_cast<int64_t>(std::min(nrows, kReserveClamp)));
  for (uint64_t r = 0; r < nrows; ++r) {
    Row row;
    row.reserve(nfields);
    for (size_t c = 0; c < nfields; ++c) {
      row.push_back(std::move(columns[c][static_cast<size_t>(r)]));
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

/// The encoding alone, without a span or metric, so WireSize can measure
/// through it. `columnar_feed` reads usable columns from the snapshot.
std::string EncodeTable(const Table& table, Serializer::Format format,
                        bool columnar_feed) {
  std::string out;
  PutFixed(&out, format == Serializer::Format::kSkl1 ? kMagicSkl1 : kMagicSkl2);
  PutSchema(&out, table.schema());
  const int64_t nrows = table.num_rows();
  PutFixed(&out, static_cast<uint64_t>(nrows));
  if (format == Serializer::Format::kSkl1) {
    for (const Row& row : table.rows()) {
      for (const Value& v : row) PutValue(&out, v);
    }
    return out;
  }
  const std::shared_ptr<const ColumnarTable> view =
      columnar_feed && nrows > 0 ? table.columnar() : nullptr;
  PutSections(&out,
              std::vector<int64_t>(
                  static_cast<size_t>(table.schema().num_fields()), nrows),
              [&](size_t c) {
                const int col = static_cast<int>(c);
                if (view != nullptr && view->column(col).usable) {
                  EncodeColumnarFull(&out, view->column(col), nrows);
                } else {
                  EncodeColumnRange(&out, table, col, 0, nrows);
                }
              });
  return out;
}

std::string SerializeTableImpl(const Table& table, Serializer::Format format,
                               bool columnar_feed) {
  obs::ScopedSpan span("serialize");
  static obs::Histogram& encode_seconds = obs::GetHistogram(
      "skalla_storage_encode_seconds", obs::HistogramLayout::LatencySeconds());
  obs::ScopedHistogramTimer timer(&encode_seconds);
  std::string out = EncodeTable(table, format, columnar_feed);
  if (span.armed()) {
    span.set_detail(
        (format == Serializer::Format::kSkl1 ? "SKL1 " : "SKL2 ") +
        std::to_string(table.num_rows()) + " rows " +
        std::to_string(out.size()) + "B");
  }
  if (obs::MetricsEnabled()) {
    static obs::Histogram& skl1_bytes =
        obs::GetHistogram("skalla_storage_wire_bytes{format=\"SKL1\"}",
                          obs::HistogramLayout::Bytes());
    static obs::Histogram& skl2_bytes =
        obs::GetHistogram("skalla_storage_wire_bytes{format=\"SKL2\"}",
                          obs::HistogramLayout::Bytes());
    (format == Serializer::Format::kSkl1 ? skl1_bytes : skl2_bytes)
        .Observe(static_cast<double>(out.size()));
  }
  return out;
}

}  // namespace

std::string Serializer::SerializeTable(const Table& table, Format format) {
  return SerializeTableImpl(table, format, /*columnar_feed=*/true);
}

std::string Serializer::SerializeTableRowPath(const Table& table,
                                              Format format) {
  return SerializeTableImpl(table, format, /*columnar_feed=*/false);
}

Result<Table> Serializer::DeserializeTable(std::string_view bytes) {
  obs::ScopedSpan span("deserialize");
  if (span.armed()) {
    span.set_detail(std::to_string(bytes.size()) + "B");
  }
  Reader reader(bytes);
  uint32_t magic = 0;
  if (!reader.ReadFixed(&magic)) return Status::IoError("bad table magic");
  switch (magic) {
    case kMagicSkl1:
      return DecodeSkl1Body(&reader);
    case kMagicSkl2:
      return DecodeSkl2Body(&reader);
    case kMagicSkld:
      return Status::IoError(
          "delta payload requires a cached base (use DecodeShipment)");
    default:
      return Status::IoError("bad table magic");
  }
}

size_t Serializer::WireSize(const Table& table, Format format) {
  if (format == Format::kSkl2) {
    return EncodeTable(table, format, /*columnar_feed=*/true).size();
  }
  size_t size = HeaderSize(table);
  for (const Row& row : table.rows()) {
    for (const Value& v : row) size += v.SerializedSize();
  }
  return size;
}

size_t Serializer::TablePayloadSize(const Table& table, Format format) {
  return WireSize(table, format) - HeaderSize(table);
}

std::string Serializer::SerializeDelta(const Table& base,
                                       const Table& table) {
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
    EncodeColumnRange(&out, table, static_cast<int>(c), total - rows[c],
                      total);
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
  switch (magic) {
    case kMagicSkl1:
      return DecodeSkl1Body(&reader);
    case kMagicSkl2:
      return DecodeSkl2Body(&reader);
    case kMagicSkld:
      return DecodeDeltaBody(cached, &reader);
    default:
      return Status::IoError("bad table magic");
  }
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
