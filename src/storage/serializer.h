#ifndef SKALLA_STORAGE_SERIALIZER_H_
#define SKALLA_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace skalla {

/// A full-table payload decoded column by column (Serializer::DecodeColumns).
struct DecodedColumns {
  SchemaPtr schema;
  int64_t num_rows = 0;
  /// One vector per schema field, num_rows values each.
  std::vector<std::vector<Value>> columns;
};

/// Exact integer carriers of one double column of a table, kept beside it
/// for the SKL2 encoder (docs/wire-format.md §3, codec 7): a finalized AVG
/// as its SUM and COUNT. Where den[r] > 0, row r of column `field` is
/// meant to equal static_cast<double>(num[r]) / static_cast<double>(den[r]);
/// den[r] <= 0 marks a row without carriers. The encoder trusts none of
/// it: it ships the column as the carriers only when every non-null row
/// has them and reproduces its cell bit for bit, and the section gets
/// strictly smaller.
struct QuotientCarriers {
  int field = -1;            ///< the column's index in the table's schema
  std::vector<int64_t> num;  ///< one per table row
  std::vector<int64_t> den;  ///< one per table row
};

/// \brief Byte-exact binary relation formats (see docs/wire-format.md).
///
/// Every relation shipped over the simulated network (net/sim_network.h) is
/// encoded with this serializer as SKL2; the length of the produced string
/// is the byte count charged by the cost model. The decoder also reads
/// SKL1, the row-oriented format the first warehouse files were written in.
/// Both share a common header and are distinguished by magic:
///
/// SKL1 (row-oriented, little-endian; decoded, sized, never encoded):
///   magic  u32 'SKL1'
///   schema u32 nfields; per field: u8 type, u32 name_len, name bytes
///   rows   u64 nrows; per value: u8 type tag, payload
///          (int64/double: 8 bytes; string: u32 len + bytes; null: none)
///
/// SKL2 (columnar): same magic/schema/nrows header with magic 'SKL2', then
/// for each column (only when nrows > 0): a u8 tag whose low four bits name
/// the codec and whose bit 7 marks a null-free section, and for the
/// homogeneous codecs a null bitmap (LSB-first, bit set = non-null; absent
/// when null-free) followed by the packed non-null values — int64 as
/// zig-zag varint deltas, double as raw 8-byte patterns (NaN/±inf
/// bit-exact) or, when every value is an int64 bit for bit, as that
/// int64's varint deltas, string as a first-appearance dictionary plus
/// varint codes. An integer section (bit 6 of its tag) may instead ship
/// bit-packed: a fixed bit width over its values minus their minimum, or
/// over its successive differences. Columns mixing non-null types fall
/// back to a per-value tagged codec, and a section byte-equal to an
/// earlier one over as many rows is sent as a repeat of that field's
/// index. A double column given QuotientCarriers may ship as their two
/// integer sub-sections instead. A size codec is used only when it makes
/// its section strictly smaller.
///
/// SKLD (delta): ships only what changed versus a base table the receiver
/// already holds; decoded with DecodeShipment(). Layout: magic 'SKLD',
/// u64 base hash, full new schema, per-column varint mapping into the base
/// (0 = new column), varint kept_rows / total_rows, then SKL2 column
/// sections — new columns over all rows, mapped columns over the appended
/// rows only.
class Serializer {
 public:
  /// Encodes a table to its SKL2 wire form. Columns are fed from the
  /// table's cached columnar snapshot when the column is `usable`
  /// (Table::columnar) — same bytes, no per-cell boxing; see
  /// docs/wire-format.md. A double column named by `carriers` may ship as
  /// its QuotientCarriers; the decoded table is the same.
  static std::string SerializeTable(
      const Table& table, std::span<const QuotientCarriers> carriers = {});

  /// Reference encoder that ignores the columnar snapshot and boxes every
  /// cell through Table::Get — the row path that SKLD sub-ranges and
  /// type-deviant columns take, kept callable over a whole table so tests
  /// and benchmarks can pin SerializeTable's byte-identity (and measure the
  /// columnar feed's win). Produces identical bytes to SerializeTable for
  /// every table.
  static std::string SerializeTableRowPath(
      const Table& table, std::span<const QuotientCarriers> carriers = {});

  /// Decodes a wire-form table (SKL1 or SKL2, by magic); fails with
  /// IoError on malformed input. SKLD payloads are rejected here — they
  /// need a base table, use DecodeShipment().
  static Result<Table> DeserializeTable(std::string_view bytes);

  /// The same decode without building rows: the schema, the row count and
  /// one vector of values per column. Each format has one decoder —
  /// DeserializeTable is this plus a transpose — so both entry points
  /// accept and reject exactly the same payloads with the same status.
  static Result<DecodedColumns> DecodeColumns(std::string_view bytes);

  /// Exact wire size: WireSize(t) == SerializeTable(t).size() for every t;
  /// the length of the encoding itself, without the encode span and
  /// metrics.
  static size_t WireSize(const Table& table);

  /// Bytes after the common header (magic + schema + nrows); this is what
  /// Table::SerializedSize reports. Zero for an empty table.
  static size_t TablePayloadSize(const Table& table);

  /// The size `table` would take as an SKL1 payload: the header plus
  /// Value::SerializedSize of every cell. It prices the full-ship SKL1
  /// baseline of RoundMetrics::bytes_baseline_skl1 without encoding.
  static size_t Skl1Size(const Table& table);

  /// Encodes `table` as a delta against `base` (SKLD). The receiver must
  /// hold a bit-exact copy of `base` (enforced via a content hash). Columns
  /// are matched by name + declared type; a matched column whose first
  /// kept_rows values are bit-identical to the base ships only its appended
  /// rows. Always decodable; not guaranteed smaller than a full payload —
  /// callers compare sizes and ship whichever is smaller. Every section,
  /// over whichever rows it spans, may use `carriers` as SerializeTable's
  /// do.
  static std::string SerializeDelta(
      const Table& base, const Table& table,
      std::span<const QuotientCarriers> carriers = {});

  /// Decodes any shipped payload: SKL1/SKL2 full tables (cached may be
  /// null) or an SKLD delta applied to `*cached`. Fails with IoError on
  /// malformed input or when a delta's base hash does not match `*cached`.
  static Result<Table> DecodeShipment(const Table* cached,
                                      std::string_view bytes);

  /// Deterministic content hash (type- and bit-exact, including double bit
  /// patterns) used to pair SKLD payloads with their base table.
  static uint64_t ContentHash(const Table& table);
};

}  // namespace skalla

#endif  // SKALLA_STORAGE_SERIALIZER_H_
