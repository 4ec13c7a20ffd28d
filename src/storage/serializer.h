#ifndef SKALLA_STORAGE_SERIALIZER_H_
#define SKALLA_STORAGE_SERIALIZER_H_

#include <string>
#include <string_view>

#include "common/result.h"
#include "storage/table.h"
#include "storage/wire_format.h"

namespace skalla {

/// \brief Byte-exact binary relation formats (see docs/wire-format.md).
///
/// Every relation shipped over the simulated network (net/sim_network.h) is
/// encoded with this serializer; the length of the produced string is the
/// byte count charged by the cost model. Two self-describing formats share
/// a common header and are distinguished by magic, so the decoder accepts
/// either regardless of the configured default:
///
/// SKL1 (row-oriented, little-endian):
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
/// varint codes. Columns mixing non-null types fall back to a per-value
/// tagged codec, and a section byte-equal to an earlier one over as many
/// rows is sent as a repeat of that field's index. A size codec is used
/// only when it makes its section strictly smaller.
///
/// SKLD (delta): ships only what changed versus a base table the receiver
/// already holds; decoded with DecodeShipment(). Layout: magic 'SKLD',
/// u64 base hash, full new schema, per-column varint mapping into the base
/// (0 = new column), varint kept_rows / total_rows, then SKL2 column
/// sections — new columns over all rows, mapped columns over the appended
/// rows only.
class Serializer {
 public:
  /// Full-table format selector; see storage/wire_format.h.
  using Format = WireFormat;

  /// Encodes a table to its wire form in the given format. SKL2 columns
  /// are fed from the table's cached columnar snapshot when the column is
  /// `usable` (Table::columnar) — same bytes, no per-cell boxing; see
  /// docs/wire-format.md.
  static std::string SerializeTable(const Table& table,
                                    Format format = DefaultWireFormat());

  /// Reference encoder that ignores the columnar snapshot and boxes every
  /// cell through Table::Get — the pre-columnar row path, kept callable so
  /// tests and benchmarks can pin SerializeTable's byte-identity (and
  /// measure the columnar feed's win). Produces identical bytes to
  /// SerializeTable for every table and format.
  static std::string SerializeTableRowPath(const Table& table,
                                           Format format = DefaultWireFormat());

  /// Decodes a wire-form table (either format, by magic); fails with
  /// IoError on malformed input. SKLD payloads are rejected here — they
  /// need a base table, use DecodeShipment().
  static Result<Table> DeserializeTable(std::string_view bytes);

  /// Exact wire size: WireSize(t, f) == SerializeTable(t, f).size() for
  /// every t and f. For SKL2 this is the length of the encoding itself
  /// (without the encode span and metrics); SKL1 sums per-value sizes.
  static size_t WireSize(const Table& table,
                         Format format = DefaultWireFormat());

  /// Bytes after the common header (magic + schema + nrows); this is what
  /// Table::SerializedSize(format) reports. Zero for an empty table.
  static size_t TablePayloadSize(const Table& table, Format format);

  /// Encodes `table` as a delta against `base` (SKLD). The receiver must
  /// hold a bit-exact copy of `base` (enforced via a content hash). Columns
  /// are matched by name + declared type; a matched column whose first
  /// kept_rows values are bit-identical to the base ships only its appended
  /// rows. Always decodable; not guaranteed smaller than a full payload —
  /// callers compare sizes and ship whichever is smaller.
  static std::string SerializeDelta(const Table& base, const Table& table);

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
