#ifndef SKALLA_STORAGE_WIRE_FORMAT_H_
#define SKALLA_STORAGE_WIRE_FORMAT_H_

#include <cstdint>

namespace skalla {

/// \brief Wire formats understood by the serializer (see docs/wire-format.md).
///
/// kSkl1 is the original row-oriented format: one type tag per value, full
/// string payloads per row. kSkl2 is columnar: one codec tag per column, a
/// null bitmap, zig-zag varint delta encoding for int64 columns, packed raw
/// doubles, and a per-column string dictionary. Both formats carry the same
/// self-describing header (magic, schema, row count), so the decoder
/// dispatches on the magic and reads either format whichever the sender
/// chose. Header-only so that net/ can depend on it without a
/// storage link dependency.
enum class WireFormat : uint8_t {
  kSkl1 = 1,
  kSkl2 = 2,
};

inline const char* WireFormatName(WireFormat f) {
  return f == WireFormat::kSkl1 ? "SKL1" : "SKL2";
}

}  // namespace skalla

#endif  // SKALLA_STORAGE_WIRE_FORMAT_H_
