// The executor's one value and row encoding. Spill runs (exec/spill.h) and
// the dist wire's row batches, aggregate partials and expression constants
// (dist/wire.h) all write through it, so a spilled record after its key hash
// and a row of a wire row batch are the same bytes (DESIGN.md §9):
//
//   row:   [u16 width] then `width` values
//   value: [u8 type][u8 scale] then, by type,
//            null    nothing
//            string  [u32 length][the bytes]
//            other   the 8-byte payload (the integer, bool, timestamp,
//                    numeric's unscaled value or the double's bits)
//
// Decoding reads through ByteReader, so truncated or corrupt bytes yield
// false, never a read past the buffer.

#ifndef JSONTILES_EXEC_ROW_CODEC_H_
#define JSONTILES_EXEC_ROW_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "exec/row_set.h"
#include "exec/value.h"
#include "util/arena.h"
#include "util/byte_codec.h"
#include "util/logging.h"

namespace jsontiles::exec {

inline void EncodeValue(const Value& v, ByteWriter* w) {
  w->U8(static_cast<uint8_t>(v.type));
  w->U8(v.scale);
  if (v.type == ValueType::kString) {
    w->U32(v.str_len);
    w->Raw(v.s().data(), v.s().size());
  } else if (v.type != ValueType::kNull) {
    w->I64(v.i);
  }
}

/// Strings are copied into `arena`; with a null arena they view the reader's
/// buffer and live only as long as it does.
inline bool DecodeValue(ByteReader* r, Arena* arena, Value* v) {
  uint8_t type;
  *v = Value();
  if (!r->U8(&type) || !r->U8(&v->scale) ||
      type > static_cast<uint8_t>(ValueType::kNumeric)) {
    return false;
  }
  v->type = static_cast<ValueType>(type);
  switch (v->type) {
    case ValueType::kNull:
      return true;
    case ValueType::kString: {
      uint32_t len;
      const uint8_t* bytes;
      if (!r->U32(&len) || !r->Raw(len, &bytes)) return false;
      const std::string_view s(reinterpret_cast<const char*>(bytes), len);
      v->set_s(arena != nullptr ? arena->CopyString(s) : s);
      return true;
    }
    default:
      return r->I64(&v->i);
  }
}

/// A row is its `u16` width and its values; readers take the width with
/// `ByteReader::U16` and then DecodeValue each value.
inline void EncodeRow(RowView row, ByteWriter* w) {
  JSONTILES_CHECK(row.size() <= 0xFFFF);
  w->U16(static_cast<uint16_t>(row.size()));
  for (const Value& v : row) EncodeValue(v, w);
}

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_ROW_CODEC_H_
