#ifndef RELDIV_COMMON_ROW_CODEC_H_
#define RELDIV_COMMON_ROW_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/schema.h"
#include "common/slice.h"
#include "common/tuple.h"

namespace reldiv {

/// Serializes tuples to the byte format stored in record files and sort
/// runs: int64/double as 8 bytes little-endian, strings as a 4-byte length
/// prefix followed by the bytes. Encoding is schema-driven; decoding
/// verifies that the payload is consistent with the schema and returns
/// Corruption otherwise.
class RowCodec {
 public:
  explicit RowCodec(Schema schema) : schema_(std::move(schema)) {
    fixed_width_ = true;
    types_.reserve(schema_.num_fields());
    for (size_t i = 0; i < schema_.num_fields(); ++i) {
      types_.push_back(schema_.field(i).type);
      if (schema_.field(i).type == ValueType::kString) fixed_width_ = false;
    }
  }

  const Schema& schema() const { return schema_; }

  /// Appends the encoding of `tuple` to `out`. InvalidArgument on a
  /// schema/tuple mismatch.
  Status Encode(const Tuple& tuple, std::string* out) const;

  /// Appends the encoding of `tuple`'s `columns`, in that order, as one row
  /// of this codec's schema (column i of the row is `tuple[columns[i]]`).
  /// InvalidArgument when `columns` does not match the schema's arity, a
  /// column is out of range, or a type mismatches.
  Status EncodeColumns(const Tuple& tuple, const std::vector<size_t>& columns,
                       std::string* out) const;

  /// Convenience wrapper returning a fresh buffer.
  Result<std::string> EncodeToString(const Tuple& tuple) const;

  /// Decodes one record payload into `tuple`.
  Status Decode(Slice payload, Tuple* tuple) const;

  /// Encoded size of `tuple` in bytes, computed without encoding: 8 per
  /// numeric field, 4 plus the length per string. Same InvalidArgument as
  /// Encode on a schema/tuple mismatch.
  Result<size_t> EncodedSize(const Tuple& tuple) const;

  /// Raw field access for code that works on encoded rows in place.
  static void PutInt64(int64_t v, std::string* out);
  static uint64_t LoadU64(const char* p) {
    // The byte loop compiles to a single load on little-endian targets and
    // stays correct elsewhere.
    uint64_t out = 0;
    for (int i = 0; i < 8; ++i) {
      out |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    }
    return out;
  }
  static uint32_t LoadU32(const char* p) {
    uint32_t out = 0;
    for (int i = 0; i < 4; ++i) {
      out |= static_cast<uint32_t>(static_cast<unsigned char>(p[i]))
             << (8 * i);
    }
    return out;
  }
  static void StoreU64(uint64_t v, char* p) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }

 private:
  Schema schema_;
  std::vector<ValueType> types_;  ///< densely packed field types (hot loop)
  bool fixed_width_ = false;      ///< no string fields: 8 bytes per column
};

}  // namespace reldiv

#endif  // RELDIV_COMMON_ROW_CODEC_H_
