// Logical JSON value types shared by the parser, the JSONB binary format and
// the tile extractor.
//
// The physical types of the binary representation match the RFC 8259
// requirements and are the same types used for JSON tiles extraction
// (paper §3.3 / §5.1), so the cast rewriting of §4.3 applies uniformly.

#ifndef JSONTILES_JSON_JSON_TYPE_H_
#define JSONTILES_JSON_JSON_TYPE_H_

#include <cstdint>

namespace jsontiles::json {

enum class JsonType : uint8_t {
  kNull = 0,
  kBool,
  kInt,            // SQL BigInt
  kFloat,          // SQL Float (IEEE 754 double)
  kString,         // SQL Text
  kNumericString,  // SQL Numeric hidden in a string (§5.2)
  kObject,
  kArray,
};

}  // namespace jsontiles::json

#endif  // JSONTILES_JSON_JSON_TYPE_H_
