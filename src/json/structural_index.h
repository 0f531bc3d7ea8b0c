// Stage 1 of the on-demand parse path: a SIMD scan over the whole input
// buffer that records the position of every character the stage-2 walker must
// stop at — the structural index of "On-Demand JSON" (Keiser & Lemire,
// arXiv 2312.17149).
//
// Indexed positions, in ascending order:
//   - structural characters { } [ ] : , outside strings
//   - both delimiter quotes of every string (so the raw lexeme of a string is
//     exactly the bytes between two consecutive index entries)
//   - the first character of every non-string scalar run (numbers, literals,
//     and any garbage byte — the walker rejects what the grammar does not
//     allow, so junk still surfaces as a parse error)
//
// Nothing inside a string is indexed: quotes preceded by an odd-length
// backslash run are escaped and do not toggle the in-string state (the
// carry-propagating odd-run algorithm of simdjson stage 1). Bytes >= 0x80
// (UTF-8 continuation and lead bytes) classify as scalar characters and never
// as structure, so multi-byte sequences pass through unharmed; the scan never
// validates UTF-8, matching the streaming lexer.
//
// Two implementation tiers: an AVX2 scan on CPUs that have AVX2, else the
// scalar scan, which defines the exact semantics. The scalar scan is exported
// as the reference the tier tests compare the AVX2 scan against bit for bit.

#ifndef JSONTILES_JSON_STRUCTURAL_INDEX_H_
#define JSONTILES_JSON_STRUCTURAL_INDEX_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace jsontiles::json {

/// Ascending byte offsets of the structure of one document. Reusable: the
/// positions vector is a grow-only buffer kept across BuildStructuralIndex
/// calls — only the first `count` entries are valid. Never shrinking it means
/// repeated scans skip the value-initialization a fresh resize would pay.
struct StructuralIndex {
  std::vector<uint32_t> positions;
  size_t count = 0;
  /// Problem bitmap: bit i is set when byte i is a backslash or a control
  /// byte (< 0x20) inside a string. A string lexeme with no problem bit needs
  /// no escape decoding and nothing to validate (the two string error
  /// classes, bad escapes and raw control characters, are ruled out), so the
  /// walker takes it as-is. Grow-only buffer like `positions`; the first
  /// ceil(input_size / 64) words are valid.
  std::vector<uint64_t> problems;
  /// True when no problem bit is set anywhere — the whole-document fast flag
  /// (the walker then skips even the bitmap probes).
  bool clean_strings = false;
};

/// Scan `input` and fill `index->positions[0, count)`. Fails on inputs
/// the walker could never accept — an unterminated string or a document of
/// 4 GiB or more — so callers fall back to the streaming parser, which is the
/// arbiter of the final error status.
Status BuildStructuralIndex(std::string_view input, StructuralIndex* index);

/// The scalar scan: same contract and output as BuildStructuralIndex, one
/// character at a time. What BuildStructuralIndex runs without AVX2, and the
/// reference of the tier tests.
Status BuildStructuralIndexScalar(std::string_view input,
                                  StructuralIndex* index);

/// Tier BuildStructuralIndex runs on this CPU: "avx2" or "scalar".
const char* StructuralIndexIsa();

}  // namespace jsontiles::json

#endif  // JSONTILES_JSON_STRUCTURAL_INDEX_H_
