// Stage-1 structural scan (see structural_index.h). The input is processed in
// 64-byte blocks; each block becomes four 64-bit classification masks
// (backslash, quote, structural operator, whitespace) and pure bit arithmetic
// turns them into the index mask:
//
//   escaped   = characters preceded by an odd-length backslash run (the
//               carry-propagating algorithm of simdjson stage 1)
//   quote     = raw quotes & ~escaped
//   in_string = prefix_xor(quote) ^ carry   (opening quote inside, closing
//                                            quote outside)
//   pot_start = first character of every non-quote scalar run
//   index     = ((op | pot_start) & ~in_string) | quote
//
// The scalar tier evaluates the same definitions one character at a time and
// is the reference the AVX2 tier must match bit for bit.

#include "json/structural_index.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace jsontiles::json {

namespace {

// --------------------------------------------------------------------------
// Scalar reference tier — defines the exact semantics of the scan.
// --------------------------------------------------------------------------

inline bool IsOp(unsigned char c) {
  return c == '{' || c == '}' || c == '[' || c == ']' || c == ':' || c == ',';
}
inline bool IsWs(unsigned char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

Status ScanScalar(std::string_view input, StructuralIndex* index) {
  std::vector<uint32_t>* positions = &index->positions;
  positions->clear();
  const size_t n = input.size();
  const size_t words = n / 64 + 1;
  if (index->problems.size() < words) index->problems.resize(words);
  std::memset(index->problems.data(), 0, words * sizeof(uint64_t));
  bool in_string = false;
  bool escaped = false;   // the *next* character is escaped
  bool prev_nqs = false;  // previous character was a non-quote scalar char
  bool clean = true;      // no backslash / control byte inside a string
  for (size_t i = 0; i < n; i++) {
    const unsigned char c = static_cast<unsigned char>(input[i]);
    const bool is_escaped = escaped;
    escaped = (c == '\\') && !is_escaped;
    const bool real_quote = (c == '"') && !is_escaped;
    if (real_quote) in_string = !in_string;
    const bool is_op = IsOp(c);
    const bool is_ws = IsWs(c);
    const bool nqs = !is_op && !is_ws && !real_quote;
    if (real_quote || (!in_string && (is_op || (nqs && !prev_nqs)))) {
      positions->push_back(static_cast<uint32_t>(i));
    }
    if (in_string && (c == '\\' || c < 0x20)) {
      clean = false;
      index->problems[i / 64] |= 1ULL << (i % 64);
    }
    prev_nqs = nqs;
  }
  index->count = positions->size();
  if (in_string) return Status::ParseError("unterminated string");
  index->clean_strings = clean;
  return Status::OK();
}

#if defined(__x86_64__)

// --------------------------------------------------------------------------
// Block machinery of the AVX2 tier (plain 64-bit arithmetic).
// --------------------------------------------------------------------------

struct BlockMasks {
  uint64_t backslash = 0;
  uint64_t quote = 0;  // raw '"' characters, escaped or not
  uint64_t op = 0;
  uint64_t ws = 0;
  uint64_t ctrl = 0;  // bytes < 0x20
};

struct ScanState {
  uint64_t prev_escaped = 0;    // 0 or 1: carry into bit 0 of the next block
  uint64_t prev_in_string = 0;  // 0 or ~0: string state at the block boundary
  uint64_t prev_nqs = 0;        // 0 or 1: last char was a non-quote scalar
  uint64_t problems = 0;        // backslash/control bits seen inside strings
};

// Characters preceded by an unescaped backslash, i.e. by an odd-length
// backslash run. Branchless odd/even run tracking with a carry, exactly the
// simdjson stage-1 algorithm.
__attribute__((always_inline)) inline uint64_t FindEscaped(uint64_t backslash, uint64_t* prev_escaped) {
  backslash &= ~*prev_escaped;
  const uint64_t follows_escape = (backslash << 1) | *prev_escaped;
  constexpr uint64_t kEvenBits = 0x5555555555555555ULL;
  const uint64_t odd_sequence_starts = backslash & ~kEvenBits & ~follows_escape;
  uint64_t sequences_starting_on_even_bits;
  *prev_escaped = __builtin_add_overflow(odd_sequence_starts, backslash,
                                         &sequences_starting_on_even_bits)
                      ? 1
                      : 0;
  const uint64_t invert_mask = sequences_starting_on_even_bits << 1;
  return (kEvenBits ^ invert_mask) & follows_escape;
}

// Bit i of the result = parity of set bits at positions <= i (so a string's
// opening quote lands inside, its closing quote outside).
__attribute__((always_inline)) inline uint64_t PrefixXor(uint64_t x) {
  x ^= x << 1;
  x ^= x << 2;
  x ^= x << 4;
  x ^= x << 8;
  x ^= x << 16;
  x ^= x << 32;
  return x;
}

// ctz that tolerates 0 (the unconditional extraction below may call it on an
// exhausted mask; the resulting garbage entry lands beyond the final count).
__attribute__((always_inline)) inline uint32_t CtzPad(uint64_t b) {
  return static_cast<uint32_t>(__builtin_ctzll(b | (1ULL << 63)));
}

// `out` must have room for the set bits of the block rounded up to a multiple
// of 8: positions are extracted eight at a time with no per-bit branch (the
// simdjson stage-1 flattening), which is what keeps dense documents — every
// other byte structural — from serializing the scan on a mispredicted loop.
__attribute__((always_inline)) inline void ProcessBlock(const BlockMasks& m, uint64_t valid, uint32_t base,
                         ScanState* st, uint32_t* out, size_t* count,
                         uint64_t* problem_word) {
  const uint64_t escaped = FindEscaped(m.backslash, &st->prev_escaped);
  const uint64_t quote = m.quote & ~escaped;
  const uint64_t in_string = PrefixXor(quote) ^ st->prev_in_string;
  st->prev_in_string =
      static_cast<uint64_t>(static_cast<int64_t>(in_string) >> 63);
  const uint64_t nqs = ~(m.op | m.ws) & ~quote;
  const uint64_t follows_nqs = (nqs << 1) | st->prev_nqs;
  st->prev_nqs = nqs >> 63;
  const uint64_t problems = (m.backslash | m.ctrl) & in_string & valid;
  *problem_word = problems;
  st->problems |= problems;
  uint64_t index =
      ((((m.op | (nqs & ~follows_nqs)) & ~in_string) | quote)) & valid;
  uint32_t* cursor = out + *count;
  *count += static_cast<size_t>(__builtin_popcountll(index));
  while (index != 0) {
    cursor[0] = base + CtzPad(index); index &= index - 1;
    cursor[1] = base + CtzPad(index); index &= index - 1;
    cursor[2] = base + CtzPad(index); index &= index - 1;
    cursor[3] = base + CtzPad(index); index &= index - 1;
    cursor[4] = base + CtzPad(index); index &= index - 1;
    cursor[5] = base + CtzPad(index); index &= index - 1;
    cursor[6] = base + CtzPad(index); index &= index - 1;
    cursor[7] = base + CtzPad(index); index &= index - 1;
    cursor += 8;
  }
}

// --------------------------------------------------------------------------
// avx2 tier: function multi-versioning, runtime-selected.
// --------------------------------------------------------------------------

// Nibble-LUT operator/whitespace classification (the simdjson stage-1
// trick): vpshufb looks each byte's LOW nibble up in a 16-entry table
// holding the one candidate character with that low nibble; a byte is in
// the class iff it equals its candidate. Folding with | 0x20 first maps
// '[' onto '{' and ']' onto '}' (and nothing else onto an operator), so one
// table covers all six operators: ','=0x2C -> C, ':'=0x3A -> A,
// '{'=0x7B -> B, '}'=0x7D -> D. Whitespace candidates: ' '=0x20 -> 0,
// '\t'=0x09 -> 9, '\n'=0x0A -> A, '\r'=0x0D -> D; the filler values in the
// unused entries (odd constants, following simdjson) equal no input byte
// with that low nibble, and vpshufb zeroes the lane outright for bytes with
// the high bit set (UTF-8 continuation/lead bytes). Two shuffles and two
// compares replace the eight compares of the naive classifier —
// classification dominates the per-byte scan work, so this buys a sizable
// chunk of stage-1 throughput.
__attribute__((target("avx2"), always_inline)) inline void ClassifyAvx2(const uint8_t* p,
                                                         BlockMasks* m) {
  m->backslash = m->quote = m->op = m->ws = m->ctrl = 0;
  const __m256i op_lut = _mm256_setr_epi8(
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ':', '{', ',', '}', 0, 0,
      0, 0, 0, 0, 0, 0, 0, 0, 0, 0, ':', '{', ',', '}', 0, 0);
  const __m256i ws_lut = _mm256_setr_epi8(
      ' ', 100, 100, 100, 17, 100, 113, 2, 100, '\t', '\n', 112, 100, '\r',
      100, 100,
      ' ', 100, 100, 100, 17, 100, 113, 2, 100, '\t', '\n', 112, 100, '\r',
      100, 100);
  for (int k = 0; k < 2; k++) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * k));
    const __m256i folded = _mm256_or_si256(v, _mm256_set1_epi8(0x20));
    const __m256i opv =
        _mm256_cmpeq_epi8(folded, _mm256_shuffle_epi8(op_lut, v));
    const __m256i wsv = _mm256_cmpeq_epi8(v, _mm256_shuffle_epi8(ws_lut, v));
    const int shift = 32 * k;
    m->backslash |= static_cast<uint64_t>(static_cast<uint32_t>(
                        _mm256_movemask_epi8(
                            _mm256_cmpeq_epi8(v, _mm256_set1_epi8('\\')))))
                    << shift;
    m->quote |=
        static_cast<uint64_t>(static_cast<uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(v, _mm256_set1_epi8('"')))))
        << shift;
    m->op |= static_cast<uint64_t>(
                 static_cast<uint32_t>(_mm256_movemask_epi8(opv)))
             << shift;
    m->ws |= static_cast<uint64_t>(
                 static_cast<uint32_t>(_mm256_movemask_epi8(wsv)))
             << shift;
    m->ctrl |=
        static_cast<uint64_t>(static_cast<uint32_t>(_mm256_movemask_epi8(
            _mm256_cmpeq_epi8(_mm256_min_epu8(v, _mm256_set1_epi8(0x1F)), v))))
        << shift;
  }
  // The fold admits exactly two shadows — 0x1A | 0x20 == ':' and
  // 0x0C | 0x20 == ',' — both control bytes; strip them so this tier stays
  // bit-identical to the scalar classifier (which calls them scalar chars).
  m->op &= ~m->ctrl;
}

__attribute__((target("avx2"))) Status ScanAvx2(std::string_view input,
                                                StructuralIndex* index) {
  const uint8_t* data = reinterpret_cast<const uint8_t*>(input.data());
  const size_t n = input.size();
  // Worst case one position per byte, plus slack for the 8-wide extraction
  // overshoot. Grow-only: the buffer is never shrunk, so a reused index pays
  // the value-initializing resize once at its high-water mark.
  if (index->positions.size() < n + 8) index->positions.resize(n + 8);
  const size_t words = n / 64 + 1;
  if (index->problems.size() < words) index->problems.resize(words);
  uint32_t* out = index->positions.data();
  uint64_t* problems = index->problems.data();
  size_t count = 0;
  ScanState st;
  BlockMasks m;
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    ClassifyAvx2(data + i, &m);
    ProcessBlock(m, ~0ULL, static_cast<uint32_t>(i), &st, out, &count,
                 problems + i / 64);
  }
  if (i < n) {
    // Zero padding classifies as scalar characters; the valid mask keeps any
    // bits they produce out of the index, and zeros never touch the
    // escape/string carries.
    uint8_t tail[64] = {0};
    std::memcpy(tail, data + i, n - i);
    ClassifyAvx2(tail, &m);
    ProcessBlock(m, (1ULL << (n - i)) - 1, static_cast<uint32_t>(i), &st, out,
                 &count, problems + i / 64);
  }
  index->count = count;
  if (st.prev_in_string != 0) return Status::ParseError("unterminated string");
  index->clean_strings = st.problems == 0;
  return Status::OK();
}

#endif  // __x86_64__

bool CpuHasAvx2() {
#if defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
#else
  return false;
#endif
}

// Checks and resets shared by both tiers.
Status BeginScan(std::string_view input, StructuralIndex* index) {
  index->count = 0;
  index->clean_strings = false;
  if (input.size() > 0xFFFFFFFFull) {
    return Status::OutOfRange("input too large for structural index");
  }
  return Status::OK();
}

}  // namespace

Status BuildStructuralIndex(std::string_view input, StructuralIndex* index) {
#if defined(__x86_64__)
  if (CpuHasAvx2()) {
    JSONTILES_RETURN_NOT_OK(BeginScan(input, index));
    return ScanAvx2(input, index);
  }
#endif
  return BuildStructuralIndexScalar(input, index);
}

Status BuildStructuralIndexScalar(std::string_view input,
                                  StructuralIndex* index) {
  JSONTILES_RETURN_NOT_OK(BeginScan(input, index));
  return ScanScalar(input, index);
}

const char* StructuralIndexIsa() { return CpuHasAvx2() ? "avx2" : "scalar"; }

}  // namespace jsontiles::json
