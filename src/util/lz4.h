// LZ4 block-format compressor/decompressor, implemented from scratch.
//
// Two users, both benches: the storage-size experiment (paper Table 6:
// "+LZ4-Tiles", bench/bench_storage_table6.cc), where column chunks of JSON
// tiles compress well because values of one key path are stored
// contiguously, and Ablation F's reference rows (bench/bench_ablations.cc),
// the cost the dist wire and spill runs no longer pay. The encoder
// is a greedy single-pass matcher with a 64 Ki-entry hash table (comparable
// to LZ4 "fast" mode); the block format follows the public LZ4 specification
// (token, literals, 16-bit offsets, extension bytes).

#ifndef JSONTILES_UTIL_LZ4_H_
#define JSONTILES_UTIL_LZ4_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace jsontiles::lz4 {

/// Worst-case compressed size for `input_size` bytes.
size_t MaxCompressedSize(size_t input_size);

/// Compress `src[0..src_size)`; returns the compressed bytes.
std::vector<uint8_t> Compress(const uint8_t* src, size_t src_size);

/// Decompress into a buffer of exactly `decompressed_size` bytes.
/// Returns false on malformed input.
bool Decompress(const uint8_t* src, size_t src_size, uint8_t* dst,
                size_t decompressed_size);

}  // namespace jsontiles::lz4

#endif  // JSONTILES_UTIL_LZ4_H_
