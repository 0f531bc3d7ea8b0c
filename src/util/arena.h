// Arena allocator: fast bump allocation for tile headers, JSONB documents and
// other variable-sized per-relation data that is freed all at once.

#ifndef JSONTILES_UTIL_ARENA_H_
#define JSONTILES_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace jsontiles {

/// A region allocator. Allocations are 8-byte aligned and live until the
/// arena is destroyed or Reset(). Not thread-safe; use one arena per thread.
class Arena {
 public:
  explicit Arena(size_t initial_block_size = 64 * 1024)
      : block_size_(initial_block_size) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  /// Bytes an allocation of `size` takes from its block: `size` rounded up
  /// to the 8-byte alignment. An arena built with the sum of these as its
  /// initial block size serves those allocations from one exact block.
  static constexpr size_t AllocationSize(size_t size) {
    return (size + 7) & ~size_t{7};
  }

  /// Allocate `size` bytes (8-byte aligned). The bytes are uninitialized.
  uint8_t* Allocate(size_t size);

  /// Allocate and copy `size` bytes from `src`.
  uint8_t* AllocateCopy(const void* src, size_t size);

  /// Copy a string's bytes into the arena and view the copy (an empty input
  /// gives an empty view).
  std::string_view CopyString(std::string_view s);

  /// Total bytes handed out (excluding block overhead / slack).
  size_t bytes_allocated() const { return bytes_allocated_; }

  /// Total bytes reserved from the system.
  size_t bytes_reserved() const { return bytes_reserved_; }

  /// Take over `other`'s blocks: its allocations stay valid and now live as
  /// long as this arena, and the counters add up. `other` is left empty.
  /// Allocations here continue in this arena's own current block.
  void Absorb(Arena&& other);

  /// Drop all blocks.
  void Reset();

 private:
  void NewBlock(size_t min_size);

  size_t block_size_;
  std::vector<std::unique_ptr<uint8_t[]>> blocks_;
  uint8_t* cur_ = nullptr;
  uint8_t* end_ = nullptr;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
};

}  // namespace jsontiles

#endif  // JSONTILES_UTIL_ARENA_H_
