#include "util/arena.h"

#include <algorithm>
#include <cstring>
#include <iterator>

namespace jsontiles {

uint8_t* Arena::Allocate(size_t size) {
  size = AllocationSize(size);
  if (static_cast<size_t>(end_ - cur_) < size) NewBlock(size);
  uint8_t* result = cur_;
  cur_ += size;
  bytes_allocated_ += size;
  return result;
}

uint8_t* Arena::AllocateCopy(const void* src, size_t size) {
  uint8_t* dst = Allocate(size);
  // A fresh arena returns null for size 0, and memcpy's pointers must not be.
  if (size != 0) std::memcpy(dst, src, size);
  return dst;
}

std::string_view Arena::CopyString(std::string_view s) {
  if (s.empty()) return {};
  return {reinterpret_cast<const char*>(AllocateCopy(s.data(), s.size())),
          s.size()};
}

void Arena::NewBlock(size_t min_size) {
  size_t size = std::max(block_size_, min_size);
  blocks_.push_back(std::make_unique_for_overwrite<uint8_t[]>(size));
  cur_ = blocks_.back().get();
  end_ = cur_ + size;
  bytes_reserved_ += size;
  // Grow geometrically up to 8 MiB blocks to amortize allocation.
  block_size_ = std::min<size_t>(block_size_ * 2, 8 * 1024 * 1024);
}

void Arena::Absorb(Arena&& other) {
  blocks_.insert(blocks_.end(), std::make_move_iterator(other.blocks_.begin()),
                 std::make_move_iterator(other.blocks_.end()));
  bytes_allocated_ += other.bytes_allocated_;
  bytes_reserved_ += other.bytes_reserved_;
  other.Reset();
}

void Arena::Reset() {
  blocks_.clear();
  cur_ = end_ = nullptr;
  bytes_allocated_ = 0;
  bytes_reserved_ = 0;
}

}  // namespace jsontiles
