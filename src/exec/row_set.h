// Flat row sets: the unit operators hand to each other.
//
// A RowSet is a width, a row count and one contiguous row-major Value array.
// Producers append straight into the flat tail, or grow it once for a batch
// (resize) and write the new rows in place, compacting away rejected rows
// with CopyRow; consumers read rows through lightweight views. The row count
// is kept separately from the array size because zero-width rows are legal:
// a COUNT(*) scan with no accesses still emits one (empty) row per match.
//
// A standalone `Row` (std::vector<Value>) remains the type for assembling a
// single row on its own; it converts implicitly to a RowView.

#ifndef JSONTILES_EXEC_ROW_SET_H_
#define JSONTILES_EXEC_ROW_SET_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <initializer_list>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "exec/value.h"
#include "util/logging.h"

namespace jsontiles::exec {

using Row = std::vector<Value>;

/// A row of `size()` contiguous Values owned elsewhere. `V` is `const Value`
/// (RowView, read-only) or `Value` (RowRef, writable in place). Views are
/// invalidated by any append to the RowSet they point into.
template <typename V>
class BasicRowView {
 public:
  using value_type = Value;
  using iterator = V*;
  using const_iterator = V*;

  BasicRowView() = default;
  BasicRowView(V* data, size_t size) : data_(data), size_(size) {}
  /// A writable view reads as a read-only one.
  template <typename U>
    requires std::is_same_v<V, const U>
  BasicRowView(BasicRowView<U> other)  // NOLINT(google-explicit-constructor)
      : data_(other.data()), size_(other.size()) {}
  /// A standalone Row reads as a view (like std::string -> string_view).
  BasicRowView(const Row& row)  // NOLINT(google-explicit-constructor)
    requires std::is_const_v<V>
      : data_(row.data()), size_(row.size()) {}

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  V* data() const { return data_; }
  V& operator[](size_t i) const { return data_[i]; }
  V* begin() const { return data_; }
  V* end() const { return data_ + size_; }

  /// Copy into a standalone Row.
  Row ToRow() const { return Row(begin(), end()); }

 private:
  V* data_ = nullptr;
  size_t size_ = 0;
};

using RowView = BasicRowView<const Value>;
using RowRef = BasicRowView<Value>;

class RowSet {
 public:
  /// Random-access iterator over rows; dereferences to a view by value.
  template <typename V>
  class BasicIterator {
   public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = BasicRowView<V>;
    using difference_type = std::ptrdiff_t;
    using reference = BasicRowView<V>;
    using pointer = void;

    BasicIterator() = default;
    BasicIterator(V* base, size_t width, size_t row)
        : base_(base), width_(width), row_(row) {}

    reference operator*() const { return (*this)[0]; }
    reference operator[](difference_type n) const {
      return reference(base_ + (row_ + n) * width_, width_);
    }
    BasicIterator& operator++() {
      row_++;
      return *this;
    }
    BasicIterator operator++(int) {
      return BasicIterator(base_, width_, row_++);
    }
    BasicIterator& operator--() {
      row_--;
      return *this;
    }
    BasicIterator operator--(int) {
      return BasicIterator(base_, width_, row_--);
    }
    BasicIterator& operator+=(difference_type n) {
      row_ += n;
      return *this;
    }
    BasicIterator& operator-=(difference_type n) {
      row_ -= n;
      return *this;
    }
    BasicIterator operator+(difference_type n) const {
      return BasicIterator(base_, width_, row_ + n);
    }
    friend BasicIterator operator+(difference_type n, const BasicIterator& it) {
      return it + n;
    }
    BasicIterator operator-(difference_type n) const {
      return BasicIterator(base_, width_, row_ - n);
    }
    difference_type operator-(const BasicIterator& other) const {
      return static_cast<difference_type>(row_) -
             static_cast<difference_type>(other.row_);
    }
    bool operator==(const BasicIterator& other) const {
      return row_ == other.row_;
    }
    auto operator<=>(const BasicIterator& other) const {
      return row_ <=> other.row_;
    }

   private:
    V* base_ = nullptr;
    size_t width_ = 0;
    size_t row_ = 0;
  };

  using value_type = RowView;
  using iterator = BasicIterator<Value>;
  using const_iterator = BasicIterator<const Value>;
  using const_reverse_iterator = std::reverse_iterator<const_iterator>;

  /// Empty; the width is taken from the first appended row.
  RowSet() = default;
  /// Empty with a fixed width (every appended row must match it).
  explicit RowSet(size_t width) : width_(width), has_width_(true) {}
  /// Rows copied in order; all must have the first row's width.
  RowSet(std::initializer_list<Row> rows) {
    for (const Row& row : rows) push_back(row);
  }

  RowSet(const RowSet&) = default;
  RowSet& operator=(const RowSet&) = default;
  /// A moved-from set is empty and widthless, like a default-constructed one.
  RowSet(RowSet&& other) noexcept
      : values_(std::move(other.values_)),
        num_rows_(std::exchange(other.num_rows_, 0)),
        width_(std::exchange(other.width_, 0)),
        has_width_(std::exchange(other.has_width_, false)) {
    other.values_.clear();
  }
  RowSet& operator=(RowSet&& other) noexcept {
    if (this != &other) {
      values_ = std::move(other.values_);
      other.values_.clear();
      num_rows_ = std::exchange(other.num_rows_, 0);
      width_ = std::exchange(other.width_, 0);
      has_width_ = std::exchange(other.has_width_, false);
    }
    return *this;
  }

  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }
  /// Values per row (0 until a width is fixed or a row is appended).
  size_t width() const { return width_; }
  /// The flat row-major array: size() * width() Values.
  const std::vector<Value>& values() const { return values_; }

  RowView operator[](size_t i) const {
    return RowView(values_.data() + i * width_, width_);
  }
  RowRef operator[](size_t i) {
    return RowRef(values_.data() + i * width_, width_);
  }

  const_iterator begin() const { return {values_.data(), width_, 0}; }
  const_iterator end() const { return {values_.data(), width_, num_rows_}; }
  iterator begin() { return {values_.data(), width_, 0}; }
  iterator end() { return {values_.data(), width_, num_rows_}; }
  const_reverse_iterator rbegin() const {
    return const_reverse_iterator(end());
  }
  const_reverse_iterator rend() const {
    return const_reverse_iterator(begin());
  }

  /// Reserve room for `rows` rows in total at the current width.
  void reserve(size_t rows) { values_.reserve(rows * width_); }

  /// Drop every row; the width stays.
  void clear() {
    values_.clear();
    num_rows_ = 0;
  }

  /// Append a copy of `row`.
  void push_back(RowView row) {
    AdoptWidth(row.size());
    values_.insert(values_.end(), row.begin(), row.end());
    num_rows_++;
  }
  void push_back(const Row& row) { push_back(RowView(row)); }

  /// Append a row of `width` nulls and return it for filling in place.
  /// Valid until the next append.
  RowRef AppendRow(size_t width) {
    AdoptWidth(width);
    values_.resize(values_.size() + width);
    num_rows_++;
    return RowRef(values_.data() + values_.size() - width, width);
  }

  /// Append `a` followed by `b` as one row (the join output shape).
  void AppendConcat(RowView a, RowView b) {
    AdoptWidth(a.size() + b.size());
    values_.insert(values_.end(), a.begin(), a.end());
    values_.insert(values_.end(), b.begin(), b.end());
    num_rows_++;
  }

  /// Append `a` followed by `nulls` null values as one row (an unmatched
  /// LEFT JOIN probe row).
  void AppendPadded(RowView a, size_t nulls) {
    AdoptWidth(a.size() + nulls);
    values_.insert(values_.end(), a.begin(), a.end());
    values_.resize(values_.size() + nulls);
    num_rows_++;
  }

  /// Append every row of `other` (same width) in order, in one bulk copy.
  void Append(const RowSet& other) {
    if (other.num_rows_ == 0) return;
    AdoptWidth(other.width_);
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    num_rows_ += other.num_rows_;
  }

  /// Move-append: an empty set takes over `other`'s array instead of
  /// copying it. `other` is left empty.
  void Append(RowSet&& other) {
    if (num_rows_ == 0 && other.num_rows_ > 0) {
      if (has_width_) JSONTILES_CHECK(other.width_ == width_);
      *this = std::move(other);
      return;
    }
    Append(static_cast<const RowSet&>(other));
    other.clear();
  }

  /// Append every row of every part in order with one reservation, leaving
  /// the parts empty. A single non-empty part is move-appended.
  void AppendAll(std::vector<RowSet>&& parts) {
    size_t total = 0;
    size_t non_empty = 0;
    RowSet* only = nullptr;
    for (RowSet& p : parts) {
      total += p.values_.size();
      if (p.num_rows_ > 0) {
        only = &p;
        non_empty++;
      }
    }
    if (non_empty == 1) {
      Append(std::move(*only));
      return;
    }
    values_.reserve(values_.size() + total);
    for (RowSet& p : parts) {
      Append(p);
      p = RowSet();
    }
  }

  /// Shrink to the first `rows` rows, or grow with all-null rows.
  void resize(size_t rows) {
    values_.resize(rows * width_);
    num_rows_ = rows;
  }

  /// Overwrite row `dst` with a copy of row `src` (in-place compaction).
  void CopyRow(size_t dst, size_t src) {
    if (dst == src) return;
    std::copy_n(values_.data() + src * width_, width_,
                values_.data() + dst * width_);
  }

 private:
  void AdoptWidth(size_t width) {
    if (!has_width_) {
      width_ = width;
      has_width_ = true;
      return;
    }
    JSONTILES_CHECK(width == width_);
  }

  std::vector<Value> values_;
  size_t num_rows_ = 0;
  size_t width_ = 0;
  bool has_width_ = false;
};

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_ROW_SET_H_
