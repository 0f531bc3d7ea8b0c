#include "exec/agg_state.h"

#include <algorithm>
#include <cstring>

#include "exec/expression.h"
#include "util/logging.h"

namespace jsontiles::exec {

namespace {

// A total order over values of the same comparison class: type tag first,
// then exact bit pattern for floats (distinguishing -0.0 from 0.0 and NaN
// payloads), then numeric scale.
int DeterministicValueOrder(const Value& a, const Value& b) {
  if (a.type != b.type) return a.type < b.type ? -1 : 1;
  switch (a.type) {
    case ValueType::kNull:
      return 0;
    case ValueType::kFloat: {
      uint64_t ba, bb;
      std::memcpy(&ba, &a.d, 8);
      std::memcpy(&bb, &b.d, 8);
      return ba < bb ? -1 : ba > bb ? 1 : 0;
    }
    case ValueType::kString: {
      int c = a.s().compare(b.s());
      return c < 0 ? -1 : c > 0 ? 1 : 0;
    }
    case ValueType::kNumeric:
      if (a.scale != b.scale) return a.scale < b.scale ? -1 : 1;
      [[fallthrough]];
    default:
      return a.i < b.i ? -1 : a.i > b.i ? 1 : 0;
  }
}

}  // namespace

int TotalValueOrder(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) {
    if (a.is_null() && b.is_null()) return 0;
    return a.is_null() ? 1 : -1;
  }
  int cmp = a.Compare(b);
  if (cmp != 0) return cmp;
  return DeterministicValueOrder(a, b);
}

void Accumulator::AddValue(AggSpec::Kind kind, const Value& v) {
  switch (kind) {
    case AggSpec::Kind::kCountStar:
      count++;
      return;
    case AggSpec::Kind::kCount:
      if (!v.is_null()) count++;
      return;
    case AggSpec::Kind::kSum:
    case AggSpec::Kind::kAvg:
      if (v.is_null()) return;
      count++;
      sum_seen = true;
      if (v.type == ValueType::kInt) {
        sum_i += v.i;
      } else {
        sum_is_float = true;
        sum_f.Add(v.AsDouble());
      }
      return;
    case AggSpec::Kind::kMin:
      if (v.is_null()) return;
      if (min.is_null() || TotalValueOrder(v, min) < 0) min = v;
      return;
    case AggSpec::Kind::kMax:
      if (v.is_null()) return;
      if (max.is_null() || TotalValueOrder(v, max) > 0) max = v;
      return;
    case AggSpec::Kind::kCountDistinct:
      if (!v.is_null()) AddDistinct(v.Hash());
      return;
  }
}

void Accumulator::Merge(AggSpec::Kind kind, const Accumulator& other) {
  switch (kind) {
    case AggSpec::Kind::kCountStar:
    case AggSpec::Kind::kCount:
      count += other.count;
      return;
    case AggSpec::Kind::kSum:
    case AggSpec::Kind::kAvg:
      count += other.count;
      sum_seen |= other.sum_seen;
      sum_is_float |= other.sum_is_float;
      sum_i += other.sum_i;
      sum_f.Merge(other.sum_f);
      return;
    case AggSpec::Kind::kMin:
      if (!other.min.is_null() &&
          (min.is_null() || TotalValueOrder(other.min, min) < 0)) {
        min = other.min;
      }
      return;
    case AggSpec::Kind::kMax:
      if (!other.max.is_null() &&
          (max.is_null() || TotalValueOrder(other.max, max) > 0)) {
        max = other.max;
      }
      return;
    case AggSpec::Kind::kCountDistinct:
      if (other.distinct) {
        if (!distinct) {
          distinct = std::make_unique<std::unordered_set<uint64_t>>();
        }
        distinct->insert(other.distinct->begin(), other.distinct->end());
      }
      return;
  }
}

double Accumulator::FloatTotal() const {
  ExactFloatSum total = sum_f;
  int64_t hi_part = (sum_i >> 32) << 32;
  int64_t lo_part = sum_i - hi_part;
  total.Add(static_cast<double>(hi_part));
  total.Add(static_cast<double>(lo_part));
  return total.Round();
}

Value Accumulator::Finalize(AggSpec::Kind kind) const {
  switch (kind) {
    case AggSpec::Kind::kCountStar:
    case AggSpec::Kind::kCount:
      return Value::Int(count);
    case AggSpec::Kind::kSum:
      if (!sum_seen) return Value::Null();
      return sum_is_float ? Value::Float(FloatTotal()) : Value::Int(sum_i);
    case AggSpec::Kind::kAvg: {
      if (count == 0) return Value::Null();
      return Value::Float(FloatTotal() / static_cast<double>(count));
    }
    case AggSpec::Kind::kMin: return min;
    case AggSpec::Kind::kMax: return max;
    case AggSpec::Kind::kCountDistinct:
      return Value::Int(static_cast<int64_t>(distinct_count()));
  }
  return Value::Null();
}

void Accumulator::AddDistinct(uint64_t hash) {
  if (!distinct) distinct = std::make_unique<std::unordered_set<uint64_t>>();
  distinct->insert(hash);
}

GroupTable::GroupTable(size_t num_keys, const std::vector<AggSpec>& aggs)
    : num_keys_(num_keys) {
  kinds_.reserve(aggs.size());
  for (const AggSpec& a : aggs) kinds_.push_back(a.kind);
}

void GroupTable::Grow() {
  // All per-group arrays grow together, so an insert only writes into
  // already-constructed slots; the directory stays at twice the capacity.
  const size_t capacity = std::max<size_t>(16, 2 * hashes_.size());
  JSONTILES_CHECK(capacity < kChainEnd);
  hashes_.resize(capacity);
  next_.resize(capacity);
  keys_.resize(capacity * num_keys_);
  accs_.resize(capacity * num_aggs());
  heads_.assign(2 * capacity, kChainEnd);
  mask_ = heads_.size() - 1;
  for (uint32_t g = 0; g < size_; g++) {
    uint32_t& head = heads_[hashes_[g] & mask_];
    next_[g] = head;
    head = g;
  }
}

uint32_t GroupTable::FindOrInsert(uint64_t hash, const Value* keys,
                                  bool* created) {
  if (!heads_.empty()) {
    for (uint32_t g = heads_[hash & mask_]; g != kChainEnd; g = next_[g]) {
      if (hashes_[g] != hash) continue;
      const Value* gk = this->keys(g);
      bool equal = true;
      for (size_t i = 0; i < num_keys_ && equal; i++) {
        equal = gk[i].EqualsForGrouping(keys[i]);
      }
      if (equal) {
        *created = false;
        return g;
      }
    }
  }
  *created = true;
  if (size_ == hashes_.size()) Grow();
  const uint32_t g = size_++;
  hashes_[g] = hash;
  std::copy(keys, keys + num_keys_, keys_.begin() + size_t{g} * num_keys_);
  uint32_t& head = heads_[hash & mask_];
  next_[g] = head;
  head = g;
  size_t key_string_bytes = 0;
  for (size_t i = 0; i < num_keys_; i++) {
    if (keys[i].type == ValueType::kString) {
      key_string_bytes += keys[i].s().size();
    }
  }
  charged_bytes_ += GroupCharge(num_keys_, num_aggs(), key_string_bytes);
  return g;
}

void GroupTable::MergeGroup(uint64_t hash, const Value* keys,
                            Accumulator* accs) {
  bool created = false;
  const uint32_t g = FindOrInsert(hash, keys, &created);
  Accumulator* dst = this->accs(g);
  for (size_t a = 0; a < num_aggs(); a++) {
    if (created) {
      dst[a] = std::move(accs[a]);
    } else {
      dst[a].Merge(kinds_[a], accs[a]);
    }
  }
}

void GroupTable::MergeFrom(GroupTable& other) {
  for (uint32_t g = 0; g < other.size(); g++) {
    MergeGroup(other.hash(g), other.keys(g), other.accs(g));
  }
}

void GroupTable::Finalize(RowSet* out) const {
  const size_t na = num_aggs();
  for (uint32_t g = 0; g < size(); g++) {
    RowRef row = out->AppendRow(num_keys_ + na);
    std::copy(keys(g), keys(g) + num_keys_, row.begin());
    const Accumulator* acc = accs(g);
    for (size_t a = 0; a < na; a++) {
      row[num_keys_ + a] = acc[a].Finalize(kinds_[a]);
    }
  }
}

AggInput::AggInput(const RowSet& in, const std::vector<ExprPtr>& group_by,
                   const std::vector<AggSpec>& aggs)
    : batched_(in,
               [&] {
                 // Group keys first, then aggregate arguments.
                 std::vector<const Expr*> exprs = RawExprs(group_by);
                 for (const AggSpec& a : aggs) {
                   if (a.arg != nullptr) exprs.push_back(a.arg.get());
                 }
                 return exprs;
               }()),
      num_keys_(group_by.size()),
      lane_keys_(kVectorSize * group_by.size()),
      lane_hash_(kVectorSize),
      lane_group_(kVectorSize) {
  int next = static_cast<int>(group_by.size());
  for (const AggSpec& a : aggs) {
    kinds_.push_back(a.kind);
    arg_expr_.push_back(a.arg != nullptr ? next++ : -1);
  }
}

void AggInput::AccumulateBatch(const RowSet& in, size_t begin, size_t n,
                               Arena* arena, GroupTable* table) {
  batched_.LoadBatch(in, begin, n, arena);
  const size_t nk = num_keys_;
  bool created = false;
  if (nk == 0) {
    // Global aggregate: one group, one lookup per batch.
    std::fill_n(lane_group_.begin(), n,
                table->FindOrInsert(kKeyHashSeed, nullptr, &created));
  } else {
    batched_.HashKeys(nk, in, begin, n, arena, lane_keys_.data(),
                      lane_hash_.data());
    for (size_t k = 0; k < n; k++) {
      lane_group_[k] = table->FindOrInsert(lane_hash_[k], &lane_keys_[k * nk],
                                           &created);
    }
  }
  // Aggregates column by column: one kind and one argument per pass.
  const size_t na = kinds_.size();
  for (size_t a = 0; a < na; a++) {
    const AggSpec::Kind kind = kinds_[a];
    if (arg_expr_[a] < 0) {
      for (size_t k = 0; k < n; k++) table->accs(lane_group_[k])[a].count++;
      continue;
    }
    const size_t e = static_cast<size_t>(arg_expr_[a]);
    if (AccumulateTyped(kind, batched_.Result(e), a, n, table)) continue;
    for (size_t k = 0; k < n; k++) {
      table->accs(lane_group_[k])[a].AddValue(
          kind, batched_.Get(e, k, in[begin + k], arena));
    }
  }
}

bool AggInput::AccumulateTyped(AggSpec::Kind kind, const ColumnVector* col,
                               size_t a, size_t n, GroupTable* table) {
  // The same state changes Accumulator::AddValue makes for a non-null int
  // or float argument, read straight from the compiled result vector.
  if (col == nullptr || col->type() == ValueType::kNull) return false;
  const uint8_t* nulls = col->nulls();
  if (kind == AggSpec::Kind::kCount) {
    for (size_t k = 0; k < n; k++) {
      table->accs(lane_group_[k])[a].count += nulls[k] == 0;
    }
    return true;
  }
  if (kind != AggSpec::Kind::kSum && kind != AggSpec::Kind::kAvg) return false;
  if (col->type() == ValueType::kInt) {
    const int64_t* v = col->i64();
    for (size_t k = 0; k < n; k++) {
      if (nulls[k]) continue;
      Accumulator& acc = table->accs(lane_group_[k])[a];
      acc.count++;
      acc.sum_seen = true;
      acc.sum_i += v[k];
    }
    return true;
  }
  if (col->type() == ValueType::kFloat) {
    const double* v = col->f64();
    for (size_t k = 0; k < n; k++) {
      if (nulls[k]) continue;
      Accumulator& acc = table->accs(lane_group_[k])[a];
      acc.count++;
      acc.sum_seen = true;
      acc.sum_is_float = true;
      acc.sum_f.Add(v[k]);
    }
    return true;
  }
  return false;
}

void AccumulateRows(const RowSet& in, const std::vector<ExprPtr>& group_by,
                    const std::vector<AggSpec>& aggs, Arena* arena,
                    GroupTable* table) {
  AggInput input(in, group_by, aggs);
  for (size_t b = 0; b < in.size(); b += kVectorSize) {
    input.AccumulateBatch(in, b, std::min(kVectorSize, in.size() - b), arena,
                          table);
  }
}

Row EmptyGlobalAggRow(const std::vector<AggSpec>& aggs) {
  Row row;
  std::vector<Accumulator> accs(aggs.size());
  for (size_t a = 0; a < aggs.size(); a++) {
    row.push_back(accs[a].Finalize(aggs[a].kind));
  }
  return row;
}

}  // namespace jsontiles::exec
