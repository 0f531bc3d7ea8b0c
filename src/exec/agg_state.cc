#include "exec/agg_state.h"

#include <algorithm>
#include <cstring>

#include "exec/expression.h"
#include "util/hash.h"

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
      int c = a.s.compare(b.s);
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
      if (!v.is_null()) distinct.insert(v.Hash());
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
      distinct.insert(other.distinct.begin(), other.distinct.end());
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
      return Value::Int(static_cast<int64_t>(distinct.size()));
  }
  return Value::Null();
}

AggGroup& FindOrInsertGroup(AggGroupMap* groups, uint64_t hash,
                            const Value* keys, size_t num_keys,
                            bool* created) {
  auto& bucket = (*groups)[hash];
  for (auto& g : bucket) {
    bool equal = true;
    for (size_t i = 0; i < num_keys && equal; i++) {
      equal = g.keys[i].EqualsForGrouping(keys[i]);
    }
    if (equal) {
      *created = false;
      return g;
    }
  }
  *created = true;
  bucket.push_back(AggGroup{std::vector<Value>(keys, keys + num_keys), {}});
  return bucket.back();
}

void AccumulateRows(const RowSet& in, const std::vector<ExprPtr>& group_by,
                    const std::vector<AggSpec>& aggs, Arena* arena,
                    AggGroupMap* groups) {
  std::vector<Value> keys;
  keys.reserve(group_by.size());
  for (RowView row : in) {
    uint64_t h = kKeyHashSeed;
    keys.clear();
    for (const auto& g : group_by) {
      Value v = EvalExpr(*g, row.data(), arena);
      h = HashCombine(h, v.Hash());
      keys.push_back(v);
    }
    bool created = false;
    AggGroup& group =
        FindOrInsertGroup(groups, h, keys.data(), keys.size(), &created);
    if (created) group.accs.resize(aggs.size());
    for (size_t a = 0; a < aggs.size(); a++) {
      Value v = Value::Null();
      if (aggs[a].arg != nullptr) {
        v = EvalExpr(*aggs[a].arg, row.data(), arena);
      }
      group.accs[a].AddValue(aggs[a].kind, v);
    }
  }
}

void MergeGroup(AggGroupMap* dst, uint64_t hash, AggGroup&& group,
                const std::vector<AggSpec>& aggs) {
  bool created = false;
  AggGroup& target = FindOrInsertGroup(dst, hash, group.keys.data(),
                                       group.keys.size(), &created);
  if (created) {
    target.accs = std::move(group.accs);
    return;
  }
  for (size_t a = 0; a < aggs.size(); a++) {
    target.accs[a].Merge(aggs[a].kind, group.accs[a]);
  }
}

void FinalizeGroups(const AggGroupMap& groups,
                    const std::vector<AggSpec>& aggs, RowSet* out) {
  for (const auto& [h, bucket] : groups) {
    (void)h;
    for (const auto& g : bucket) {
      RowRef row = out->AppendRow(g.keys.size() + aggs.size());
      std::copy(g.keys.begin(), g.keys.end(), row.begin());
      for (size_t a = 0; a < aggs.size(); a++) {
        row[g.keys.size() + a] = g.accs[a].Finalize(aggs[a].kind);
      }
    }
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
