// The flat group table (exec/agg_state.h) against a plain std::map oracle.
//
// Seeded random inputs mix int, string, float, numeric and null group keys
// and feed every aggregate kind, including float sums whose partials outgrow
// the inline buffer. The oracle groups by a canonical key (numbers that
// compare equal share one, as EqualsForGrouping says), sums floats with a
// heap-only reference of the Shewchuk summer, and records groups in order of
// first appearance. Every execution path — one thread, four threads,
// compiled keys and arguments, keys or whole inputs that do not compile (so
// BatchedExprs interprets them per row), the worker-side AccumulateRows and
// the spill path — must finalize to the same bits.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/agg_state.h"
#include "exec/operators.h"
#include "exec/scan.h"
#include "exec/spill.h"
#include "obs/plan_profile.h"
#include "util/hash.h"

namespace jsontiles::exec {
namespace {

// Shewchuk's summer with std::vector partials and math.fsum rounding: the
// reference the inline-buffer ExactFloatSum must match bit for bit.
double ReferenceFsum(const std::vector<double>& xs) {
  std::vector<double> partials;
  for (double x : xs) {
    size_t kept = 0;
    for (double y : partials) {
      if (std::abs(x) < std::abs(y)) std::swap(x, y);
      double hi = x + y;
      double lo = y - (hi - x);
      if (lo != 0.0) partials[kept++] = lo;
      x = hi;
    }
    partials.resize(kept);
    if (x != 0.0) partials.push_back(x);
  }
  if (partials.empty()) return 0.0;
  size_t n = partials.size();
  double hi = partials[--n];
  double lo = 0.0;
  while (n > 0) {
    double x = hi;
    double y = partials[--n];
    hi = x + y;
    lo = y - (hi - x);
    if (lo != 0.0) break;
  }
  if (n > 0 && ((lo < 0.0 && partials[n - 1] < 0.0) ||
                (lo > 0.0 && partials[n - 1] > 0.0))) {
    double y = lo * 2.0;
    double x = hi + y;
    if (y == x - hi) hi = x;
  }
  return hi;
}

// Canonical grouping key of one value. Numbers with an integral value share
// the integer's key across int/float/numeric; fractional floats and
// numerics keep their own (the generator never makes the two collide).
std::string CanonicalKey(const Value& v) {
  switch (v.type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kString:
      return "s:" + std::string(v.s());
    case ValueType::kInt:
      return "i:" + std::to_string(v.i);
    case ValueType::kFloat: {
      if (v.d == std::floor(v.d)) {
        return "i:" + std::to_string(static_cast<int64_t>(v.d));
      }
      uint64_t bits;
      std::memcpy(&bits, &v.d, 8);
      return "f:" + std::to_string(bits);
    }
    case ValueType::kNumeric: {
      int64_t unscaled = v.i;
      int scale = v.scale;
      while (scale > 0 && unscaled % 10 == 0) {
        unscaled /= 10;
        scale--;
      }
      if (scale == 0) return "i:" + std::to_string(unscaled);
      return "d:" + std::to_string(unscaled) + "e-" + std::to_string(scale);
    }
    default:
      return "?";
  }
}

struct OracleGroup {
  std::vector<Value> keys;  // the first row's keys
  int64_t rows = 0;
  // Per aggregate argument column: non-null values seen.
  std::vector<std::vector<Value>> args;
};

// Finalize one aggregate from the oracle's raw values.
Value OracleFinalize(AggSpec::Kind kind, int64_t rows,
                     const std::vector<Value>& vals) {
  switch (kind) {
    case AggSpec::Kind::kCountStar:
      return Value::Int(rows);
    case AggSpec::Kind::kCount:
      return Value::Int(static_cast<int64_t>(vals.size()));
    case AggSpec::Kind::kSum:
    case AggSpec::Kind::kAvg: {
      if (vals.empty()) return Value::Null();
      bool all_int = true;
      int64_t isum = 0;
      std::vector<double> ds;
      for (const Value& v : vals) {
        all_int &= v.type == ValueType::kInt;
        if (v.type == ValueType::kInt) isum += v.i;
        ds.push_back(v.AsDouble());  // ints stay below 2^53: exact
      }
      if (kind == AggSpec::Kind::kSum) {
        return all_int ? Value::Int(isum) : Value::Float(ReferenceFsum(ds));
      }
      return Value::Float(ReferenceFsum(ds) /
                          static_cast<double>(vals.size()));
    }
    case AggSpec::Kind::kMin:
    case AggSpec::Kind::kMax: {
      Value best;
      for (const Value& v : vals) {
        int cmp = best.is_null() ? 0 : TotalValueOrder(v, best);
        if (best.is_null() || (kind == AggSpec::Kind::kMin ? cmp < 0 : cmp > 0)) {
          best = v;
        }
      }
      return best;
    }
    case AggSpec::Kind::kCountDistinct: {
      std::set<uint64_t> hashes;
      for (const Value& v : vals) hashes.insert(v.Hash());
      return Value::Int(static_cast<int64_t>(hashes.size()));
    }
  }
  return Value::Null();
}

// Rows [key columns..., argument columns...] and the oracle's answer.
struct Dataset {
  RowSet rows;
  size_t num_keys = 0;
  std::vector<AggSpec> aggs;
  std::vector<ExprPtr> group_by;
};

// Row layout: slot 0 and 1 are keys, slot 2 an int argument (with nulls),
// slot 3 a float argument, slot 4 a string argument, slot 5 a numeric
// argument (mixed int/float/numeric with mixed keys).
Dataset MakeDataset(uint64_t seed, size_t num_rows, bool mixed_keys,
                    std::deque<std::string>* strings) {
  std::mt19937_64 rng(seed);
  auto pick = [&](uint64_t n) { return rng() % n; };
  auto str = [&](const std::string& s) {
    strings->push_back(s);
    return Value::String(strings->back());
  };
  Dataset d;
  d.num_keys = 2;
  d.group_by = {Slot(0), Slot(1)};
  d.aggs = {AggSpec::CountStar(),          AggSpec::Count(Slot(2)),
            AggSpec::Sum(Slot(2)),         AggSpec::Sum(Slot(3)),
            AggSpec::Avg(Slot(3)),         AggSpec::Min(Slot(4)),
            AggSpec::Max(Slot(3)),         AggSpec::CountDistinct(Slot(2)),
            AggSpec::Sum(Slot(5)),         AggSpec::Avg(Slot(5)),
            AggSpec::Min(Slot(5)),         AggSpec::Max(Slot(4)),
            AggSpec::CountDistinct(Slot(4))};
  d.rows = RowSet(6);
  for (size_t r = 0; r < num_rows; r++) {
    Row row(6);
    // Key 0: typed int with nulls, or a mix of every key type.
    const int64_t k = static_cast<int64_t>(pick(40));
    if (!mixed_keys) {
      row[0] = pick(25) == 0 ? Value::Null() : Value::Int(k);
    } else {
      switch (pick(7)) {
        case 0: row[0] = Value::Int(k); break;
        case 1: row[0] = Value::Float(static_cast<double>(k)); break;
        case 2: row[0] = Value::Num(Numeric{k * 100, 2}); break;
        case 3: row[0] = Value::Float(static_cast<double>(k) + 0.25); break;
        case 4: row[0] = Value::Num(Numeric{k * 10 + 3, 1}); break;
        case 5: row[0] = str("key" + std::to_string(k % 9)); break;
        default: row[0] = Value::Null(); break;
      }
    }
    // Key 1: a small string domain.
    row[1] = str(std::string(1, static_cast<char>('a' + pick(5))));
    row[2] = pick(10) == 0 ? Value::Null()
                           : Value::Int(static_cast<int64_t>(pick(2000)) - 1000);
    // Float argument: ordinary decimals, except that key 7 gets values of
    // far-apart magnitudes whose partials outgrow the inline buffer.
    if (k == 7) {
      row[3] = Value::Float(std::ldexp(1.0 + static_cast<double>(pick(1000)) / 1024,
                                       static_cast<int>(pick(600)) - 300));
    } else {
      row[3] = pick(12) == 0 ? Value::Null()
                             : Value::Float(static_cast<double>(pick(100000)) / 100 -
                                            300.0);
    }
    row[4] = pick(8) == 0 ? Value::Null() : str("v" + std::to_string(pick(30)));
    // Slot 5 mixes number types only with mixed keys: one mixed slot turns
    // compiled evaluation off for the whole input, and the typed dataset
    // must run the compiled kernels.
    switch (mixed_keys ? pick(4) : 2 + pick(2)) {
      case 0: row[5] = Value::Int(static_cast<int64_t>(pick(500))); break;
      case 1: row[5] = Value::Float(static_cast<double>(pick(500)) / 8); break;
      case 2:
        row[5] = Value::Num(Numeric{static_cast<int64_t>(pick(50000)), 2});
        break;
      default: row[5] = Value::Null(); break;
    }
    d.rows.push_back(row);
  }
  return d;
}

// The oracle's rows, in first-appearance order.
RowSet OracleAggregate(const Dataset& d) {
  std::map<std::string, size_t> index;
  std::vector<OracleGroup> groups;
  for (RowView row : d.rows) {
    std::string key;
    for (size_t k = 0; k < d.num_keys; k++) key += CanonicalKey(row[k]) + "|";
    auto [it, inserted] = index.emplace(key, groups.size());
    if (inserted) {
      OracleGroup g;
      g.keys.assign(row.begin(), row.begin() + d.num_keys);
      g.args.resize(d.aggs.size());
      groups.push_back(std::move(g));
    }
    OracleGroup& g = groups[it->second];
    g.rows++;
    for (size_t a = 0; a < d.aggs.size(); a++) {
      if (d.aggs[a].arg == nullptr) continue;
      const Value& v = row[d.aggs[a].arg->slot];
      if (!v.is_null()) g.args[a].push_back(v);
    }
  }
  RowSet out;
  for (const OracleGroup& g : groups) {
    Row row = g.keys;
    for (size_t a = 0; a < d.aggs.size(); a++) {
      row.push_back(OracleFinalize(d.aggs[a].kind, g.rows, g.args[a]));
    }
    out.push_back(row);
  }
  return out;
}

// Bit-identical cell comparison: same type, same payload bits.
bool SameBits(const Value& a, const Value& b) {
  return a.type == b.type && TotalValueOrder(a, b) == 0;
}

std::string RowText(RowView row) {
  std::string s;
  for (const Value& v : row) s += v.ToString() + "|";
  return s;
}

void ExpectSameRows(const RowSet& want, const RowSet& got,
                    const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t r = 0; r < want.size(); r++) {
    ASSERT_EQ(want[r].size(), got[r].size()) << label;
    for (size_t c = 0; c < want[r].size(); c++) {
      ASSERT_TRUE(SameBits(want[r][c], got[r][c]))
          << label << " row " << r << " col " << c << ": want "
          << RowText(want[r]) << " got " << RowText(got[r]);
    }
  }
}

// Spilled output is grouped by partition: compare as a multiset of rows
// keyed by their canonical group key.
void ExpectSameGroups(const RowSet& want, const RowSet& got, size_t num_keys,
                      const std::string& label) {
  auto by_key = [&](const RowSet& rows) {
    std::map<std::string, size_t> m;
    for (size_t r = 0; r < rows.size(); r++) {
      std::string key;
      for (size_t k = 0; k < num_keys; k++) key += CanonicalKey(rows[r][k]) + "|";
      m.emplace(key, r);
    }
    return m;
  };
  ASSERT_EQ(want.size(), got.size()) << label;
  auto wm = by_key(want);
  auto gm = by_key(got);
  ASSERT_EQ(wm.size(), gm.size()) << label;
  for (const auto& [key, wr] : wm) {
    auto it = gm.find(key);
    ASSERT_TRUE(it != gm.end()) << label << " missing group " << key;
    for (size_t c = 0; c < want[wr].size(); c++) {
      ASSERT_TRUE(SameBits(want[wr][c], got[it->second][c]))
          << label << " group " << key << " col " << c;
    }
  }
}

TEST(GroupTableTest, MatchesMapOracleOnRandomInputs) {
  for (bool mixed_keys : {false, true}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      std::deque<std::string> strings;
      // Above the 16384-row parallel threshold, so four threads really
      // split the input.
      Dataset d = MakeDataset(seed, 20000, mixed_keys, &strings);
      const RowSet want = OracleAggregate(d);
      const std::string label =
          std::string(mixed_keys ? "mixed" : "typed") + " seed " +
          std::to_string(seed);

      // The mixed dataset compiles nothing (a mixed slot disables slot
      // typing). On the typed one, a key of CASE arms with mixed types
      // (string 'x' never taken, else slot 0) does not compile either: its
      // lanes are interpreted and hashed per value while the arguments run
      // compiled.
      const std::vector<ExprPtr> interpreted_key = {
          Case({ConstBool(false), ConstString("x"), Slot(0)}), Slot(1)};
      for (size_t threads : {1u, 4u}) {
        for (bool key_compiles : {true, false}) {
          ExecOptions opts;
          opts.num_threads = threads;
          QueryContext ctx(opts);
          RowSet got = AggregateExec(
              d.rows, key_compiles ? d.group_by : interpreted_key, d.aggs, ctx);
          ASSERT_TRUE(ctx.ConsumeStatus().ok());
          ExpectSameRows(want, got,
                         label + " threads " + std::to_string(threads) +
                             (key_compiles ? " slot key" : " CASE key"));
        }
      }

      // The worker-side partial path, through the wire-facing table.
      Arena arena;
      GroupTable table(d.num_keys, d.aggs);
      AccumulateRows(d.rows, d.group_by, d.aggs, &arena, &table);
      RowSet got;
      table.Finalize(&got);
      ExpectSameRows(want, got, label + " AccumulateRows");
      bool overflowed = false;
      for (uint32_t g = 0; g < table.size(); g++) {
        overflowed |= table.accs(g)[3].sum_f.on_heap();
      }
      EXPECT_TRUE(overflowed) << label << ": no float sum left the inline "
                                          "partials buffer";

      // Under a tight budget the aggregate spills; groups are the same,
      // their order across partitions is not promised.
      ExecOptions spill_opts;
      spill_opts.mem_limit_bytes = 64 * 1024;
      QueryContext spill_ctx(spill_opts);
      RowSet spilled = AggregateExec(d.rows, d.group_by, d.aggs, spill_ctx);
      ASSERT_TRUE(spill_ctx.ConsumeStatus().ok());
      ExpectSameGroups(want, spilled, d.num_keys, label + " spilled");
    }
  }
}

TEST(GroupTableTest, FirstAppearanceOrderForEveryThreadCount) {
  std::deque<std::string> strings;
  Dataset d = MakeDataset(11, 40000, /*mixed_keys=*/false, &strings);
  RowSet first;
  for (size_t threads : {1u, 2u, 4u}) {
    ExecOptions opts;
    opts.num_threads = threads;
    QueryContext ctx(opts);
    RowSet got = AggregateExec(d.rows, d.group_by, d.aggs, ctx);
    ASSERT_TRUE(ctx.ConsumeStatus().ok());
    // Group keys appear in the order their first row does.
    std::set<std::string> seen;
    std::vector<std::string> order;
    for (RowView row : d.rows) {
      std::string key = CanonicalKey(row[0]) + "|" + CanonicalKey(row[1]);
      if (seen.insert(key).second) order.push_back(key);
    }
    ASSERT_EQ(got.size(), order.size());
    for (size_t r = 0; r < got.size(); r++) {
      EXPECT_EQ(CanonicalKey(got[r][0]) + "|" + CanonicalKey(got[r][1]),
                order[r])
          << "threads " << threads << " row " << r;
    }
    if (threads == 1) {
      first = got;
    } else {
      ExpectSameRows(first, got, "threads " + std::to_string(threads));
    }
  }
}

TEST(GroupTableTest, FindOrInsertNumbersGroupsDensely) {
  std::vector<AggSpec> aggs = {AggSpec::CountStar()};
  GroupTable table(1, aggs);
  bool created = false;
  // Enough groups to grow the chain directory several times.
  for (int64_t i = 0; i < 1000; i++) {
    Value key = Value::Int(i);
    EXPECT_EQ(table.FindOrInsert(key.Hash() ^ kKeyHashSeed, &key, &created),
              static_cast<uint32_t>(i));
    EXPECT_TRUE(created);
  }
  for (int64_t i = 999; i >= 0; i--) {
    Value key = Value::Float(static_cast<double>(i));  // equal as a number
    EXPECT_EQ(table.FindOrInsert(Value::Int(i).Hash() ^ kKeyHashSeed, &key,
                                 &created),
              static_cast<uint32_t>(i));
    EXPECT_FALSE(created);
  }
  EXPECT_EQ(table.size(), 1000u);
  EXPECT_EQ(table.charged_bytes(), 1000 * GroupCharge(1, 1, 0));
}

// The one key hasher against the scalar chain: per row, the hash must be
// kKeyHashSeed combined with each key's interpreted Value::Hash, and the
// depth-0 spill partition SpillPartitionOf of that hash. Keys cover int,
// bool, timestamp, float, string, numeric and null lanes, a string-deriving
// SUBSTRING, and a slot of mixed types that keeps the whole key list from
// compiling.
TEST(GroupTableTest, HashKeysMatchesScalarHashChain) {
  std::deque<std::string> strings;
  RowSet in;
  for (int i = 0; i < 2500; i++) {  // two full batches and a partial one
    strings.push_back("key-" + std::to_string(i % 113) + "-tail");
    const bool null = i % 7 == 3;
    in.push_back({null ? Value::Null() : Value::Int(i * 7919 - 40000),
                  null ? Value::Null() : Value::Bool(i % 3 == 0),
                  null ? Value::Null() : Value::Ts(i * 86400),
                  null ? Value::Null() : Value::Float(i * 0.75),
                  null ? Value::Null() : Value::String(strings.back()),
                  null ? Value::Null() : Value::Num(Numeric{i * 100 + 7, 2}),
                  i % 2 == 0 ? Value::Int(i) : Value::String(strings.back())});
  }
  struct KeyList {
    const char* name;
    std::vector<ExprPtr> keys;
    bool compiles;
  };
  std::vector<KeyList> lists;
  lists.push_back({"typed lanes",
                   {Slot(0), Slot(1), Slot(2), Slot(3), Slot(4), Slot(5)},
                   true});
  lists.push_back({"substring", {Substring(Slot(4), 1, 5), Slot(0)}, true});
  lists.push_back({"mixed types", {Slot(0), Slot(6), Slot(4)}, false});
  for (const KeyList& list : lists) {
    const size_t nk = list.keys.size();
    BatchedExprs batched(in, RawExprs(list.keys));
    Arena arena;
    std::vector<Value> keys(kVectorSize * nk);
    std::vector<uint64_t> hashes(kVectorSize);
    for (size_t base = 0; base < in.size(); base += kVectorSize) {
      const size_t n = std::min(kVectorSize, in.size() - base);
      batched.LoadBatch(in, base, n, &arena);
      for (size_t j = 0; j < nk; j++) {
        EXPECT_EQ(batched.Result(j) != nullptr, list.compiles) << list.name;
      }
      batched.HashKeys(nk, in, base, n, &arena, keys.data(), hashes.data());
      for (size_t k = 0; k < n; k++) {
        RowView row = in[base + k];
        uint64_t want = kKeyHashSeed;
        for (size_t j = 0; j < nk; j++) {
          const Value v = EvalExpr(*list.keys[j], row.data(), &arena);
          want = HashCombine(want, v.Hash());
          const Value& got = keys[k * nk + j];
          EXPECT_EQ(got.type, v.type) << list.name << " row " << base + k;
          EXPECT_EQ(got.Hash(), v.Hash()) << list.name << " row " << base + k;
        }
        ASSERT_EQ(hashes[k], want) << list.name << " row " << base + k;
        EXPECT_EQ(SpillPartitionOf(hashes[k], 0), SpillPartitionOf(want, 0));
      }
    }
  }
}

// EXPLAIN ANALYZE's Aggregate node: groups emitted and the group table's
// memory-budget charge (GroupCharge per created group).
TEST(GroupTableTest, ProfileReportsGroupsAndTableBytes) {
  std::deque<std::string> strings = {"x", "yy", "zzz"};
  RowSet in;
  for (int i = 0; i < 30; i++) {
    in.push_back({Value::String(strings[i % 3]), Value::Int(i)});
  }
  obs::PlanProfile profile;
  QueryContext ctx;
  ctx.profile = &profile;
  RowSet out = AggregateExec(in, {Slot(0)}, {AggSpec::Sum(Slot(1))}, ctx);
  ASSERT_EQ(out.size(), 3u);
  ASSERT_EQ(profile.size(), 1u);
  int64_t groups = -1;
  int64_t table_bytes = -1;
  for (const auto& [name, value] : profile.op(0).counters) {
    if (name == "groups") groups = value;
    if (name == "table_bytes") table_bytes = value;
  }
  EXPECT_EQ(groups, 3);
  // Three groups, one key and one aggregate each, 1 + 2 + 3 key bytes.
  EXPECT_EQ(table_bytes, static_cast<int64_t>(3 * GroupCharge(1, 1, 0) + 6));
}

}  // namespace
}  // namespace jsontiles::exec
