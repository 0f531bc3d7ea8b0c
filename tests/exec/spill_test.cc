#include "exec/spill.h"

#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "exec/scan.h"
#include "obs/plan_profile.h"
#include "sql/sql_parser.h"
#include "storage/loader.h"
#include "util/failpoint.h"

namespace jsontiles::exec {
namespace {

using storage::Loader;
using storage::Relation;
using storage::StorageMode;

// ---------------------------------------------------------------------------
// SpillFile round-trips
// ---------------------------------------------------------------------------

Row MakeMixedRow(int64_t i, std::string_view str) {
  Row row;
  row.push_back(Value::Null());
  row.push_back(Value::Bool(i % 2 == 0));
  row.push_back(Value::Int(i * 1000003));
  row.push_back(Value::Float(static_cast<double>(i) * 0.125));
  row.push_back(Value::String(str));
  row.push_back(Value::Ts(i * 86400));
  row.push_back(Value::Num(Numeric{i * 100 + 7, 2}));
  return row;
}

void ExpectRowsEqual(RowView a, RowView b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(a[i].type, b[i].type) << "col " << i;
    EXPECT_EQ(a[i].scale, b[i].scale) << "col " << i;
    if (a[i].type == ValueType::kString) {
      EXPECT_EQ(a[i].s(), b[i].s()) << "col " << i;
    } else if (a[i].type != ValueType::kNull) {
      EXPECT_EQ(a[i].i, b[i].i) << "col " << i;
    }
  }
}

TEST(SpillFileTest, RoundTripAllValueTypes) {
  SpillStats stats;
  SpillFile file({}, &stats);
  std::vector<std::string> strings;
  // Pre-build string storage (Values view it).
  for (int i = 0; i < 200; i++) {
    strings.push_back("value-" + std::to_string(i) +
                      std::string(static_cast<size_t>(i % 50), 'x'));
  }
  std::vector<Row> expected;
  for (int i = 0; i < 200; i++) {
    expected.push_back(MakeMixedRow(i, strings[static_cast<size_t>(i)]));
    ASSERT_TRUE(file.Add(static_cast<uint64_t>(i) * 0x9E3779B97F4A7C15ull,
                         expected.back())
                    .ok());
  }
  ASSERT_TRUE(file.Finish().ok());
  EXPECT_EQ(file.rows(), 200u);
  EXPECT_GT(file.raw_bytes(), 0u);

  Arena arena;
  RowSet back;
  ASSERT_TRUE(file.ReadAll(&arena, &back).ok());
  ASSERT_EQ(back.size(), expected.size());
  for (size_t i = 0; i < back.size(); i++) {
    ExpectRowsEqual(expected[i], back[i]);
  }
}

TEST(SpillFileTest, ForEachPreservesOrderAndHashes) {
  SpillFile file({}, nullptr);
  for (int i = 0; i < 50; i++) {
    Row row;
    row.push_back(Value::Int(i));
    ASSERT_TRUE(file.Add(static_cast<uint64_t>(i) * 31 + 5, row).ok());
  }
  ASSERT_TRUE(file.Finish().ok());
  int64_t next = 0;
  Arena arena;
  ASSERT_TRUE(file.ForEach(&arena, [&](uint64_t h, RowView row) -> Status {
                    EXPECT_EQ(h, static_cast<uint64_t>(next) * 31 + 5);
                    EXPECT_EQ(row[0].int_value(), next);
                    next++;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(next, 50);
}

TEST(SpillFileTest, MultiBlockRun) {
  // ~200 bytes per row x 5000 rows: several 64 KiB blocks, each written as
  // it is behind a [u32 size] header.
  SpillStats stats;
  SpillFile file({}, &stats);
  std::string payload(180, 'a');
  for (int i = 0; i < 5000; i++) {
    Row row;
    row.push_back(Value::Int(i));
    row.push_back(Value::String(payload));
    ASSERT_TRUE(file.Add(static_cast<uint64_t>(i), row).ok());
  }
  ASSERT_TRUE(file.Finish().ok());
  EXPECT_GT(file.raw_bytes(), 5000u * 180u);
  EXPECT_EQ(stats.partitions, 1u);
  uint64_t blocks = 0;
  for (uint64_t off = 0; off < file.file().size(); blocks++) {
    uint32_t size;
    ASSERT_TRUE(file.file().ReadAt(off, &size, sizeof(size)).ok());
    off += sizeof(size) + size;
  }
  EXPECT_GT(blocks, 1u);
  EXPECT_EQ(stats.spilled_bytes, file.raw_bytes() + 4 * blocks);

  Arena arena;
  RowSet back;
  ASSERT_TRUE(file.ReadAll(&arena, &back).ok());
  ASSERT_EQ(back.size(), 5000u);
  EXPECT_EQ(back[4999][0].int_value(), 4999);
  EXPECT_EQ(back[4999][1].string_value(), payload);
}

// Bytes overwritten in a finished run: every kind of damage makes ForEach
// return a Status, never read outside the block (run it under ASan).
TEST(SpillFileTest, CorruptRunIsAStatus) {
  // One block: [u32 size] at 0, then per record [u64 hash][u16 width] and
  // two values. Record 0's int tag is at byte 14, its string's tag at 24
  // and the string's u32 length at 26.
  const auto run_with = [](uint64_t at, uint32_t value, size_t width) {
    SpillFile file({}, nullptr);
    for (int i = 0; i < 3; i++) {
      EXPECT_TRUE(file.Add(static_cast<uint64_t>(i),
                           Row{Value::Int(i), Value::String("abcdef")})
                      .ok());
    }
    EXPECT_TRUE(file.Finish().ok());
    EXPECT_EQ(::pwrite(file.file().fd(), &value, width,
                       static_cast<off_t>(at)),
              static_cast<ssize_t>(width));
    return file;
  };
  const uint32_t size = 3 * (8 + 2 + 10 + 12);
  struct Damage {
    const char* what;
    uint64_t at;
    uint32_t value;
    size_t width;
  };
  for (const Damage& d : {Damage{"block size past the run", 0, size + 1, 4},
                          Damage{"type tag above kNumeric", 14, 7, 1},
                          Damage{"string length past the block", 26,
                                 size, 4},
                          Damage{"truncated record", 0, size - 1, 4}}) {
    SpillFile file = run_with(d.at, d.value, d.width);
    Arena arena;
    const Status st = file.ForEach(
        &arena, [](uint64_t, RowView) { return Status::OK(); });
    EXPECT_FALSE(st.ok()) << d.what;
  }
  // The intact run reads back.
  Arena arena;
  RowSet back;
  EXPECT_TRUE(run_with(0, size, 4).ReadAll(&arena, &back).ok());
  EXPECT_EQ(back.size(), 3u);
}

TEST(SpillFileTest, EmptyFileNeverTouchesDisk) {
  SpillStats stats;
  SpillFile file({}, &stats);
  ASSERT_TRUE(file.Finish().ok());
  EXPECT_EQ(file.rows(), 0u);
  EXPECT_EQ(stats.partitions, 0u);
  EXPECT_EQ(stats.spilled_bytes, 0u);
  RowSet back;
  Arena arena;
  ASSERT_TRUE(file.ReadAll(&arena, &back).ok());
  EXPECT_TRUE(back.empty());
}

TEST(SpillPartitionOfTest, UsesDistinctBitsPerDepth) {
  // Depth d reads bits [61-3d, 64-3d); flipping those bits must change the
  // partition at depth d and nowhere else.
  const uint64_t h = 0x0123456789ABCDEFull;
  for (size_t d = 0; d < 4; d++) {
    const int shift = 61 - 3 * static_cast<int>(d);
    uint64_t flipped = h ^ (7ull << shift);
    EXPECT_NE(SpillPartitionOf(h, d), SpillPartitionOf(flipped, d));
    for (size_t other = 0; other < 4; other++) {
      if (other == d) continue;
      EXPECT_EQ(SpillPartitionOf(h, other), SpillPartitionOf(flipped, other));
    }
  }
}

// ---------------------------------------------------------------------------
// Differential sweep: spilled execution must be bit-identical to in-memory
// ---------------------------------------------------------------------------

class SpillSqlFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // 20000 rows: above the operators' parallel threshold (16384), so the
    // multi-threaded sweep runs exercise the worker paths, and large enough
    // that grouped aggregation state breaches the 64 KiB / 1 MiB limits.
    std::vector<std::string> facts;
    for (int i = 0; i < 20000; i++) {
      facts.push_back(R"({"k":)" + std::to_string(i % 2000) + R"(,"v":)" +
                      std::to_string(i) + R"(,"f":)" +
                      std::to_string(i % 37) + ".25" + R"(,"s":"tag)" +
                      std::to_string(i % 97) + R"("})");
    }
    std::vector<std::string> dims;
    for (int k = 0; k < 2000; k++) {
      dims.push_back(R"({"k":)" + std::to_string(k) + R"(,"label":"label-)" +
                     std::to_string(k) + R"("})");
    }
    Loader loader(StorageMode::kTiles, {});
    facts_ = loader.Load(facts, "facts").MoveValueOrDie().release();
    dims_ = loader.Load(dims, "dims").MoveValueOrDie().release();
  }
  static void TearDownTestSuite() {
    delete facts_;
    delete dims_;
    facts_ = nullptr;
    dims_ = nullptr;
  }

  static sql::SqlCatalog Catalog() {
    sql::SqlCatalog catalog;
    catalog.tables["facts"] = facts_;
    catalog.tables["dims"] = dims_;
    return catalog;
  }

  // Run `statement` and canonicalize the result into a sorted multiset of
  // formatted rows (operator output order legitimately differs once
  // partitions are processed one at a time). When `spilled_bytes` is set it
  // receives the sum of every operator's spilled_bytes counter.
  static std::vector<std::string> RunSorted(const std::string& statement,
                                            size_t mem_limit,
                                            size_t num_threads,
                                            int64_t* spilled_bytes = nullptr) {
    ExecOptions options;
    options.mem_limit_bytes = mem_limit;
    options.num_threads = num_threads;
    QueryContext ctx(options);
    obs::PlanProfile profile;
    ctx.profile = &profile;
    auto r = sql::ExecuteSql(statement, Catalog(), ctx);
    if (spilled_bytes != nullptr) {
      *spilled_bytes = 0;
      for (int id = 0; id < static_cast<int>(profile.size()); id++) {
        for (const auto& [name, value] : profile.op(id).counters) {
          if (name == "spilled_bytes") *spilled_bytes += value;
        }
      }
    }
    EXPECT_TRUE(r.ok()) << r.status().ToString() << " (mem_limit=" << mem_limit
                        << ", threads=" << num_threads << ")";
    std::vector<std::string> rows;
    if (!r.ok()) return rows;
    for (const auto& row : r.ValueOrDie().rows) {
      std::string s;
      for (const auto& v : row) {
        s += v.ToString();
        s += "|";
      }
      rows.push_back(std::move(s));
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  }

  // FNV-1a (64-bit) over the formatted rows of `statement` in the order the
  // engine emits them, unsorted: pins the output order, not just the
  // multiset.
  static uint64_t OrderedRowsHash(const std::string& statement,
                                  size_t mem_limit, size_t num_threads) {
    ExecOptions options;
    options.mem_limit_bytes = mem_limit;
    options.num_threads = num_threads;
    QueryContext ctx(options);
    auto r = sql::ExecuteSql(statement, Catalog(), ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    uint64_t h = 0xcbf29ce484222325ull;
    if (!r.ok()) return h;
    auto mix = [&h](std::string_view s) {
      for (char c : s) {
        h ^= static_cast<uint8_t>(c);
        h *= 0x100000001b3ull;
      }
    };
    for (const auto& row : r.ValueOrDie().rows) {
      for (const auto& v : row) {
        mix(v.ToString());
        mix("|");
      }
      mix("\n");
    }
    return h;
  }

  static std::string PlanText(size_t mem_limit, const std::string& statement) {
    ExecOptions options;
    options.mem_limit_bytes = mem_limit;
    QueryContext ctx(options);
    auto r = sql::ExecuteSql(statement, Catalog(), ctx);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::string text;
    if (!r.ok()) return text;
    for (const auto& row : r.ValueOrDie().rows) {
      text += std::string(row[0].string_value());
      text += "\n";
    }
    return text;
  }

  static Relation* facts_;
  static Relation* dims_;
};
Relation* SpillSqlFixture::facts_ = nullptr;
Relation* SpillSqlFixture::dims_ = nullptr;

const char* const kJoinAggQuery =
    "SELECT d->>'label', COUNT(*), SUM(f->>'v'::BigInt), "
    "AVG(f->>'f'::Float) "
    "FROM facts f, dims d WHERE f->>'k'::BigInt = d->>'k'::BigInt "
    "GROUP BY d->>'label'";

const char* const kJoinQuery =
    "SELECT f->>'v'::BigInt, f->>'s', d->>'label' "
    "FROM facts f, dims d WHERE f->>'k'::BigInt = d->>'k'::BigInt";

// 20000 (s, v) groups with string keys: the group table far exceeds the small
// limits, and the spilled rows exercise the string-rescue path. All float
// values are exact quarters, so every aggregate is order-independent and the
// sweep can demand exact equality.
const char* const kAggQuery =
    "SELECT f->>'s', f->>'v'::BigInt, COUNT(*), SUM(f->>'v'::BigInt), "
    "MIN(f->>'f'::Float), MAX(f->>'v'::BigInt) "
    "FROM facts f GROUP BY f->>'s', f->>'v'::BigInt";

// Every query must really spill at the smallest limit (else the sweep would
// only compare in-memory runs with each other) and never when unlimited.
TEST_F(SpillSqlFixture, DifferentialMemLimitSweep) {
  const size_t kLimits[] = {64 * 1024, 1024 * 1024, 16 * 1024 * 1024, 0};
  for (const char* query : {kJoinAggQuery, kJoinQuery, kAggQuery}) {
    auto baseline = RunSorted(query, /*mem_limit=*/0, /*num_threads=*/1);
    ASSERT_FALSE(baseline.empty()) << query;
    for (size_t limit : kLimits) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        int64_t spilled_bytes = 0;
        auto rows = RunSorted(query, limit, threads, &spilled_bytes);
        ASSERT_EQ(rows.size(), baseline.size())
            << query << " limit=" << limit << " threads=" << threads;
        EXPECT_EQ(rows, baseline)
            << query << " limit=" << limit << " threads=" << threads;
        if (limit == 64 * 1024) {
          EXPECT_GT(spilled_bytes, 0) << query << " threads=" << threads;
        } else if (limit == 0) {
          EXPECT_EQ(spilled_bytes, 0) << query << " threads=" << threads;
        }
      }
    }
  }
}

// The sweep above compares sorted multisets; this pins the order in which
// spilled rows come out. Every row's partition and the partition visit order
// decide it, so a change to key hashing, partition routing or the grace
// recursion shows up here. The constants are the hashes the executor produced
// before the spill drivers of the join and the aggregate were merged into one.
TEST_F(SpillSqlFixture, SpilledOutputOrderIsPinned) {
  struct Case {
    const char* name;
    const char* query;
    size_t threads;
    uint64_t hash;
  };
  const Case kCases[] = {
      {"join+agg", kJoinAggQuery, 1, 16400177869433502711ull},
      {"join+agg", kJoinAggQuery, 4, 16400177869433502711ull},
      {"join", kJoinQuery, 1, 8429624035541115122ull},
      {"join", kJoinQuery, 4, 8429624035541115122ull},
      {"agg", kAggQuery, 1, 2967268461278118096ull},
      {"agg", kAggQuery, 4, 2967268461278118096ull},
  };
  for (const Case& c : kCases) {
    EXPECT_EQ(OrderedRowsHash(c.query, 64 * 1024, c.threads), c.hash)
        << c.name << " threads=" << c.threads;
  }
}

TEST_F(SpillSqlFixture, ExplainAnalyzeReportsSpillCounters) {
  std::string constrained = PlanText(
      64 * 1024, std::string("EXPLAIN ANALYZE ") + kJoinAggQuery);
  EXPECT_NE(constrained.find("spilled_bytes="), std::string::npos)
      << constrained;
  EXPECT_NE(constrained.find("spill_partitions="), std::string::npos)
      << constrained;

  std::string unconstrained =
      PlanText(0, std::string("EXPLAIN ANALYZE ") + kJoinAggQuery);
  EXPECT_EQ(unconstrained.find("spilled_bytes="), std::string::npos)
      << unconstrained;
}

// ---------------------------------------------------------------------------
// Skew: identical keys cannot be split — the depth cap must force the
// partition in memory instead of recursing forever.
// ---------------------------------------------------------------------------

// The join hashes its smaller input, so that side alone (200 rows at 80
// bytes of table charge each) must outgrow the limit to force a spill.
TEST(SpillSkewTest, DepthCapForcesInMemoryJoin) {
  ExecOptions options;
  options.mem_limit_bytes = 8 * 1024;
  QueryContext ctx(options);
  obs::PlanProfile profile;
  ctx.profile = &profile;

  RowSet build, probe;
  for (int i = 0; i < 1500; i++) {
    Row row;
    row.push_back(Value::Int(7));  // one key for every row
    row.push_back(Value::Int(i));
    build.push_back(std::move(row));
  }
  for (int i = 0; i < 200; i++) {
    Row row;
    row.push_back(Value::Int(7));
    row.push_back(Value::Int(1000000 + i));
    probe.push_back(std::move(row));
  }
  std::vector<ExprPtr> build_keys{Slot(0)};
  std::vector<ExprPtr> probe_keys{Slot(0)};
  RowSet out = HashJoinExec(build, probe, build_keys, probe_keys,
                            JoinType::kInner, nullptr, ctx);
  ASSERT_TRUE(ctx.ConsumeStatus().ok());
  EXPECT_EQ(out.size(), 1500u * 200u);

  bool saw_forced = false;
  for (int id = 0; id < static_cast<int>(profile.size()); id++) {
    for (const auto& [name, value] : profile.op(id).counters) {
      if (name == "spill_forced_inmem" && value > 0) saw_forced = true;
    }
  }
  EXPECT_TRUE(saw_forced);
}

// The aggregate twin: 2,000 distinct keys spill and split, but one hot key
// holds 30,000 rows, so its partition outgrows 64 KiB at every depth until
// the cap forces it in memory. The groups must match the unlimited run's.
TEST(SpillSkewTest, DepthCapForcesInMemoryAggregate) {
  RowSet in;
  for (int i = 0; i < 32000; i++) {
    Row row;
    row.push_back(Value::Int(i < 2000 ? i + 1000 : 7));
    row.push_back(Value::Int(i));
    in.push_back(std::move(row));
  }
  std::vector<ExprPtr> group_by{Slot(0)};
  auto run = [&](size_t mem_limit, bool* saw_forced) {
    ExecOptions options;
    options.mem_limit_bytes = mem_limit;
    QueryContext ctx(options);
    obs::PlanProfile profile;
    ctx.profile = &profile;
    std::vector<AggSpec> aggs;
    aggs.push_back(AggSpec::CountStar());
    aggs.push_back(AggSpec::Sum(Slot(1)));
    RowSet out = AggregateExec(in, group_by, aggs, ctx);
    EXPECT_TRUE(ctx.ConsumeStatus().ok());
    *saw_forced = false;
    for (int id = 0; id < static_cast<int>(profile.size()); id++) {
      for (const auto& [name, value] : profile.op(id).counters) {
        if (name == "spill_forced_inmem" && value > 0) *saw_forced = true;
      }
    }
    std::vector<std::string> rows;
    for (RowView row : out) {
      rows.push_back(row[0].ToString() + "|" + row[1].ToString() + "|" +
                     row[2].ToString());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  bool forced_unlimited = false;
  bool forced_limited = false;
  std::vector<std::string> want = run(0, &forced_unlimited);
  std::vector<std::string> got = run(64 * 1024, &forced_limited);
  ASSERT_EQ(want.size(), 2001u);
  EXPECT_EQ(got, want);
  EXPECT_FALSE(forced_unlimited);
  EXPECT_TRUE(forced_limited);
}

// ---------------------------------------------------------------------------
// Fault injection: injected spill failures must surface as a clean Status at
// the SQL boundary — no crash, no partial result.
// ---------------------------------------------------------------------------

class SpillFaultTest : public SpillSqlFixture {
 protected:
  void TearDown() override { failpoint::DisableAll(); }

  static Status RunStatus(const std::string& statement, size_t mem_limit) {
    ExecOptions options;
    options.mem_limit_bytes = mem_limit;
    options.num_threads = 4;
    QueryContext ctx(options);
    auto r = sql::ExecuteSql(statement, Catalog(), ctx);
    return r.status();
  }
};

TEST_F(SpillFaultTest, SpillWriteFailureSurfacesCleanly) {
  failpoint::Enable("spill.write", failpoint::Spec::Nth(3));
  Status st = RunStatus(kJoinAggQuery, 64 * 1024);
  EXPECT_FALSE(st.ok());
  // With the failpoint cleared the identical statement succeeds again.
  failpoint::DisableAll();
  EXPECT_TRUE(RunStatus(kJoinAggQuery, 64 * 1024).ok());
}

TEST_F(SpillFaultTest, SpillReadFailureSurfacesCleanly) {
  failpoint::Enable("spill.read", failpoint::Spec::Nth(2));
  Status st = RunStatus(kJoinAggQuery, 64 * 1024);
  EXPECT_FALSE(st.ok());
}

TEST_F(SpillFaultTest, TempFileCreateFailureSurfacesCleanly) {
  failpoint::Enable("tempfile.create", failpoint::Spec::Always());
  Status st = RunStatus(kJoinAggQuery, 64 * 1024);
  EXPECT_FALSE(st.ok());
}

TEST_F(SpillFaultTest, ProbeWorkerFailureSurfacesCleanly) {
  failpoint::Enable("exec.join.probe.worker", failpoint::Spec::Nth(2));
  Status st = RunStatus(kJoinQuery, 0);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST_F(SpillFaultTest, AggWorkerFailureSurfacesCleanly) {
  failpoint::Enable("exec.agg.worker", failpoint::Spec::Nth(1));
  Status st = RunStatus(kAggQuery, 0);
  EXPECT_FALSE(st.ok());
}

TEST_F(SpillFaultTest, ScanChunkFailureSurfacesCleanly) {
  failpoint::Enable("exec.scan.chunk", failpoint::Spec::Nth(2));
  Status st = RunStatus(kAggQuery, 0);
  EXPECT_FALSE(st.ok());
}

TEST_F(SpillFaultTest, ContextIsReusableAfterInjectedFailure) {
  ExecOptions options;
  options.mem_limit_bytes = 64 * 1024;
  QueryContext ctx(options);
  failpoint::Enable("spill.write", failpoint::Spec::Nth(1));
  auto failed = sql::ExecuteSql(kAggQuery, Catalog(), ctx);
  EXPECT_FALSE(failed.ok());
  failpoint::DisableAll();
  // ConsumeStatus at the boundary must have reset the cancelled flag.
  auto ok = sql::ExecuteSql(kAggQuery, Catalog(), ctx);
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
}

}  // namespace
}  // namespace jsontiles::exec
