// The scan grows its output once per batch and compacts away the rows an
// uncompiled (residual) conjunct rejects. Rejecting the first, a middle and
// the last lane of each batch must leave exactly the rows of the JSONB
// reference in every storage mode, serial and parallel, and through a
// row-set table (TableRef::Rows), whose pseudo-scan writes rows the same way.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exec/expr_compile.h"
#include "exec/scan.h"
#include "opt/query.h"
#include "storage/loader.h"

namespace jsontiles::exec {
namespace {

using opt::QueryBlock;
using opt::TableRef;
using storage::StorageMode;

constexpr int64_t kDocs = 3000;  // batches [0,1024) [1024,2048) [2048,3000)

// First, middle and last lane of every batch.
const std::vector<int64_t> kRejected = {0,    512,  1023, 1024,
                                        1536, 2047, 2048, 2500, 2999};

std::vector<std::string> Docs() {
  std::vector<std::string> docs;
  for (int64_t i = 0; i < kDocs; i++) {
    docs.push_back(R"({"id":)" + std::to_string(i) + R"(,"name":"name-)" +
                   std::to_string(i) + R"("})");
  }
  return docs;
}

std::unique_ptr<storage::Relation> LoadMode(StorageMode mode) {
  tiles::TileConfig config;
  config.tile_size = kVectorSize;  // one tile per batch
  config.partition_size = 1;       // and no reordering across tiles
  storage::Loader loader(mode, config);
  return loader.Load(Docs(), "t").MoveValueOrDie();
}

// `id >= 0` compiles; the CASE of mixed arm types does not, so it runs as a
// residual: it yields the id (equal: keep) or a string (unequal: reject).
ExprPtr Filter(const ExprPtr& id) {
  return And(Ge(id, ConstInt(0)),
             Eq(Case({InListInt(id, kRejected), ConstString("drop"), id}), id));
}

// (id, name) pairs: strings copied out of the relation and the query arena.
using Rows = std::vector<std::pair<int64_t, std::string>>;

Rows Collect(const RowSet& rows) {
  EXPECT_EQ(rows.width(), 2u);
  Rows out;
  for (RowView row : rows) {
    out.emplace_back(row[0].int_value(), std::string(row[1].string_value()));
  }
  return out;
}

ScanSpec Spec(const storage::Relation* rel, bool filtered) {
  ScanSpec spec;
  spec.relation = rel;
  spec.table_alias = "t";
  spec.accesses = {Access("t", {"id"}, ValueType::kInt),
                   Access("t", {"name"}, ValueType::kString)};
  if (filtered) spec.filter = Filter(Slot(0));
  return spec;
}

QueryContext Context(int threads) {
  ExecOptions options;
  options.num_threads = threads;
  return QueryContext(options);
}

Rows Scan(StorageMode mode, int threads) {
  auto rel = LoadMode(mode);
  QueryContext ctx = Context(threads);
  return Collect(ScanExec(Spec(rel.get(), true), ctx));
}

// Every id but the rejected ones, in order.
Rows Expected() {
  Rows out;
  for (int64_t id = 0; id < kDocs; id++) {
    if (std::find(kRejected.begin(), kRejected.end(), id) != kRejected.end()) {
      continue;
    }
    out.emplace_back(id, "name-" + std::to_string(id));
  }
  return out;
}

TEST(ResidualCompactionTest, FilterKeepsACompiledAndAResidualConjunct) {
  const CompiledPredicate pred = CompiledPredicate::Compile(
      Filter(Slot(0)), {ValueType::kInt, ValueType::kString});
  EXPECT_EQ(pred.conjuncts().size(), 1u);  // the residual stays uncompiled
}

TEST(ResidualCompactionTest, EveryModeAndThreadCountMatchesJsonb) {
  const Rows reference = Scan(StorageMode::kJsonb, 1);
  ASSERT_EQ(reference, Expected());
  for (StorageMode mode : {StorageMode::kJsonText, StorageMode::kJsonb,
                           StorageMode::kSinew, StorageMode::kTiles}) {
    for (int threads : {1, 4}) {
      EXPECT_EQ(Scan(mode, threads), reference)
          << StorageModeName(mode) << " threads " << threads;
    }
  }
}

TEST(ResidualCompactionTest, RowSetTableMatchesJsonb) {
  const Rows reference = Scan(StorageMode::kJsonb, 1);
  auto rel = LoadMode(StorageMode::kJsonb);
  QueryContext scan_ctx;
  const RowSet all = ScanExec(Spec(rel.get(), false), scan_ctx);
  ASSERT_EQ(all.size(), static_cast<size_t>(kDocs));
  for (int threads : {1, 4}) {
    QueryContext ctx = Context(threads);
    QueryBlock q;
    q.AddTable(TableRef::Rows("r", &all, {"id", "name"},
                              Filter(Access("r", {"id"}, ValueType::kInt))));
    q.Select({Access("r", {"id"}, ValueType::kInt),
              Access("r", {"name"}, ValueType::kString)});
    EXPECT_EQ(Collect(q.Execute(ctx)), reference) << "threads " << threads;
  }
}

}  // namespace
}  // namespace jsontiles::exec
