// CONTAINS route differential: over a tiles relation loaded with array
// extraction, the scan answers CONTAINS from the side relations (the
// Tiles-* route, §3.5); without extraction, from the documents. Both must
// return exactly the rows of the JSONB reference — on a plain relation, on
// 3 shards scanned locally and on 3 shards served by 2 worker processes, at
// 1 and 4 threads, through QueryBlock and through SqlSession. The documents
// hold every element shape the side relation's `value` wrapping and
// `_rowid` annotation have to get right.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/cluster.h"
#include "exec/scan.h"
#include "obs/plan_profile.h"
#include "opt/query.h"
#include "sql/sql_session.h"
#include "storage/loader.h"
#include "storage/serialize.h"
#include "storage/shard.h"
#include "tiles/array_extract.h"
#include "tiles/keypath.h"
#include "workload/twitter.h"

#ifndef JSONTILES_WORKERD_PATH
#error "dist tests require the JSONTILES_WORKERD_PATH compile definition"
#endif

namespace jsontiles::exec {
namespace {

using opt::QueryBlock;
using opt::TableRef;
using storage::LoadOptions;
using storage::Loader;
using storage::Relation;
using storage::ShardedRelation;
using storage::ShardOptions;
using storage::StorageMode;

constexpr int kDocs = 3000;
// Only these rows carry the "rare" needle: its bitmap skips whole tiles.
constexpr int kRareBegin = 1500;
constexpr int kRareEnd = 1510;

// The `tags` array of document i: objects, scalars, nested values,
// duplicates, `value` and `_rowid` members, a non-array and a missing path.
std::string Tags(int i) {
  if (i >= kRareBegin && i < kRareEnd) return R"([{"t":"rare"},{"t":"cold"}])";
  switch (i % 16) {
    case 0: return R"([{"t":"hot"},{"t":"cold"}])";
    case 1: return R"([{"t":"hot"},{"t":"hot"}])";
    case 2: return R"([{"t":5},{"t":"5"},{"t":true},{"t":null}])";
    case 3: return R"([{"t":{"x":"hot"}},{"t":["hot"]},["hot"],"hot",5,null])";
    // An object under `value` looks like a wrapped element on the side.
    case 4: return R"([{"value":"hot"},{"value":{"t":"hot"}}])";
    // A `_rowid` member makes the side relation wrap the whole element.
    case 5: return R"([{"_rowid":7,"t":"hot"}])";
    case 6: return R"([{"_rowid":"x","t":"cold"},{"u":"hot"}])";
    case 7: return R"("hot")";
    case 8: return R"({"t":"hot"})";
    case 9: return "";
    case 10: return "[]";
    case 11: return R"(["hot","5",5,"cold",{"":"hot"}])";
    case 12: return R"([{"t":"cold","value":"hot"},{"t":"warm"}])";
    default: return R"([{"t":"warm"},{"t":"cold"},{"t":"mild"}])";
  }
}

std::vector<std::string> Docs() {
  std::vector<std::string> docs;
  for (int i = 0; i < kDocs; i++) {
    std::string doc = R"({"id":)" + std::to_string(i) + R"(,"grp":)" +
                      std::to_string(i % 7);
    const std::string tags = Tags(i);
    if (!tags.empty()) doc += R"(,"tags":)" + tags;
    doc += R"(,"e":{"list":[{"k":"v)" + std::to_string(i % 5) +
           R"("},{"k":"w"}]}})";
    docs.push_back(std::move(doc));
  }
  return docs;
}

tiles::TileConfig SmallTiles() {
  tiles::TileConfig config;
  config.tile_size = 128;
  return config;
}

LoadOptions ExtractArrays() {
  LoadOptions options;
  options.extract_arrays = true;
  return options;
}

// One CONTAINS: array path keys, member key, needle.
struct Probe {
  std::vector<std::string> keys;
  std::string member;
  std::string needle;
};

const std::vector<Probe>& Probes() {
  static const std::vector<Probe> probes = {
      {{"tags"}, "t", "hot"},   {{"tags"}, "t", "5"},
      {{"tags"}, "t", "cold"},  {{"tags"}, "t", "rare"},
      {{"tags"}, "t", "none"},  {{"tags"}, "u", "hot"},
      {{"tags"}, "", "hot"},    {{"tags"}, "", "5"},
      {{"tags"}, "value", "hot"}, {{"tags"}, "_rowid", "x"},
      {{"e", "list"}, "k", "v3"},
  };
  return probes;
}

ExprPtr Contains(const std::string& alias, const Probe& p) {
  auto e = std::make_shared<Expr>(*ArrayContains(alias, {}, p.member, p.needle));
  for (const std::string& k : p.keys) tiles::AppendKeySegment(&e->path, k);
  return e;
}

std::string SqlContains(const Probe& p) {
  std::string chain = "d";
  for (const std::string& k : p.keys) chain += "->'" + k + "'";
  return "CONTAINS(" + chain + ", '" + p.member + "', '" + p.needle + "')";
}

// Rows as sorted text lines: the comparison ignores row order.
std::string Canonical(const RowSet& rows) {
  std::vector<std::string> lines;
  for (const auto& row : rows) {
    std::string line;
    for (const auto& v : row) line += (v.is_null() ? "∅" : v.ToString()) + "|";
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) out += l + "\n";
  return out;
}

// The QueryBlock forms of one probe: filter, NOT, OR, a conjunction, and
// CONTAINS projected.
std::vector<std::string> RunBlocks(const TableRef& source, const Probe& p,
                                   QueryContext& ctx) {
  auto id = [] { return Access("d", {"id"}, ValueType::kInt); };
  const ExprPtr filters[] = {
      Contains("d", p),
      Unary(UnOp::kNot, Contains("d", p)),
      Binary(BinOp::kOr, Contains("d", p), Lt(id(), ConstInt(20))),
      And(Contains("d", p), Eq(Access("d", {"grp"}, ValueType::kInt),
                               ConstInt(3)))};
  std::vector<std::string> out;
  for (const ExprPtr& filter : filters) {
    TableRef t = source;
    t.filter = filter;
    QueryBlock q;
    q.AddTable(t);
    q.Select({id()});
    out.push_back(Canonical(q.Execute(ctx)));
  }
  QueryBlock q;
  q.AddTable(source);
  q.Select({id(), Contains("d", p)});
  out.push_back(Canonical(q.Execute(ctx)));
  return out;
}

std::vector<std::string> RunSql(const sql::SqlCatalog& catalog,
                                const Probe& p, size_t threads) {
  const std::string c = SqlContains(p);
  const std::string statements[] = {
      "SELECT d->>'id'::BigInt FROM docs d WHERE " + c,
      "SELECT d->>'id'::BigInt FROM docs d WHERE NOT " + c,
      "SELECT d->>'id'::BigInt FROM docs d WHERE " + c +
          " OR d->>'id'::BigInt < 20",
      "SELECT d->>'grp'::BigInt, COUNT(*) FROM docs d WHERE " + c +
          " GROUP BY d->>'grp'::BigInt",
      "SELECT d->>'id'::BigInt, " + c + " FROM docs d"};
  ExecOptions options;
  options.num_threads = threads;
  sql::SqlSession session(&catalog, nullptr, options);
  std::vector<std::string> out;
  for (const std::string& statement : statements) {
    auto r = session.Execute(statement);
    EXPECT_TRUE(r.ok()) << statement << ": " << r.status().ToString();
    out.push_back(r.ok() ? Canonical(r.ValueOrDie().rows) : "error");
  }
  return out;
}

// EXPLAIN ANALYZE of a COUNT(*) over `docs` filtered by `predicate`.
std::string ExplainAnalyze(const sql::SqlCatalog& catalog,
                           const std::string& predicate) {
  sql::SqlSession session(&catalog, nullptr);
  auto r = session.Execute(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM docs d WHERE " + predicate);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  std::string text;
  if (!r.ok()) return text;
  for (const auto& row : r.ValueOrDie().rows) {
    text += std::string(row[0].string_value()) + "\n";
  }
  return text;
}

// One scan's rows and its `side_rows` counter (0 when no side relation
// answered).
struct ScanRun {
  std::string rows;
  int64_t side_rows = 0;
};

ScanRun RunScan(const ScanSpec& spec, size_t threads) {
  ExecOptions options;
  options.num_threads = threads;
  obs::PlanProfile profile;
  QueryContext ctx(options);
  ctx.profile = &profile;
  ScanRun run;
  run.rows = Canonical(ScanExec(spec, ctx));
  EXPECT_TRUE(ctx.ConsumeStatus().ok());
  for (size_t op = 0; op < profile.size(); op++) {
    for (const auto& [name, value] : profile.op(static_cast<int>(op)).counters) {
      if (name == "side_rows") run.side_rows += value;
    }
  }
  return run;
}

// The loader stores each exploded element's JSONB as it is. Every side
// relation of `rel` must serialize to the same bytes as the path that
// turned the elements into JSON text and loaded the text as a Tiles
// relation of its own.
void ExpectSidesMatchTextLoad(const Relation& rel,
                              const tiles::TileConfig& config) {
  ASSERT_FALSE(rel.side_relations().empty()) << rel.name();
  for (const auto& [path, side] : rel.side_relations()) {
    std::vector<std::string> text;
    for (size_t r = 0; r < rel.num_rows(); r++) {
      std::vector<std::vector<uint8_t>> exploded;
      tiles::ExplodeArray(rel.Jsonb(r), path, static_cast<int64_t>(r),
                          &exploded);
      for (const auto& e : exploded) {
        text.push_back(json::JsonbValue(e.data()).ToJsonText());
      }
    }
    auto reloaded = Loader(StorageMode::kTiles, config)
                        .Load(text, side->name())
                        .MoveValueOrDie();
    std::vector<uint8_t> bytes, expected;
    ASSERT_TRUE(storage::SerializeRelation(*side, &bytes).ok());
    ASSERT_TRUE(storage::SerializeRelation(*reloaded, &expected).ok());
    EXPECT_EQ(side->num_rows(), text.size()) << side->name();
    EXPECT_TRUE(bytes == expected)
        << side->name() << ": " << bytes.size() << " vs " << expected.size()
        << " bytes";
  }
}

std::string Describe(const Probe& p) {
  std::string path;
  for (const std::string& k : p.keys) path += "/" + k;
  return path + " member='" + p.member + "' needle='" + p.needle + "'";
}

class ContainsRouteTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const std::vector<std::string> docs = Docs();
    jsonb_ = Loader(StorageMode::kJsonb, SmallTiles())
                 .Load(docs, "docs")
                 .MoveValueOrDie()
                 .release();
    doc_route_ = Loader(StorageMode::kTiles, SmallTiles())
                     .Load(docs, "docs")
                     .MoveValueOrDie()
                     .release();
    side_route_ = Loader(StorageMode::kTiles, SmallTiles(), ExtractArrays())
                      .Load(docs, "docs")
                      .MoveValueOrDie()
                      .release();
    ShardOptions shard_options;
    shard_options.shard_count = 3;
    sharded_ = ShardedRelation::Load(docs, "docs", StorageMode::kTiles,
                                     SmallTiles(), ExtractArrays(),
                                     shard_options)
                   .MoveValueOrDie()
                   .release();
  }
  static void TearDownTestSuite() {
    delete jsonb_;
    delete doc_route_;
    delete side_route_;
    delete sharded_;
  }

  static Relation* jsonb_;
  static Relation* doc_route_;
  static Relation* side_route_;
  static ShardedRelation* sharded_;
};

Relation* ContainsRouteTest::jsonb_ = nullptr;
Relation* ContainsRouteTest::doc_route_ = nullptr;
Relation* ContainsRouteTest::side_route_ = nullptr;
ShardedRelation* ContainsRouteTest::sharded_ = nullptr;

TEST_F(ContainsRouteTest, SideRelationsExist) {
  for (const auto& keys : {std::vector<std::string>{"tags"},
                           std::vector<std::string>{"e", "list"}}) {
    std::string path;
    for (const std::string& k : keys) tiles::AppendKeySegment(&path, k);
    EXPECT_NE(side_route_->FindSideRelation(path), nullptr) << path;
    EXPECT_EQ(doc_route_->FindSideRelation(path), nullptr) << path;
    for (size_t s = 0; s < sharded_->shard_count(); s++) {
      EXPECT_NE(sharded_->shard(s).FindSideRelation(path), nullptr) << path;
    }
  }
}

TEST_F(ContainsRouteTest, QueryBlockRoutesAgree) {
  for (const Probe& p : Probes()) {
    QueryContext ref_ctx;
    const auto expected = RunBlocks(TableRef::Rel("d", jsonb_), p, ref_ctx);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions options;
      options.num_threads = threads;
      for (const Relation* rel : {doc_route_, side_route_}) {
        QueryContext ctx(options);
        EXPECT_EQ(RunBlocks(TableRef::Rel("d", rel), p, ctx), expected)
            << Describe(p) << " threads=" << threads
            << (rel == side_route_ ? " side" : " doc");
      }
      QueryContext ctx(options);
      EXPECT_EQ(RunBlocks(TableRef::Sharded("d", sharded_), p, ctx), expected)
          << Describe(p) << " threads=" << threads << " sharded";
    }
  }
}

TEST_F(ContainsRouteTest, SqlRoutesAgree) {
  sql::SqlCatalog reference, doc, side, sharded;
  reference.tables["docs"] = jsonb_;
  doc.tables["docs"] = doc_route_;
  side.tables["docs"] = side_route_;
  sharded.sharded_tables["docs"] = sharded_;
  for (const Probe& p : Probes()) {
    const auto expected = RunSql(reference, p, 1);
    for (size_t threads : {size_t{1}, size_t{4}}) {
      for (const sql::SqlCatalog* catalog : {&doc, &side, &sharded}) {
        EXPECT_EQ(RunSql(*catalog, p, threads), expected)
            << Describe(p) << " threads=" << threads;
      }
    }
  }
}

// Side relations of a plain load and of every shard, over the fixture's
// element shapes and over generated tweets with the Table 3 bench's options.
TEST_F(ContainsRouteTest, SideLoadMatchesTextLoad) {
  ExpectSidesMatchTextLoad(*side_route_, SmallTiles());
  for (size_t s = 0; s < sharded_->shard_count(); s++) {
    ExpectSidesMatchTextLoad(sharded_->shard(s), SmallTiles());
  }
  workload::TwitterOptions twitter;
  twitter.num_tweets = 2000;
  LoadOptions options;
  options.extract_arrays = true;
  auto tweets = Loader(StorageMode::kTiles, {}, options)
                    .Load(workload::GenerateTwitter(twitter), "twitter")
                    .MoveValueOrDie();
  ExpectSidesMatchTextLoad(*tweets, {});
}

// The bitmap of a filter CONTAINS is the part's row subset: tiles without a
// match are dropped unread and counted as skipped, and EXPLAIN ANALYZE
// reports the side rows read.
TEST_F(ContainsRouteTest, BitmapSkipsTilesAndShowsSideRows) {
  const Probe rare{{"tags"}, "t", "rare"};
  QueryContext side_ctx, doc_ctx;
  RunBlocks(TableRef::Rel("d", side_route_), rare, side_ctx);
  RunBlocks(TableRef::Rel("d", doc_route_), rare, doc_ctx);
  EXPECT_GT(side_ctx.tiles_skipped, doc_ctx.tiles_skipped);
  EXPECT_LT(side_ctx.tiles_scanned, doc_ctx.tiles_scanned);

  // Every side row of the scanned parts is read once.
  std::string tags;
  tiles::AppendKeySegment(&tags, "tags");
  size_t sharded_side_rows = 0;
  for (size_t s = 0; s < sharded_->shard_count(); s++) {
    sharded_side_rows += sharded_->shard(s).FindSideRelation(tags)->num_rows();
  }
  sql::SqlCatalog side, doc, sharded;
  side.tables["docs"] = side_route_;
  doc.tables["docs"] = doc_route_;
  sharded.sharded_tables["docs"] = sharded_;
  auto plan = [](const sql::SqlCatalog& catalog,
                 const std::string& member = "t") {
    return ExplainAnalyze(catalog, "CONTAINS(d->'tags', '" + member +
                                       "', 'rare')");
  };
  auto side_rows = [](size_t n) { return "side_rows=" + std::to_string(n); };
  const std::string side_plan = plan(side);
  EXPECT_NE(side_plan.find(side_rows(side_route_->FindSideRelation(tags)
                                         ->num_rows())),
            std::string::npos)
      << side_plan;
  const std::string sharded_plan = plan(sharded);
  EXPECT_NE(sharded_plan.find(side_rows(sharded_side_rows)), std::string::npos)
      << sharded_plan;
  const std::string doc_plan = plan(doc);
  EXPECT_EQ(doc_plan.find("side_rows"), std::string::npos) << doc_plan;
  // Member keys the side documents' `value` wrapping makes ambiguous keep
  // the document route.
  for (const char* member : {"", "value", "_rowid"}) {
    EXPECT_EQ(plan(side, member).find("side_rows"), std::string::npos)
        << "member '" << member << "'";
  }
}

// A side relation whose `_rowid`s are not integer rows of the base relation
// (a corrupt or foreign file) is not trusted: the scan answers from the
// documents, exactly, and reads no side rows. Every other side document
// names an in-range row and claims a match, so a partly trusted side
// relation would mark rows the documents do not.
TEST_F(ContainsRouteTest, ForeignRowIdsFallBackToDocuments) {
  const Probe hot{{"tags"}, "t", "hot"};
  std::string tags;
  tiles::AppendKeySegment(&tags, "tags");
  const std::string bad_ids[] = {std::to_string(kDocs), "-1", R"("0")",
                                 "0.5", "null", R"({"r":0})"};
  for (const std::string& bad : bad_ids) {
    auto base = Loader(StorageMode::kTiles, SmallTiles())
                    .Load(Docs(), "docs")
                    .MoveValueOrDie();
    std::vector<std::string> side_docs;
    for (int r = 0; r < kDocs; r++) {
      side_docs.push_back(R"({"t":"hot","_rowid":)" + std::to_string(r) + "}");
    }
    side_docs.push_back(R"({"t":"hot","_rowid":)" + bad + "}");
    base->AddSideRelation(tags, Loader(StorageMode::kTiles, SmallTiles())
                                    .Load(side_docs, "docs$tags")
                                    .MoveValueOrDie());

    sql::SqlCatalog catalog, reference;
    catalog.tables["docs"] = base.get();
    reference.tables["docs"] = jsonb_;
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions options;
      options.num_threads = threads;
      QueryContext ctx(options), ref_ctx;
      EXPECT_EQ(RunBlocks(TableRef::Rel("d", base.get()), hot, ctx),
                RunBlocks(TableRef::Rel("d", jsonb_), hot, ref_ctx))
          << "_rowid " << bad << " threads=" << threads;
      EXPECT_EQ(RunSql(catalog, hot, threads), RunSql(reference, hot, 1))
          << "_rowid " << bad << " threads=" << threads;
    }
    const std::string text = ExplainAnalyze(catalog, SqlContains(hot));
    EXPECT_EQ(text.find("side_rows"), std::string::npos)
        << "_rowid " << bad << "\n" << text;
  }
}

// UpdateRow keeps CONTAINS exact on a Tiles-* relation: it drops the side
// relation of every array path the old or the new document holds, and the
// documents answer that path from then on. A path neither document holds
// keeps its side relation.
TEST_F(ContainsRouteTest, UpdateRowDropsStaleSideRelation) {
  std::vector<std::string> docs;
  for (int i = 0; i < 2000; i++) {
    std::string doc = R"({"id":)" + std::to_string(i) + R"(,"grp":)" +
                      std::to_string(i % 7) +
                      R"(,"tags":[{"t":"a"},{"t":"b"}])";
    // Only even documents hold e.list, so updating document 5 leaves its
    // side relation alone.
    if (i % 2 == 0) doc += R"(,"e":{"list":[{"k":"v"},{"k":"w"}]})";
    docs.push_back(doc + "}");
  }
  auto reference =
      Loader(StorageMode::kJsonb, SmallTiles()).Load(docs, "docs").MoveValueOrDie();
  auto rel = Loader(StorageMode::kTiles, SmallTiles(), ExtractArrays())
                 .Load(docs, "docs")
                 .MoveValueOrDie();
  std::string tags, list;
  tiles::AppendKeySegment(&tags, "tags");
  tiles::AppendKeySegment(&list, "e");
  tiles::AppendKeySegment(&list, "list");
  ASSERT_NE(rel->FindSideRelation(tags), nullptr);
  ASSERT_NE(rel->FindSideRelation(list), nullptr);

  // Reordering may have moved document 5 to another row of its partition.
  auto row_of_id5 = [](const Relation& r) {
    size_t row = 0;
    while (r.Jsonb(row).FindKey("id")->GetInt() != 5) row++;
    return row;
  };
  const std::string updated = R"({"id":5,"grp":5,"tags":[{"t":"zzz"}]})";
  ASSERT_TRUE(reference->UpdateRow(row_of_id5(*reference), updated).ok());
  ASSERT_TRUE(rel->UpdateRow(row_of_id5(*rel), updated).ok());
  EXPECT_EQ(rel->FindSideRelation(tags), nullptr);
  EXPECT_NE(rel->FindSideRelation(list), nullptr);

  sql::SqlCatalog catalog, ref_catalog;
  catalog.tables["docs"] = rel.get();
  ref_catalog.tables["docs"] = reference.get();
  sql::SqlSession session(&catalog, nullptr);
  auto count = [&](const std::string& needle) {
    auto r = session.Execute(
        "SELECT COUNT(*) FROM docs d WHERE CONTAINS(d->'tags', 't', '" +
        needle + "')");
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.ValueOrDie().rows[0][0].int_value() : -1;
  };
  EXPECT_EQ(count("zzz"), 1);
  EXPECT_EQ(count("b"), 1999);
  EXPECT_EQ(count("a"), 1999);

  const Probe probes[] = {{{"tags"}, "t", "zzz"},
                          {{"tags"}, "t", "b"},
                          {{"e", "list"}, "k", "v"}};
  for (const Probe& p : probes) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      ExecOptions options;
      options.num_threads = threads;
      QueryContext ctx(options), ref_ctx;
      EXPECT_EQ(RunBlocks(TableRef::Rel("d", rel.get()), p, ctx),
                RunBlocks(TableRef::Rel("d", reference.get()), p, ref_ctx))
          << Describe(p) << " threads=" << threads;
      EXPECT_EQ(RunSql(catalog, p, threads), RunSql(ref_catalog, p, 1))
          << Describe(p) << " threads=" << threads;
    }
  }
  const std::string dropped =
      ExplainAnalyze(catalog, SqlContains(probes[0]));
  EXPECT_EQ(dropped.find("side_rows"), std::string::npos) << dropped;
  const std::string kept = ExplainAnalyze(catalog, SqlContains(probes[2]));
  EXPECT_NE(kept.find("side_rows"), std::string::npos) << kept;
}

// Side `_rowid`s are shard-local, so a shard scanned on its own (as a dist
// worker scans it, with the shard's row-id base) takes the side route and
// answers as the documents of the same shard do.
TEST_F(ContainsRouteTest, SingleShardScanTakesSideRoute) {
  for (size_t s = 0; s < sharded_->shard_count(); s++) {
    const Relation& shard = sharded_->shard(s);
    // A row-subset scan answers from the documents: the reference route.
    RowSubset all_rows(shard.num_rows());
    for (size_t r = 0; r < shard.num_rows(); r++) all_rows.Add(r);
    for (const Probe& p : Probes()) {
      std::string path;
      for (const std::string& k : p.keys) tiles::AppendKeySegment(&path, k);
      const Relation* side = shard.FindSideRelation(path);
      ASSERT_NE(side, nullptr) << Describe(p);
      const bool side_route =
          p.member != "" && p.member != "value" && p.member != "_rowid";
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (bool filter : {false, true}) {
          ScanSpec spec;
          spec.relation = &shard;
          spec.table_alias = "d";
          spec.rowid_base = ShardedRelation::RowIdBase(s);
          spec.accesses = {RowId("d"), Access("d", {"id"}, ValueType::kInt),
                           Contains("d", p)};
          if (filter) spec.filter = Slot(2);
          ScanSpec doc_spec = spec;
          doc_spec.row_subset = &all_rows;
          const ScanRun run = RunScan(spec, threads);
          const ScanRun doc_run = RunScan(doc_spec, threads);
          const std::string what = "shard " + std::to_string(s) + " " +
                                   Describe(p) +
                                   " threads=" + std::to_string(threads) +
                                   (filter ? " filter" : "");
          EXPECT_EQ(run.rows, doc_run.rows) << what;
          EXPECT_EQ(doc_run.side_rows, 0) << what;
          EXPECT_EQ(run.side_rows,
                    side_route ? static_cast<int64_t>(side->num_rows()) : 0)
              << what;
        }
      }
    }
  }
}

// Workers answer CONTAINS on their own shard, from its side relation.
TEST_F(ContainsRouteTest, DistWorkersAgree) {
  const std::string dir =
      ::testing::TempDir() + "containsroute_" + std::to_string(::getpid());
  ::mkdir(dir.c_str(), 0755);
  ASSERT_TRUE(storage::SaveSharded(*sharded_, dir).ok());
  const std::string manifest = storage::ShardManifestPath(dir, "docs");
  auto opened = storage::OpenSharded(manifest).MoveValueOrDie();

  for (size_t threads : {size_t{1}, size_t{4}}) {
    dist::ClusterOptions cluster_options;
    cluster_options.num_workers = 2;
    cluster_options.worker_threads = threads;
    cluster_options.workerd_path = JSONTILES_WORKERD_PATH;
    auto started =
        dist::Cluster::Start(manifest, opened.get(), cluster_options);
    ASSERT_TRUE(started.ok()) << started.status().ToString();
    auto cluster = started.MoveValueOrDie();
    sql::SqlCatalog reference, served;
    reference.tables["docs"] = jsonb_;
    served.sharded_tables["docs"] = opened.get();
    served.dist = cluster.get();
    ExecOptions options;
    options.num_threads = threads;
    for (const Probe& p : Probes()) {
      QueryContext ref_ctx;
      QueryContext ctx(options);
      ctx.dist = cluster.get();
      EXPECT_EQ(RunBlocks(TableRef::Sharded("d", opened.get()), p, ctx),
                RunBlocks(TableRef::Rel("d", jsonb_), p, ref_ctx))
          << Describe(p) << " threads=" << threads;
      EXPECT_EQ(RunSql(served, p, threads), RunSql(reference, p, 1))
          << Describe(p) << " threads=" << threads;
    }
  }

  opened.reset();
  for (size_t s = 0; s < sharded_->shard_count(); s++) {
    std::remove((dir + "/docs.shard-" + std::to_string(s) + ".jtrl").c_str());
  }
  std::remove(manifest.c_str());
  ::rmdir(dir.c_str());
}

}  // namespace
}  // namespace jsontiles::exec
