// Pins the optimizer's plan-time output. Plain EXPLAIN of the paper's SQL
// statements (the forms of bench/e2e/suite.cc) over every storage mode and a
// 4-shard relation, and the exact QueryBlock::Explain estimates (%.17g) and
// join orders of multi-table blocks whose filters cover strings, numerics,
// timestamps, LIKE, IN, CONTAINS, an array side relation and a rare document
// kind the stride sample misses (it forces the resample over candidate
// tiles). How the plan-time sampler reads documents must not move any of it.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "opt/query.h"
#include "sql/sql_parser.h"
#include "storage/loader.h"
#include "storage/shard.h"
#include "workload/tpch.h"
#include "workload/twitter.h"
#include "workload/yelp.h"

namespace jsontiles::opt {
namespace {

using exec::Access;
using exec::ConstDate;
using exec::ConstFloat;
using exec::ConstInt;
using exec::ConstString;
using exec::ExprPtr;
using exec::ValueType;
using storage::LoadOptions;
using storage::Loader;
using storage::Relation;
using storage::ShardedRelation;
using storage::ShardOptions;
using storage::StorageMode;

constexpr const char* kStatements[][2] = {
    {"Q1",
     "SELECT l->>'l_returnflag', l->>'l_linestatus', "
     "SUM(l->>'l_quantity'::BigInt), SUM(l->>'l_extendedprice'::Float), "
     "SUM(l->>'l_extendedprice'::Float * (1 - l->>'l_discount'::Float)), "
     "SUM(l->>'l_extendedprice'::Float * (1 - l->>'l_discount'::Float) * "
     "(1 + l->>'l_tax'::Float)), "
     "AVG(l->>'l_quantity'::BigInt), AVG(l->>'l_extendedprice'::Float), "
     "AVG(l->>'l_discount'::Float), COUNT(*) "
     "FROM tpch l "
     "WHERE l->>'l_shipdate'::Date <= DATE '1998-09-02' "
     "AND l->>'l_orderkey'::BigInt IS NOT NULL "
     "GROUP BY l->>'l_returnflag', l->>'l_linestatus' "
     "ORDER BY 1, 2"},
    {"Q3",
     "SELECT l->>'l_orderkey'::BigInt, o->>'o_orderdate'::Date, "
     "o->>'o_shippriority'::BigInt, "
     "SUM(l->>'l_extendedprice'::Float * (1 - l->>'l_discount'::Float)) AS "
     "rev "
     "FROM tpch c, tpch o, tpch l "
     "WHERE c->>'c_mktsegment' = 'BUILDING' "
     "AND c->>'c_custkey'::BigInt = o->>'o_custkey'::BigInt "
     "AND l->>'l_orderkey'::BigInt = o->>'o_orderkey'::BigInt "
     "AND o->>'o_orderdate'::Date < DATE '1995-03-15' "
     "AND l->>'l_shipdate'::Date > DATE '1995-03-15' "
     "AND c->>'c_custkey'::BigInt IS NOT NULL "
     "GROUP BY l->>'l_orderkey'::BigInt, o->>'o_orderdate'::Date, "
     "o->>'o_shippriority'::BigInt "
     "ORDER BY rev DESC, 2 LIMIT 10"},
    {"Q6",
     "SELECT SUM(l->>'l_extendedprice'::Float * l->>'l_discount'::Float) "
     "FROM tpch l "
     "WHERE l->>'l_shipdate'::Date >= DATE '1994-01-01' "
     "AND l->>'l_shipdate'::Date < DATE '1995-01-01' "
     "AND l->>'l_discount'::Float BETWEEN 0.05 AND 0.07 "
     "AND l->>'l_quantity'::BigInt < 24 "
     "AND l->>'l_orderkey'::BigInt IS NOT NULL"},
    {"Q12",
     "SELECT l->>'l_shipmode', "
     "SUM(CASE WHEN o->>'o_orderpriority' IN ('1-URGENT','2-HIGH') "
     "THEN 1 ELSE 0 END), "
     "SUM(CASE WHEN o->>'o_orderpriority' IN ('1-URGENT','2-HIGH') "
     "THEN 0 ELSE 1 END) "
     "FROM tpch o, tpch l "
     "WHERE o->>'o_orderkey'::BigInt = l->>'l_orderkey'::BigInt "
     "AND l->>'l_shipmode' IN ('MAIL','SHIP') "
     "AND l->>'l_commitdate'::Date < l->>'l_receiptdate'::Date "
     "AND l->>'l_shipdate'::Date < l->>'l_commitdate'::Date "
     "AND l->>'l_receiptdate'::Date >= DATE '1994-01-01' "
     "AND l->>'l_receiptdate'::Date < DATE '1995-01-01' "
     "AND o->>'o_orderkey'::BigInt IS NOT NULL "
     "GROUP BY l->>'l_shipmode' ORDER BY 1"},
    {"Q14",
     "SELECT 100 * SUM(CASE WHEN p->>'p_type' LIKE 'PROMO%' "
     "THEN l->>'l_extendedprice'::Float * (1 - l->>'l_discount'::Float) "
     "ELSE 0 END) / "
     "SUM(l->>'l_extendedprice'::Float * (1 - l->>'l_discount'::Float)) "
     "FROM tpch l, tpch p "
     "WHERE l->>'l_partkey'::BigInt = p->>'p_partkey'::BigInt "
     "AND l->>'l_shipdate'::Date >= DATE '1995-09-01' "
     "AND l->>'l_shipdate'::Date < DATE '1995-10-01' "
     "AND p->>'p_partkey'::BigInt IS NOT NULL"},
    {"Y1",
     "SELECT b->>'city', AVG(r->>'stars'::BigInt), COUNT(*) "
     "FROM yelp b, yelp r "
     "WHERE b->>'business_id' IS NOT NULL AND b->>'city' IS NOT NULL "
     "AND b->>'is_open'::BigInt = 1 AND r->>'review_id' IS NOT NULL "
     "AND r->>'business_id' = b->>'business_id' "
     "GROUP BY b->>'city' ORDER BY 3 DESC"},
    {"Y2",
     "SELECT u->>'user_id', u->>'name', COUNT(*), AVG(r->>'stars'::BigInt) "
     "FROM yelp u, yelp r "
     "WHERE u->>'user_id' IS NOT NULL AND u->>'yelping_since' IS NOT NULL "
     "AND r->>'review_id' IS NOT NULL AND r->>'user_id' = u->>'user_id' "
     "GROUP BY u->>'user_id', u->>'name' ORDER BY 3 DESC, 1 LIMIT 25"},
    {"Y3",
     "SELECT b->>'state', AVG(r->>'stars'::BigInt), COUNT(*) "
     "FROM yelp b, yelp r, yelp u "
     "WHERE b->>'state' IS NOT NULL AND r->>'review_id' IS NOT NULL "
     "AND u->>'yelping_since' IS NOT NULL AND u->>'fans'::BigInt > 50 "
     "AND r->>'business_id' = b->>'business_id' "
     "AND r->>'user_id' = u->>'user_id' "
     "GROUP BY b->>'state' ORDER BY 1"},
    {"Y4",
     "SELECT r->>'stars'::BigInt, COUNT(*) FROM yelp r "
     "WHERE r->>'review_id' IS NOT NULL "
     "GROUP BY r->>'stars'::BigInt ORDER BY 1"},
    {"Y5",
     "SELECT b->>'state', SUM(t->>'compliment_count'::BigInt), COUNT(*) "
     "FROM yelp b, yelp t "
     "WHERE b->>'state' IS NOT NULL AND b->>'stars'::Float >= 4.0 "
     "AND t->>'compliment_count'::BigInt IS NOT NULL "
     "AND t->>'date' IS NOT NULL AND t->>'business_id' = b->>'business_id' "
     "GROUP BY b->>'state' ORDER BY 3 DESC"},
    {"T1",
     "SELECT t->'user'->>'id'::BigInt, t->'user'->>'screen_name', "
     "MAX(t->'user'->>'followers_count'::BigInt), COUNT(*) "
     "FROM twitter t WHERE t->'user'->>'id'::BigInt IS NOT NULL "
     "GROUP BY t->'user'->>'id'::BigInt, t->'user'->>'screen_name' "
     "ORDER BY 3 DESC, 1 LIMIT 10"},
    {"T2",
     "SELECT d->'delete'->'status'->>'user_id'::BigInt, COUNT(*) "
     "FROM twitter d "
     "WHERE d->'delete'->'status'->>'user_id'::BigInt IS NOT NULL "
     "GROUP BY d->'delete'->'status'->>'user_id'::BigInt "
     "ORDER BY 2 DESC, 1 LIMIT 10"},
    {"T3",
     "SELECT t->>'lang', COUNT(*), MAX(t->>'retweet_count'::BigInt) "
     "FROM twitter t WHERE t->'user'->>'id'::BigInt IS NOT NULL "
     "AND CONTAINS(t->'entities'->'user_mentions', 'screen_name', "
     "'ladygaga') "
     "GROUP BY t->>'lang' ORDER BY 2 DESC, 1"},
    {"T4",
     "SELECT t->>'lang', COUNT(*), MAX(t->>'retweet_count'::BigInt) "
     "FROM twitter t WHERE t->'user'->>'id'::BigInt IS NOT NULL "
     "AND CONTAINS(t->'entities'->'hashtags', 'text', 'COVID') "
     "GROUP BY t->>'lang' ORDER BY 2 DESC, 1"},
    {"T5",
     "SELECT t->>'source', COUNT(*), "
     "AVG(t->'user'->>'followers_count'::BigInt) "
     "FROM twitter t WHERE t->'user'->>'id'::BigInt IS NOT NULL "
     "GROUP BY t->>'source' ORDER BY 2 DESC LIMIT 5"},
};

constexpr StorageMode kModes[] = {StorageMode::kJsonText, StorageMode::kJsonb,
                                  StorageMode::kSinew, StorageMode::kTiles};

// Scrambles a document number, so that categorical values do not repeat
// with the sample stride.
uint32_t Mix(int i) { return (static_cast<uint32_t>(i) * 2654435761u) >> 12; }

// A synthetic shop: 12,000 orders, 400 customers and 6 audit records. The
// audits sit together between two stride samples, so only the resample over
// the tiles that may hold an audit path sees them.
std::vector<std::string> ShopDocs() {
  static const char* kSegments[] = {"BUILDING", "MACHINERY", "AUTOMOBILE"};
  static const char* kStatus[] = {"F", "O", "P"};
  std::vector<std::string> docs;
  for (int c = 0; c < 400; c++) {
    docs.push_back(R"({"c_id":)" + std::to_string(c) + R"(,"c_seg":")" +
                   kSegments[Mix(c) % 3] + R"(","c_bal":)" +
                   std::to_string(Mix(c) % 1200) +
                   "}");
  }
  for (int i = 0; i < 12000; i++) {
    if (i == 6010) {
      for (int a = 0; a < 6; a++) {
        docs.push_back(R"({"a_id":)" + std::to_string(a) + R"(,"a_cust":)" +
                       std::to_string(a * 7) + R"(,"a_code":")" +
                       (a % 3 == 0 ? "X" : "Y") + R"("})");
      }
    }
    const uint32_t h = Mix(i);
    char date[16];
    std::snprintf(date, sizeof(date), "199%u-%02u-%02u", 4 + h % 3,
                  1 + (h >> 2) % 12, 1 + (h >> 6) % 28);
    docs.push_back(
        R"({"o_id":)" + std::to_string(i) + R"(,"o_cust":)" +
        std::to_string((h >> 3) % 400) + R"(,"o_total":)" +
        std::to_string((h >> 5) % 1000) + R"(.5,"o_date":")" + date +
        R"(","o_status":")" + kStatus[(h >> 9) % 3] + R"(","o_comment":")" +
        ((h >> 11) % 4 == 0 ? "special requests" : "regular") +
        R"(","tags":[{"t":")" + ((h >> 13) % 5 == 0 ? "hot" : "cold") +
        R"("},{"t":")" + ((h >> 15) % 7 == 0 ? "new" : "old") + R"("}]})");
  }
  return docs;
}

std::string Fmt(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class PlanPinTest : public ::testing::Test {
 protected:
  struct Config {
    std::string name;
    sql::SqlCatalog catalog;
    const Relation* shop = nullptr;
    const ShardedRelation* sharded_shop = nullptr;
  };

  static void SetUpTestSuite() {
    workload::TpchOptions tpch;
    tpch.scale_factor = 0.002;
    workload::YelpOptions yelp;
    yelp.num_business = 100;
    workload::TwitterOptions twitter;
    twitter.num_tweets = 3000;
    twitter.changing_schema = true;
    const std::vector<std::string> data[] = {
        workload::GenerateTpch(tpch).combined, workload::GenerateYelp(yelp),
        workload::GenerateTwitter(twitter)};
    const char* names[] = {"tpch", "yelp", "twitter"};
    const std::vector<std::string> shop = ShopDocs();

    configs_ = new std::vector<Config>();
    relations_ = new std::vector<std::unique_ptr<Relation>>();
    sharded_ = new std::vector<std::unique_ptr<ShardedRelation>>();
    for (StorageMode mode : kModes) {
      Config config;
      config.name = storage::StorageModeName(mode);
      Loader loader(mode, {});
      for (int d = 0; d < 3; d++) {
        relations_->push_back(
            loader.Load(data[d], names[d]).MoveValueOrDie());
        config.catalog.tables[names[d]] = relations_->back().get();
      }
      relations_->push_back(loader.Load(shop, "shop").MoveValueOrDie());
      config.shop = relations_->back().get();
      configs_->push_back(std::move(config));
    }
    Config config;
    config.name = "sharded4";
    ShardOptions shard_options;
    shard_options.shard_count = 4;
    for (int d = 0; d < 3; d++) {
      sharded_->push_back(ShardedRelation::Load(data[d], names[d],
                                                StorageMode::kTiles, {}, {},
                                                shard_options)
                              .MoveValueOrDie());
      config.catalog.sharded_tables[names[d]] = sharded_->back().get();
    }
    LoadOptions load_options;
    load_options.extract_arrays = true;
    sharded_->push_back(ShardedRelation::Load(shop, "shop",
                                              StorageMode::kTiles, {},
                                              load_options, shard_options)
                            .MoveValueOrDie());
    config.sharded_shop = sharded_->back().get();
    configs_->push_back(std::move(config));
  }
  static void TearDownTestSuite() {
    delete configs_;
    delete relations_;
    delete sharded_;
    configs_ = nullptr;
    relations_ = nullptr;
    sharded_ = nullptr;
  }

  static TableRef Shop(const Config& config, std::string alias,
                       ExprPtr filter) {
    return config.shop != nullptr
               ? TableRef::Rel(std::move(alias), config.shop, std::move(filter))
               : TableRef::Sharded(std::move(alias), config.sharded_shop,
                                   std::move(filter));
  }

  // The estimate of a QueryBlock::Explain call, whether it returns the
  // estimate itself or a Result that must hold one.
  static const PlanEstimate& Estimate(const PlanEstimate& est) { return est; }
  static const PlanEstimate& Estimate(const Result<PlanEstimate>& planned) {
    EXPECT_TRUE(planned.ok()) << planned.status().ToString();
    return planned.ValueOrDie();
  }

  static std::string Pin(const std::string& label, QueryBlock& block) {
    const auto planned = block.Explain();
    const PlanEstimate& est = Estimate(planned);
    std::string line = label + ": order=";
    for (size_t i = 0; i < est.join_order.size(); i++) {
      if (i > 0) line += ",";
      line += est.join_order[i];
    }
    line += " rows=";
    for (size_t i = 0; i < est.table_rows.size(); i++) {
      if (i > 0) line += ",";
      line += Fmt(est.table_rows[i]);
    }
    return line + " cost=" + Fmt(est.estimated_cost) + "\n";
  }

  static std::vector<Config>* configs_;
  static std::vector<std::unique_ptr<Relation>>* relations_;
  static std::vector<std::unique_ptr<ShardedRelation>>* sharded_;
};
std::vector<PlanPinTest::Config>* PlanPinTest::configs_ = nullptr;
std::vector<std::unique_ptr<Relation>>* PlanPinTest::relations_ = nullptr;
std::vector<std::unique_ptr<ShardedRelation>>* PlanPinTest::sharded_ = nullptr;

constexpr const char* kExpectedSqlPlans = R"(JSON Q1
Join order: l
  scan l  (estimated rows=12022)
JSON Q3
Join order: c -> o -> l
  scan c  (estimated rows=34)
  scan o  (estimated rows=1249)
  scan l  (estimated rows=6518)
Estimated cost (C_out): 68
JSON Q6
Join order: l
  scan l  (estimated rows=236)
JSON Q12
Join order: o -> l
  scan o  (estimated rows=2702)
  scan l  (estimated rows=135)
Estimated cost (C_out): 135
JSON Q14
Join order: l -> p
  scan l  (estimated rows=135)
  scan p  (estimated rows=405)
Estimated cost (C_out): 135
JSON Y1
Join order: b -> r
  scan b  (estimated rows=103)
  scan r  (estimated rows=3513)
Estimated cost (C_out): 103
JSON Y2
Join order: u -> r
  scan u  (estimated rows=1116)
  scan r  (estimated rows=3513)
Estimated cost (C_out): 1116
JSON Y3
Join order: b -> r -> u
  scan b  (estimated rows=134)
  scan r  (estimated rows=3513)
  scan u  (estimated rows=506)
Estimated cost (C_out): 154
JSON Y4
Join order: r
  scan r  (estimated rows=3513)
JSON Y5
Join order: b -> t
  scan b  (estimated rows=41)
  scan t  (estimated rows=455)
Estimated cost (C_out): 41
JSON T1
Join order: t
  scan t  (estimated rows=2812)
JSON T2
Join order: d
  scan d  (estimated rows=188)
JSON T3
Join order: t
  scan t  (estimated rows=656)
JSON T4
Join order: t
  scan t  (estimated rows=932)
JSON T5
Join order: t
  scan t  (estimated rows=2812)
JSONB Q1
Join order: l
  scan l  (estimated rows=12022)
JSONB Q3
Join order: c -> o -> l
  scan c  (estimated rows=34)
  scan o  (estimated rows=1249)
  scan l  (estimated rows=6518)
Estimated cost (C_out): 68
JSONB Q6
Join order: l
  scan l  (estimated rows=236)
JSONB Q12
Join order: o -> l
  scan o  (estimated rows=2702)
  scan l  (estimated rows=135)
Estimated cost (C_out): 135
JSONB Q14
Join order: l -> p
  scan l  (estimated rows=135)
  scan p  (estimated rows=405)
Estimated cost (C_out): 135
JSONB Y1
Join order: b -> r
  scan b  (estimated rows=103)
  scan r  (estimated rows=3513)
Estimated cost (C_out): 103
JSONB Y2
Join order: u -> r
  scan u  (estimated rows=1116)
  scan r  (estimated rows=3513)
Estimated cost (C_out): 1116
JSONB Y3
Join order: b -> r -> u
  scan b  (estimated rows=134)
  scan r  (estimated rows=3513)
  scan u  (estimated rows=506)
Estimated cost (C_out): 154
JSONB Y4
Join order: r
  scan r  (estimated rows=3513)
JSONB Y5
Join order: b -> t
  scan b  (estimated rows=41)
  scan t  (estimated rows=455)
Estimated cost (C_out): 41
JSONB T1
Join order: t
  scan t  (estimated rows=2812)
JSONB T2
Join order: d
  scan d  (estimated rows=188)
JSONB T3
Join order: t
  scan t  (estimated rows=656)
JSONB T4
Join order: t
  scan t  (estimated rows=932)
JSONB T5
Join order: t
  scan t  (estimated rows=2812)
Sinew Q1
Join order: l
  scan l  (estimated rows=12022)
Sinew Q3
Join order: c -> o -> l
  scan c  (estimated rows=34)
  scan o  (estimated rows=1249)
  scan l  (estimated rows=6518)
Estimated cost (C_out): 68
Sinew Q6
Join order: l
  scan l  (estimated rows=236)
Sinew Q12
Join order: o -> l
  scan o  (estimated rows=2702)
  scan l  (estimated rows=135)
Estimated cost (C_out): 135
Sinew Q14
Join order: l -> p
  scan l  (estimated rows=135)
  scan p  (estimated rows=405)
Estimated cost (C_out): 135
Sinew Y1
Join order: b -> r
  scan b  (estimated rows=103)
  scan r  (estimated rows=3513)
Estimated cost (C_out): 103
Sinew Y2
Join order: u -> r
  scan u  (estimated rows=1116)
  scan r  (estimated rows=3513)
Estimated cost (C_out): 1116
Sinew Y3
Join order: b -> r -> u
  scan b  (estimated rows=134)
  scan r  (estimated rows=3513)
  scan u  (estimated rows=506)
Estimated cost (C_out): 154
Sinew Y4
Join order: r
  scan r  (estimated rows=3513)
Sinew Y5
Join order: b -> t
  scan b  (estimated rows=41)
  scan t  (estimated rows=455)
Estimated cost (C_out): 41
Sinew T1
Join order: t
  scan t  (estimated rows=2812)
Sinew T2
Join order: d
  scan d  (estimated rows=188)
Sinew T3
Join order: t
  scan t  (estimated rows=656)
Sinew T4
Join order: t
  scan t  (estimated rows=932)
Sinew T5
Join order: t
  scan t  (estimated rows=2812)
Tiles Q1
Join order: l
  scan l  (estimated rows=11804)
Tiles Q3
Join order: c -> o -> l
  scan c  (estimated rows=33)
  scan o  (estimated rows=1600)
  scan l  (estimated rows=6448)
Estimated cost (C_out): 920
Tiles Q6
Join order: l
  scan l  (estimated rows=136)
Tiles Q12
Join order: o -> l
  scan o  (estimated rows=3000)
  scan l  (estimated rows=34)
Estimated cost (C_out): 49
Tiles Q14
Join order: l -> p
  scan l  (estimated rows=136)
  scan p  (estimated rows=400)
Estimated cost (C_out): 136
Tiles Y1
Join order: b -> r
  scan b  (estimated rows=100)
  scan r  (estimated rows=3500)
Estimated cost (C_out): 3522
Tiles Y2
Join order: u -> r
  scan u  (estimated rows=1000)
  scan r  (estimated rows=3500)
Estimated cost (C_out): 3439
Tiles Y3
Join order: r -> u -> b
  scan r  (estimated rows=3500)
  scan u  (estimated rows=544)
  scan b  (estimated rows=100)
Estimated cost (C_out): 3757
Tiles Y4
Join order: r
  scan r  (estimated rows=3500)
Tiles Y5
Join order: b -> t
  scan b  (estimated rows=50)
  scan t  (estimated rows=600)
Estimated cost (C_out): 302
Tiles T1
Join order: t
  scan t  (estimated rows=2798)
Tiles T2
Join order: d
  scan d  (estimated rows=202)
Tiles T3
Join order: t
  scan t  (estimated rows=72)
Tiles T4
Join order: t
  scan t  (estimated rows=91)
Tiles T5
Join order: t
  scan t  (estimated rows=2798)
sharded4 Q1
Join order: l
  scan l  (estimated rows=11572)
sharded4 Q3
Join order: c -> o -> l
  scan c  (estimated rows=64)
  scan o  (estimated rows=1635)
  scan l  (estimated rows=6857)
Estimated cost (C_out): 3988
sharded4 Q6
Join order: l
  scan l  (estimated rows=213)
sharded4 Q12
Join order: o -> l
  scan o  (estimated rows=3000)
  scan l  (estimated rows=188)
Estimated cost (C_out): 2447
sharded4 Q14
Join order: l -> p
  scan l  (estimated rows=166)
  scan p  (estimated rows=400)
Estimated cost (C_out): 664
sharded4 Y1
Join order: b -> r
  scan b  (estimated rows=26)
  scan r  (estimated rows=3500)
Estimated cost (C_out): 911
sharded4 Y2
Join order: u -> r
  scan u  (estimated rows=1000)
  scan r  (estimated rows=3500)
Estimated cost (C_out): 6294
sharded4 Y3
Join order: r -> u -> b
  scan r  (estimated rows=3500)
  scan u  (estimated rows=438)
  scan b  (estimated rows=100)
Estimated cost (C_out): 5531
sharded4 Y4
Join order: r
  scan r  (estimated rows=3500)
sharded4 Y5
Join order: b -> t
  scan b  (estimated rows=8)
  scan t  (estimated rows=600)
Estimated cost (C_out): 50
sharded4 T1
Join order: t
  scan t  (estimated rows=2798)
sharded4 T2
Join order: d
  scan d  (estimated rows=202)
sharded4 T3
Join order: t
  scan t  (estimated rows=69)
sharded4 T4
Join order: t
  scan t  (estimated rows=87)
sharded4 T5
Join order: t
  scan t  (estimated rows=2798)
)";

constexpr const char* kExpectedBlockPlans = R"(JSON strings+numerics+dates: order=c,o,k rows=145.3828125,605.76171875,411.91796875 cost=290.765625
JSON contains: order=o,c rows=2471.5078125,169.61328125 cost=169.61328125
JSON rare: order=a,c rows=1.2115234375000001,411.91796875 cost=1.2115234375000001
JSONB strings+numerics+dates: order=c,o,k rows=145.3828125,605.76171875,411.91796875 cost=290.765625
JSONB contains: order=o,c rows=2471.5078125,169.61328125 cost=169.61328125
JSONB rare: order=a,c rows=1.2115234375000001,411.91796875 cost=1.2115234375000001
Sinew strings+numerics+dates: order=c,o,k rows=145.3828125,605.76171875,411.91796875 cost=290.765625
Sinew contains: order=o,c rows=2471.5078125,169.61328125 cost=169.61328125
Sinew rare: order=a,c rows=1.2115234375000001,411.91796875 cost=1.2115234375000001
Tiles strings+numerics+dates: order=c,k,o rows=94.117647058823522,399.99999999999994,872.72727272727275 cost=299.69085846038996
Tiles contains: order=o,c rows=1.2242424242424244,211.76470588235293 cost=1.2242424242424244
Tiles rare: order=a,c rows=1.9999999999999998,399.99999999999994 cost=1.9999999999999998
sharded4 strings+numerics+dates: order=c,o,k rows=102,692.6262857142857,400 cost=5994.6813363561014
sharded4 contains: order=o,c rows=4,200 cost=27.390430160890887
sharded4 rare: order=a,c rows=4,400 cost=54.780860321781773
sharded4 contains join: order=e,o rows=4,3155.075301587302 cost=15.997421018697615
)";

TEST_F(PlanPinTest, SqlExplainText) {
  std::string actual;
  for (const Config& config : *configs_) {
    for (const auto& [label, statement] : kStatements) {
      exec::QueryContext ctx;
      auto r = sql::ExecuteSql(std::string("EXPLAIN ") + statement,
                               config.catalog, ctx);
      ASSERT_TRUE(r.ok()) << config.name << " " << label << ": "
                          << r.status().ToString();
      actual += config.name + " " + label + "\n";
      for (const auto& row : r.ValueOrDie().rows) {
        actual += std::string(row[0].string_value()) + "\n";
      }
    }
  }
  EXPECT_EQ(actual, kExpectedSqlPlans);
}

TEST_F(PlanPinTest, QueryBlockEstimates) {
  std::string actual;
  for (const Config& config : *configs_) {
    // Strings (=, LIKE, IN), floats and timestamps over three tables.
    {
      QueryBlock q;
      q.AddTable(Shop(config, "c",
                      exec::Eq(Access("c", {"c_seg"}, ValueType::kString),
                               ConstString("BUILDING"))));
      q.AddTable(Shop(
          config, "o",
          exec::And(
              {exec::Lt(Access("o", {"o_date"}, ValueType::kTimestamp),
                        ConstDate("1995-06-01")),
               exec::Gt(Access("o", {"o_total"}, ValueType::kFloat),
                        ConstFloat(300.0)),
               exec::Like(Access("o", {"o_comment"}, ValueType::kString),
                          "%special%"),
               exec::InList(Access("o", {"o_status"}, ValueType::kString),
                            {"F", "O"})})));
      q.AddTable(Shop(config, "k", nullptr));
      q.AddJoin(Access("o", {"o_cust"}, ValueType::kInt),
                Access("c", {"c_id"}, ValueType::kInt));
      q.AddJoin(Access("k", {"c_id"}, ValueType::kInt),
                Access("c", {"c_id"}, ValueType::kInt));
      q.GroupBy({Access("c", {"c_seg"}, ValueType::kString)});
      q.Aggregate(exec::AggSpec::CountStar());
      actual += Pin(config.name + " strings+numerics+dates", q);
    }
    // Array containment and an integer range.
    {
      QueryBlock q;
      q.AddTable(Shop(config, "o",
                      exec::ArrayContains("o", {"tags"}, "t", "hot")));
      q.AddTable(Shop(config, "c",
                      exec::Ge(Access("c", {"c_bal"}, ValueType::kInt),
                               ConstInt(600))));
      q.AddJoin(Access("o", {"o_cust"}, ValueType::kInt),
                Access("c", {"c_id"}, ValueType::kInt));
      q.Aggregate(exec::AggSpec::CountStar());
      actual += Pin(config.name + " contains", q);
    }
    // The rare audit records: only the candidate-tile resample finds them.
    {
      QueryBlock q;
      q.AddTable(Shop(config, "a",
                      exec::Eq(Access("a", {"a_code"}, ValueType::kString),
                               ConstString("X"))));
      q.AddTable(Shop(config, "c", nullptr));
      q.AddJoin(Access("a", {"a_cust"}, ValueType::kInt),
                Access("c", {"c_id"}, ValueType::kInt));
      q.Aggregate(exec::AggSpec::CountStar());
      actual += Pin(config.name + " rare", q);
    }
    // CONTAINS over the sharded load, whose shards answer it from their
    // array side relations, joined back to the shop by row id.
    if (config.sharded_shop != nullptr) {
      QueryBlock q;
      q.AddTable(
          Shop(config, "e", exec::ArrayContains("e", {"tags"}, "t", "new")));
      q.AddTable(Shop(config, "o",
                      exec::Lt(Access("o", {"o_total"}, ValueType::kFloat),
                               ConstFloat(250.0))));
      q.AddJoin(exec::RowId("e"), exec::RowId("o"));
      q.Aggregate(exec::AggSpec::CountStar());
      actual += Pin(config.name + " contains join", q);
    }
  }
  EXPECT_EQ(actual, kExpectedBlockPlans);
}

}  // namespace
}  // namespace jsontiles::opt
