#include "workload/yelp.h"

#include <cstdio>

#include "exec/operators.h"
#include "util/logging.h"
#include "util/random.h"

namespace jsontiles::workload {

namespace {

using exec::AggSpec;
using exec::ExprPtr;
using exec::Slot;
using exec::ValueType;
using opt::QueryBlock;
using opt::TableRef;
using opt::TableSource;

const char* kCities[] = {"Phoenix", "Las Vegas", "Toronto", "Charlotte",
                         "Pittsburgh", "Montreal", "Cleveland", "Madison"};
const char* kStates[] = {"AZ", "NV", "ON", "NC", "PA", "QC", "OH", "WI"};
const char* kCategories[] = {"Restaurants", "Bars", "Coffee & Tea", "Nightlife",
                             "Shopping", "Fitness", "Automotive", "Hotels"};
const char* kReviewWords[] = {"great", "terrible", "amazing", "food", "service",
                              "place", "staff", "definitely", "recommend",
                              "never", "again", "delicious", "slow", "friendly"};

std::string Text(Random& rng, int min_words, int max_words) {
  int n = static_cast<int>(rng.Range(min_words, max_words));
  std::string out;
  for (int i = 0; i < n; i++) {
    if (!out.empty()) out.push_back(' ');
    out.append(kReviewWords[rng.Uniform(14)]);
  }
  return out;
}

std::string DateTime(Random& rng) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d",
                static_cast<int>(rng.Range(2005, 2019)),
                static_cast<int>(rng.Range(1, 12)),
                static_cast<int>(rng.Range(1, 28)),
                static_cast<int>(rng.Range(0, 23)),
                static_cast<int>(rng.Range(0, 59)),
                static_cast<int>(rng.Range(0, 59)));
  return buf;
}

}  // namespace

std::vector<std::string> GenerateYelp(const YelpOptions& options) {
  Random rng(options.seed);
  std::vector<std::string> docs;
  const size_t nb = options.num_business;
  const size_t nu = nb * 10;
  ZipfGenerator business_zipf(nb, 0.9);
  ZipfGenerator user_zipf(nu, 0.9);

  // business
  for (size_t b = 0; b < nb; b++) {
    size_t city = rng.Uniform(8);
    char stars[8];
    std::snprintf(stars, sizeof(stars), "%.1f",
                  static_cast<double>(rng.Range(2, 10)) / 2.0);
    std::string doc = "{";
    doc += R"("business_id":"b)" + std::to_string(b) + R"(",)";
    doc += R"("name":")" + rng.NextString(5, 15) + R"(",)";
    doc += R"("address":")" + rng.NextString(10, 25) + R"(",)";
    doc += R"("city":")" + std::string(kCities[city]) + R"(",)";
    doc += R"("state":")" + std::string(kStates[city]) + R"(",)";
    doc += R"("postal_code":")" + std::to_string(rng.Range(10000, 99999)) + R"(",)";
    doc += R"("latitude":)" + std::to_string(30.0 + rng.NextDouble() * 20) + ",";
    doc += R"("longitude":)" + std::to_string(-120.0 + rng.NextDouble() * 40) + ",";
    doc += R"("stars":)" + std::string(stars) + ",";
    doc += R"("review_count":)" + std::to_string(rng.Range(3, 500)) + ",";
    doc += R"("is_open":)" + std::to_string(rng.Chance(0.8) ? 1 : 0) + ",";
    doc += R"("attributes":{"RestaurantsPriceRange2":")" +
           std::to_string(rng.Range(1, 4)) + R"(","BikeParking":")" +
           (rng.Chance(0.5) ? "True" : "False") + R"("},)";
    doc += R"("categories":")" + std::string(kCategories[rng.Uniform(8)]) +
           ", " + kCategories[rng.Uniform(8)] + R"(",)";
    doc += R"("hours":{"Monday":"9:0-17:0","Friday":"9:0-21:0"})";
    doc += "}";
    docs.push_back(std::move(doc));
  }

  // user
  for (size_t u = 0; u < nu; u++) {
    std::string doc = "{";
    doc += R"("user_id":"u)" + std::to_string(u) + R"(",)";
    doc += R"("name":")" + rng.NextString(3, 10) + R"(",)";
    doc += R"("review_count":)" + std::to_string(rng.Range(0, 300)) + ",";
    doc += R"("yelping_since":")" + DateTime(rng) + R"(",)";
    doc += R"("useful":)" + std::to_string(rng.Range(0, 1000)) + ",";
    doc += R"("funny":)" + std::to_string(rng.Range(0, 500)) + ",";
    doc += R"("fans":)" + std::to_string(rng.Range(0, 100)) + ",";
    char avg[8];
    std::snprintf(avg, sizeof(avg), "%.2f", 1.0 + rng.NextDouble() * 4.0);
    doc += R"("average_stars":)" + std::string(avg);
    doc += "}";
    docs.push_back(std::move(doc));
  }

  // review (the big one)
  const size_t nr = nb * 35;
  for (size_t r = 0; r < nr; r++) {
    std::string doc = "{";
    doc += R"("review_id":"r)" + std::to_string(r) + R"(",)";
    doc += R"("user_id":"u)" + std::to_string(user_zipf.Next(rng)) + R"(",)";
    doc += R"("business_id":"b)" + std::to_string(business_zipf.Next(rng)) + R"(",)";
    doc += R"("stars":)" + std::to_string(rng.Range(1, 5)) + ",";
    doc += R"("useful":)" + std::to_string(rng.Range(0, 50)) + ",";
    doc += R"("funny":)" + std::to_string(rng.Range(0, 20)) + ",";
    doc += R"("cool":)" + std::to_string(rng.Range(0, 20)) + ",";
    doc += R"("text":")" + Text(rng, 8, 60) + R"(",)";
    doc += R"("date":")" + DateTime(rng) + R"(")";
    doc += "}";
    docs.push_back(std::move(doc));
  }

  // tip
  const size_t nt = nb * 6;
  for (size_t t = 0; t < nt; t++) {
    std::string doc = "{";
    doc += R"("user_id":"u)" + std::to_string(user_zipf.Next(rng)) + R"(",)";
    doc += R"("business_id":"b)" + std::to_string(business_zipf.Next(rng)) + R"(",)";
    doc += R"("text":")" + Text(rng, 3, 15) + R"(",)";
    doc += R"("date":")" + DateTime(rng) + R"(",)";
    doc += R"("compliment_count":)" + std::to_string(rng.Range(0, 5));
    doc += "}";
    docs.push_back(std::move(doc));
  }

  // checkin
  for (size_t b = 0; b < nb; b++) {
    if (!rng.Chance(0.9)) continue;
    std::string dates;
    int n = static_cast<int>(rng.Range(1, 6));
    for (int i = 0; i < n; i++) {
      if (i) dates += ", ";
      dates += DateTime(rng);
    }
    docs.push_back(R"({"business_id":"b)" + std::to_string(b) +
                   R"(","date":")" + dates + R"("})");
  }

  // Interleave document types like a combined log (deterministic shuffle).
  Random shuffle_rng(options.seed ^ 0xABCDEF);
  for (size_t i = docs.size(); i > 1; i--) {
    std::swap(docs[i - 1], docs[shuffle_rng.Uniform(i)]);
  }
  return docs;
}

namespace {

using exec::Access;
using exec::And;
using exec::ConstInt;
using exec::ConstString;
using exec::Eq;
using exec::Ge;
using exec::Gt;
using exec::IsNotNull;
using exec::QueryContext;
using exec::RowSet;
using storage::Relation;

ExprPtr BS(const char* t, const char* k) { return Access(t, {k}, ValueType::kString); }
ExprPtr BI(const char* t, const char* k) { return Access(t, {k}, ValueType::kInt); }
ExprPtr BF(const char* t, const char* k) { return Access(t, {k}, ValueType::kFloat); }

// Y1: average review stars and review volume per city of open businesses.
RowSet Y1(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(TableRef::Src(
      "b", rel,
      And(IsNotNull(BS("b", "business_id")),
          And(IsNotNull(BS("b", "city")),
              Eq(BI("b", "is_open"), ConstInt(1))))));
  q.AddTable(TableRef::Src("r", rel, IsNotNull(BS("r", "review_id"))));
  q.AddJoin(BS("r", "business_id"), BS("b", "business_id"));
  q.GroupBy({BS("b", "city")});
  q.Aggregate(AggSpec::Avg(BI("r", "stars")));
  q.Aggregate(AggSpec::CountStar());
  q.OrderBy(Slot(2), true);
  return q.Execute(ctx);
}

// Y2: the most active reviewers and their average given stars.
RowSet Y2(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(TableRef::Src("u", rel,
                           And(IsNotNull(BS("u", "user_id")),
                               IsNotNull(BS("u", "yelping_since")))));
  q.AddTable(TableRef::Src("r", rel, IsNotNull(BS("r", "review_id"))));
  q.AddJoin(BS("r", "user_id"), BS("u", "user_id"));
  q.GroupBy({BS("u", "user_id"), BS("u", "name")});
  q.Aggregate(AggSpec::CountStar());
  q.Aggregate(AggSpec::Avg(BI("r", "stars")));
  q.OrderBy(Slot(2), true);
  q.OrderBy(Slot(0));
  q.Limit(25);
  return q.Execute(ctx);
}

// Y3: three-way join: do elite reviewers rate differently per state?
RowSet Y3(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(TableRef::Src("b", rel, IsNotNull(BS("b", "state"))));
  q.AddTable(TableRef::Src("r", rel, IsNotNull(BS("r", "review_id"))));
  q.AddTable(TableRef::Src("u", rel,
                           And(IsNotNull(BS("u", "yelping_since")),
                               Gt(BI("u", "fans"), ConstInt(50)))));
  q.AddJoin(BS("r", "business_id"), BS("b", "business_id"));
  q.AddJoin(BS("r", "user_id"), BS("u", "user_id"));
  q.GroupBy({BS("b", "state")});
  q.Aggregate(AggSpec::Avg(BI("r", "stars")));
  q.Aggregate(AggSpec::CountStar());
  q.OrderBy(Slot(0));
  return q.Execute(ctx);
}

// Y4 (paper's example): number of reviews per star rating.
RowSet Y4(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(TableRef::Src("r", rel, IsNotNull(BS("r", "review_id"))));
  q.GroupBy({BI("r", "stars")});
  q.Aggregate(AggSpec::CountStar());
  q.OrderBy(Slot(0));
  return q.Execute(ctx);
}

// Y5: compliment-weighted tips per state for highly-rated businesses.
RowSet Y5(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(TableRef::Src("b", rel,
                           And(IsNotNull(BS("b", "state"))   ,
                               Ge(BF("b", "stars"), exec::ConstFloat(4.0)))));
  q.AddTable(TableRef::Src(
      "t", rel,
      And(IsNotNull(BI("t", "compliment_count")), IsNotNull(BS("t", "date")))));
  q.AddJoin(BS("t", "business_id"), BS("b", "business_id"));
  q.GroupBy({BS("b", "state")});
  q.Aggregate(AggSpec::Sum(BI("t", "compliment_count")));
  q.Aggregate(AggSpec::CountStar());
  q.OrderBy(Slot(1), true);
  return q.Execute(ctx);
}

}  // namespace

exec::RowSet RunYelpQuery(int number, const opt::TableSource& rel,
                          exec::QueryContext& ctx) {
  switch (number) {
    case 1: return Y1(rel, ctx);
    case 2: return Y2(rel, ctx);
    case 3: return Y3(rel, ctx);
    case 4: return Y4(rel, ctx);
    case 5: return Y5(rel, ctx);
    default: JSONTILES_CHECK(false);
  }
}

const char* YelpQueryName(int number) {
  static const char* kNames[] = {"",
                                 "Y1 city review volume",
                                 "Y2 most active reviewers",
                                 "Y3 elite reviewers by state",
                                 "Y4 reviews per star rating",
                                 "Y5 tip compliments by state"};
  JSONTILES_CHECK(number >= 1 && number <= 5);
  return kNames[number];
}

}  // namespace jsontiles::workload
