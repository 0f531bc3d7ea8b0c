#include "workload/twitter.h"

#include <cstdio>

#include "exec/operators.h"
#include "util/date.h"
#include "util/logging.h"
#include "util/random.h"

namespace jsontiles::workload {

namespace {

const char* kHashtags[] = {"COVID", "love", "music", "news", "sports", "art",
                           "travel", "food", "gaming", "politics", "science",
                           "fashion", "fitness", "movies", "crypto", "cats"};
const char* kScreenNames[] = {"ladygaga", "katyperry", "justinbieber",
                              "barackobama", "rihanna", "taylorswift13",
                              "cristiano", "jtimberlake", "kimkardashian",
                              "elonmusk"};
const char* kSources[] = {
    "<a href=\\\"http://twitter.com/download/iphone\\\">Twitter for iPhone</a>",
    "<a href=\\\"http://twitter.com/download/android\\\">Twitter for Android</a>",
    "<a href=\\\"https://mobile.twitter.com\\\">Twitter Web App</a>",
    "<a href=\\\"https://about.twitter.com/products/tweetdeck\\\">TweetDeck</a>"};
const char* kLangs[] = {"en", "es", "ja", "pt", "ar", "fr", "de", "ko"};
const char* kWords[] = {"just", "really", "today", "love", "this", "new",
                        "time", "people", "know", "think", "good", "going",
                        "world", "life", "never", "happy"};

std::string TweetText(Random& rng) {
  int n = static_cast<int>(rng.Range(4, 18));
  std::string out;
  for (int i = 0; i < n; i++) {
    if (!out.empty()) out.push_back(' ');
    out.append(kWords[rng.Uniform(16)]);
  }
  return out;
}

// Twitter API created_at format: "Mon Jun 01 12:34:56 +0000 2020".
std::string CreatedAt(Random& rng, int year) {
  static const char* kDays[] = {"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"};
  static const char* kMonths[] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                  "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
  int month = static_cast<int>(rng.Range(0, 11));
  int day = static_cast<int>(rng.Range(1, 28));
  int64_t days = DaysFromCivil(year, month + 1, day);
  int weekday = static_cast<int>(((days % 7) + 11) % 7);  // 1970-01-01 was Thu
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s %s %02d %02d:%02d:%02d +0000 %04d",
                kDays[weekday], kMonths[month], day,
                static_cast<int>(rng.Range(0, 23)),
                static_cast<int>(rng.Range(0, 59)),
                static_cast<int>(rng.Range(0, 59)), year);
  return buf;
}

}  // namespace

std::vector<std::string> GenerateTwitter(const TwitterOptions& options) {
  Random rng(options.seed);
  std::vector<std::string> docs;
  docs.reserve(options.num_tweets);
  const size_t num_users = std::max<size_t>(64, options.num_tweets / 20);
  ZipfGenerator user_zipf(num_users, 0.95);
  ZipfGenerator tag_zipf(16, 0.9);
  ZipfGenerator mention_zipf(10, 0.9);

  int64_t next_id = 1000000;
  for (size_t i = 0; i < options.num_tweets; i++) {
    int64_t id = next_id;
    next_id += static_cast<int64_t>(rng.Range(1, 1000));
    int year = options.changing_schema
                   ? 2006 + static_cast<int>(i * 15 / options.num_tweets)
                   : 2020;

    // Delete records have a completely different structure (§6.3 query 2).
    if (rng.Chance(options.delete_fraction)) {
      int64_t user = static_cast<int64_t>(user_zipf.Next(rng));
      docs.push_back(R"({"delete":{"status":{"id":)" + std::to_string(id) +
                     R"(,"user_id":)" + std::to_string(user) +
                     R"(},"timestamp_ms":")" +
                     std::to_string(1590969600000LL + static_cast<int64_t>(i)) +
                     R"("}})");
      continue;
    }

    int64_t user = static_cast<int64_t>(user_zipf.Next(rng));
    std::string doc = "{";
    doc += R"("created_at":")" + CreatedAt(rng, year) + R"(",)";
    doc += R"("id":)" + std::to_string(id) + ",";
    doc += R"("text":")" + TweetText(rng) + R"(",)";
    doc += R"("user":{"id":)" + std::to_string(user) + R"(,"name":")" +
           rng.NextString(4, 12) + R"(","screen_name":"user)" +
           std::to_string(user) + R"(","followers_count":)" +
           std::to_string(rng.Uniform(1000000)) + R"(,"friends_count":)" +
           std::to_string(rng.Uniform(5000)) + R"(,"verified":)" +
           (rng.Chance(0.02) ? "true" : "false") + "}";

    // Era-gated fields (§2.2: reply 2007, retweet 2009, geo 2010, entities
    // 2010+, lang/favorites 2012+, source always).
    doc += R"(,"source":")" + std::string(kSources[rng.Uniform(4)]) + R"(")";
    if (year >= 2007) {
      if (rng.Chance(0.25)) {
        doc += R"(,"in_reply_to_status_id":)" +
               std::to_string(id - static_cast<int64_t>(rng.Range(1, 100000)));
      } else {
        doc += R"(,"in_reply_to_status_id":null)";
      }
    }
    if (year >= 2009) {
      doc += R"(,"retweet_count":)" + std::to_string(rng.Uniform(10000));
    }
    if (year >= 2010) {
      if (rng.Chance(0.1)) {
        char geo[96];
        std::snprintf(geo, sizeof(geo),
                      ",\"geo\":{\"coordinates\":[%.4f,%.4f],\"type\":\"Point\"}",
                      -90.0 + rng.NextDouble() * 180, -180.0 + rng.NextDouble() * 360);
        doc += geo;
      } else {
        doc += R"(,"geo":null)";
      }
      // entities: hashtags and user_mentions with varying cardinality.
      std::string hashtags = "[";
      int nh = static_cast<int>(rng.Range(0, 5));
      for (int h = 0; h < nh; h++) {
        if (h) hashtags += ",";
        hashtags += R"({"text":")" + std::string(kHashtags[tag_zipf.Next(rng)]) +
                    R"(","indices":[)" + std::to_string(rng.Uniform(100)) + "," +
                    std::to_string(rng.Uniform(140)) + "]}";
      }
      hashtags += "]";
      std::string mentions = "[";
      int nm = static_cast<int>(rng.Range(0, 3));
      for (int m = 0; m < nm; m++) {
        if (m) mentions += ",";
        mentions += R"({"screen_name":")" +
                    std::string(kScreenNames[mention_zipf.Next(rng)]) +
                    R"(","id":)" + std::to_string(rng.Uniform(100000000)) + "}";
      }
      mentions += "]";
      doc += R"(,"entities":{"hashtags":)" + hashtags + R"(,"user_mentions":)" +
             mentions + "}";
    }
    if (year >= 2012) {
      doc += R"(,"lang":")" + std::string(kLangs[rng.Uniform(8)]) + R"(")";
      doc += R"(,"favorite_count":)" + std::to_string(rng.Uniform(50000));
    }
    doc += "}";
    docs.push_back(std::move(doc));
  }
  return docs;
}

namespace {

using exec::Access;
using exec::AggSpec;
using exec::And;
using exec::ArrayContains;
using exec::ExprPtr;
using exec::IsNotNull;
using exec::QueryContext;
using exec::RowSet;
using exec::Slot;
using exec::ValueType;
using opt::QueryBlock;
using opt::TableRef;
using storage::Relation;

// Marker for tweet documents (every tweet has a user object).
ExprPtr TweetMarker(const char* alias) {
  return IsNotNull(Access(alias, {"user", "id"}, ValueType::kInt));
}

// T1: the most influential users of the day and their tweet volume.
RowSet T1(const Relation& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", &rel, TweetMarker("t")));
  q.GroupBy({Access("t", {"user", "id"}, ValueType::kInt),
             Access("t", {"user", "screen_name"}, ValueType::kString)});
  q.Aggregate(AggSpec::Max(Access("t", {"user", "followers_count"},
                                  ValueType::kInt)));
  q.Aggregate(AggSpec::CountStar());
  q.OrderBy(Slot(2), true);
  q.OrderBy(Slot(0));
  q.Limit(10);
  return q.Execute(ctx);
}

// T2: deletions per user (the structurally-different delete records).
RowSet T2(const Relation& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(TableRef::Rel(
      "d", &rel,
      IsNotNull(Access("d", {"delete", "status", "user_id"}, ValueType::kInt))));
  q.GroupBy({Access("d", {"delete", "status", "user_id"}, ValueType::kInt)});
  q.Aggregate(AggSpec::CountStar());
  q.OrderBy(Slot(1), true);
  q.OrderBy(Slot(0));
  q.Limit(10);
  return q.Execute(ctx);
}

// Array-membership queries: tweets whose array holds an element with the
// needle under `element_key`, by language.
RowSet ArrayQuery(const Relation& rel, QueryContext& ctx,
                  std::initializer_list<std::string_view> array_keys,
                  const char* element_key, const char* needle) {
  QueryBlock q;
  q.AddTable(TableRef::Rel(
      "t", &rel,
      And(TweetMarker("t"),
          ArrayContains("t", array_keys, element_key, needle))));
  q.GroupBy({Access("t", {"lang"}, ValueType::kString)});
  q.Aggregate(AggSpec::CountStar());
  q.Aggregate(AggSpec::Max(Access("t", {"retweet_count"}, ValueType::kInt)));
  q.OrderBy(Slot(1), true);
  q.OrderBy(Slot(0));
  return q.Execute(ctx);
}

// T5: tweet volume and reach per client application.
RowSet T5(const Relation& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(TableRef::Rel("t", &rel, TweetMarker("t")));
  q.GroupBy({Access("t", {"source"}, ValueType::kString)});
  q.Aggregate(AggSpec::CountStar());
  q.Aggregate(AggSpec::Avg(Access("t", {"user", "followers_count"},
                                  ValueType::kInt)));
  q.OrderBy(Slot(1), true);
  q.Limit(5);
  return q.Execute(ctx);
}

}  // namespace

exec::RowSet RunTwitterQuery(int number, const storage::Relation& rel,
                             exec::QueryContext& ctx) {
  switch (number) {
    case 1: return T1(rel, ctx);
    case 2: return T2(rel, ctx);
    case 3:  // mentions of @ladygaga
      return ArrayQuery(rel, ctx, {"entities", "user_mentions"}, "screen_name",
                        "ladygaga");
    case 4:  // tweets tagged #COVID
      return ArrayQuery(rel, ctx, {"entities", "hashtags"}, "text", "COVID");
    case 5: return T5(rel, ctx);
    default: JSONTILES_CHECK(false);
  }
}

const char* TwitterQueryName(int number) {
  static const char* kNames[] = {"",
                                 "T1 most influential users",
                                 "T2 deletions per user",
                                 "T3 mentions of @ladygaga",
                                 "T4 tweets tagged #COVID",
                                 "T5 reach per client"};
  JSONTILES_CHECK(number >= 1 && number <= 5);
  return kNames[number];
}

}  // namespace jsontiles::workload
