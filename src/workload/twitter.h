// Synthetic Twitter stream and the five queries of paper §6.3 (Table 3),
// including the "Changing" schema-evolution variant (Table 4). Over a
// relation loaded with array extraction (Tiles-*), the scan answers T3/T4's
// CONTAINS from the extracted side relations.
//
// Replicates the structure the algorithms care about: tweet objects with a
// mandatory nested user, optional reply/retweet/geo fields added over time
// (the running example of §2.2), delete records with a completely different
// shape, Zipf-skewed users and hashtags (with "COVID" and the @ladygaga
// mention among the heavy hitters), and entities arrays whose cardinality
// varies per tweet.

#ifndef JSONTILES_WORKLOAD_TWITTER_H_
#define JSONTILES_WORKLOAD_TWITTER_H_

#include <string>
#include <vector>

#include "exec/scan.h"
#include "opt/query.h"
#include "storage/relation.h"

namespace jsontiles::workload {

struct TwitterOptions {
  size_t num_tweets = 20000;
  uint64_t seed = 20200601;
  /// false: all tweets use the modern (2020) schema, like one day of the
  /// stream grab. true: tweets span 2006-2020 and gain fields era by era
  /// (the "Changing" data set of Table 4).
  bool changing_schema = false;
  /// Fraction of stream records that are deletions.
  double delete_fraction = 0.07;
};

std::vector<std::string> GenerateTwitter(const TwitterOptions& options);

/// The five Twitter queries.
exec::RowSet RunTwitterQuery(int number, const storage::Relation& rel,
                             exec::QueryContext& ctx);
const char* TwitterQueryName(int number);

}  // namespace jsontiles::workload

#endif  // JSONTILES_WORKLOAD_TWITTER_H_
