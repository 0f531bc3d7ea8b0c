// Synthetic Yelp dataset and the five analytical queries of paper §6.2.
//
// Replicates the structural properties of the Yelp Open Dataset: five
// document types (business, review, user, tip, checkin) combined into one
// stream with realistic key sets, nested attributes, numeric-string values
// ("stars": 4.5 appears as a JSON number; many attribute values are strings),
// timestamps, and Zipf-skewed business popularity.

#ifndef JSONTILES_WORKLOAD_YELP_H_
#define JSONTILES_WORKLOAD_YELP_H_

#include <string>
#include <vector>

#include "exec/scan.h"
#include "opt/query.h"
#include "storage/relation.h"

namespace jsontiles::workload {

struct YelpOptions {
  size_t num_business = 400;
  uint64_t seed = 20191120;
  /// Review/user/tip/checkin counts scale with businesses, following the
  /// real dataset's ratios (roughly 1 : 35 : 10 : 6 : 0.9).
};

std::vector<std::string> GenerateYelp(const YelpOptions& options);

/// The five Yelp queries (Table 2). The source may be a plain or a sharded
/// relation (implicit TableSource).
exec::RowSet RunYelpQuery(int number, const opt::TableSource& rel,
                          exec::QueryContext& ctx);
const char* YelpQueryName(int number);

}  // namespace jsontiles::workload

#endif  // JSONTILES_WORKLOAD_YELP_H_
