// Cardinality estimation for JSON scans and joins (paper §4.6).
//
// With JSON tiles, per-key frequency counters answer "how many tuples contain
// this key path" (the `replies is not null` example) and HyperLogLog sketches
// provide distinct counts for join-size estimation. Filter selectivity comes
// from documents sampled statically at plan time: a stride over the rows
// and, when it finds no document with the required paths, a resample of the
// tiles that may hold them. The scan itself reads the sample, as a row-subset
// scan, so sampled values come from tile columns wherever tiles hold them
// and the planner never reads a storage format. Modes without tile
// statistics take key presence from the same sample and assume unique join
// keys — precisely the information gap the paper's Q18 discussion
// attributes to Sinew.

#ifndef JSONTILES_OPT_CARDINALITY_H_
#define JSONTILES_OPT_CARDINALITY_H_

#include <string>

#include "exec/scan.h"
#include "util/status.h"

namespace jsontiles::opt {

/// Estimated output rows of the scan `spec` (plain, sharded or side
/// relation): rows that have every null-rejecting path and pass the filter.
/// The sample runs as row-subset scans in their own single-thread context;
/// the first failing sample scan's Status is returned.
Result<double> EstimateScanCardinality(const exec::ScanSpec& spec);

/// Distinct values of the join key `encoded_path` in the output of `spec`,
/// estimated at `scan_card` rows. A relation with tile statistics answers
/// from its HLL sketches, otherwise the key is assumed unique (the classic
/// fallback). Over a sharded relation hash-routed on exactly this path,
/// equal keys never straddle shards, so per-shard counts sum; otherwise the
/// same value may recur in every shard and the max per-shard count is the
/// sound lower estimate. Row-set scans return `scan_card` as is.
double EstimateJoinKeyDistinct(const exec::ScanSpec& spec,
                               const std::string& encoded_path,
                               double scan_card);

}  // namespace jsontiles::opt

#endif  // JSONTILES_OPT_CARDINALITY_H_
