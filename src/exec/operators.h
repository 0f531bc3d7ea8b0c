// Physical operators above the scan: filter, project, hash join, hash
// aggregation, sort, limit. Operators exchange whole flat row sets
// (exec/row_set.h: one contiguous row-major Value array per RowSet, rows
// read through views), so no operator allocates per row: filter compacts in
// place, project writes a pre-sized output, join appends probe and build
// ranges, sort permutes indices and gathers once, limit truncates. Joins and
// aggregations parallelize over input chunks.

#ifndef JSONTILES_EXEC_OPERATORS_H_
#define JSONTILES_EXEC_OPERATORS_H_

#include <vector>

#include "exec/expression.h"
#include "exec/scan.h"

namespace jsontiles::exec {

RowSet FilterExec(RowSet in, const ExprPtr& predicate, QueryContext& ctx);

RowSet ProjectExec(const RowSet& in, const std::vector<ExprPtr>& exprs,
                   QueryContext& ctx);

struct AggSpec {
  enum class Kind : uint8_t {
    kCountStar,
    kCount,   // non-null arguments
    kSum,
    kAvg,
    kMin,
    kMax,
    kCountDistinct,
  };
  Kind kind = Kind::kCountStar;
  ExprPtr arg;  // null for kCountStar

  static AggSpec CountStar() { return AggSpec{Kind::kCountStar, nullptr}; }
  static AggSpec Count(ExprPtr e) { return AggSpec{Kind::kCount, std::move(e)}; }
  static AggSpec Sum(ExprPtr e) { return AggSpec{Kind::kSum, std::move(e)}; }
  static AggSpec Avg(ExprPtr e) { return AggSpec{Kind::kAvg, std::move(e)}; }
  static AggSpec Min(ExprPtr e) { return AggSpec{Kind::kMin, std::move(e)}; }
  static AggSpec Max(ExprPtr e) { return AggSpec{Kind::kMax, std::move(e)}; }
  static AggSpec CountDistinct(ExprPtr e) {
    return AggSpec{Kind::kCountDistinct, std::move(e)};
  }
};

/// Hash group-by into a flat group table (exec/agg_state.h). Output rows are
/// [group keys..., aggregate values...], in order of first appearance in
/// `in` for every thread count; under a memory limit the aggregation spills
/// by key hash and emits partition by partition (same groups, no promised
/// order). With an empty `group_by`, emits exactly one (global) row even
/// for empty input (SQL semantics: COUNT(*) of nothing is 0, SUM is null).
RowSet AggregateExec(const RowSet& in, const std::vector<ExprPtr>& group_by,
                     const std::vector<AggSpec>& aggs, QueryContext& ctx);

enum class JoinType : uint8_t { kInner, kLeft, kSemi, kAnti };

/// Hash join. Output rows are [probe row..., build row...] for inner/left
/// (build columns null for unmatched left rows); semi/anti emit the probe
/// row only. `residual` (may be null) is evaluated on the combined row; for
/// semi/anti it decides whether a key match counts. Null keys never match.
///
/// The hash table goes on whichever input has fewer rows — the build input
/// on a tie — and the other input streams through it. The table is flat
/// (keys in one array, hash chains in `uint32_t` head/next arrays; DESIGN.md
/// §8) with no per-row allocation. Either way the output follows probe
/// order, and each probe row's matches follow build order. Under a memory
/// limit the join spills by key hash (same multiset, partition-grouped
/// order). An input of 2^32 - 1 or more rows cancels the query with
/// ResourceExhausted. An empty probe side returns at once without building.
/// EXPLAIN ANALYZE reports `build_rows`, `probe_rows` and `table_rows`, the
/// rows of the input that was hashed.
RowSet HashJoinExec(const RowSet& build, const RowSet& probe,
                    const std::vector<ExprPtr>& build_keys,
                    const std::vector<ExprPtr>& probe_keys, JoinType type,
                    const ExprPtr& residual, QueryContext& ctx);

struct SortKey {
  ExprPtr expr;
  bool descending = false;
};

RowSet SortExec(RowSet in, const std::vector<SortKey>& keys, QueryContext& ctx);

/// The first `limit` rows of `in`; records rows in/out into ctx.profile (if
/// set).
RowSet LimitExec(RowSet in, size_t limit, QueryContext& ctx);

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_OPERATORS_H_
