// Query blocks: declarative select-project-join-aggregate units with
// automatic access push-down (§4.2), cast rewriting (§4.3), null-rejection
// analysis for tile skipping (§4.8) and cost-based join ordering (§4.6).
//
// A block owns a set of tables (relations or previously-materialized row
// sets), inner equi-join edges, optional grouping/aggregation, having,
// ordering and limit. Complex queries (correlated subqueries, semi/anti
// joins) compose multiple blocks plus the bare operators of exec/operators.h,
// mirroring how a decorrelating optimizer would stage them.

#ifndef JSONTILES_OPT_QUERY_H_
#define JSONTILES_OPT_QUERY_H_

#include <string>
#include <vector>

#include "exec/operators.h"
#include "exec/scan.h"
#include "storage/relation.h"
#include "storage/shard.h"

namespace jsontiles::opt {

/// A scan source that is either a plain relation or a sharded relation.
/// Implicitly constructible from both, so workload helpers taking
/// `const TableSource&` accept either storage form at the call site.
struct TableSource {
  const storage::Relation* relation = nullptr;
  const storage::ShardedRelation* sharded = nullptr;

  TableSource(const storage::Relation& rel) : relation(&rel) {}
  TableSource(const storage::ShardedRelation& sh) : sharded(&sh) {}
};

/// Plain EXPLAIN output: the optimizer's chosen join order plus the
/// cardinality estimates that drove it, produced without executing.
struct PlanEstimate {
  /// Table aliases in the chosen (left-deep) join order.
  std::vector<std::string> join_order;
  /// Estimated scan output rows per table, aligned with join_order.
  std::vector<double> table_rows;
  /// C_out of the chosen order (sum of intermediate result cardinalities).
  /// Only set when the bitmask-DP search ran (more than one table); 0
  /// otherwise.
  double estimated_cost = 0;
};

struct TableRef {
  std::string alias;
  const storage::Relation* relation = nullptr;
  /// Alternative source: a sharded relation (scanned shard-by-shard with
  /// shard-level pruning; see exec::ScanSpec::sharded).
  const storage::ShardedRelation* sharded = nullptr;
  /// Alternative source: a materialized row set with named columns.
  const exec::RowSet* rowset = nullptr;
  std::vector<std::string> rowset_columns;
  /// Single-table predicate (over this table's accesses); pushed into the
  /// scan.
  exec::ExprPtr filter;

  static TableRef Rel(std::string alias, const storage::Relation* relation,
                      exec::ExprPtr filter = nullptr) {
    TableRef t;
    t.alias = std::move(alias);
    t.relation = relation;
    t.filter = std::move(filter);
    return t;
  }
  static TableRef Sharded(std::string alias,
                          const storage::ShardedRelation* sharded,
                          exec::ExprPtr filter = nullptr) {
    TableRef t;
    t.alias = std::move(alias);
    t.sharded = sharded;
    t.filter = std::move(filter);
    return t;
  }
  /// Either a plain or a sharded scan, per the source's form.
  static TableRef Src(std::string alias, const TableSource& source,
                      exec::ExprPtr filter = nullptr) {
    return source.relation != nullptr
               ? Rel(std::move(alias), source.relation, std::move(filter))
               : Sharded(std::move(alias), source.sharded, std::move(filter));
  }
  static TableRef Rows(std::string alias, const exec::RowSet* rowset,
                       std::vector<std::string> columns,
                       exec::ExprPtr filter = nullptr) {
    TableRef t;
    t.alias = std::move(alias);
    t.rowset = rowset;
    t.rowset_columns = std::move(columns);
    t.filter = std::move(filter);
    return t;
  }
};

class QueryBlock {
 public:
  QueryBlock& AddTable(TableRef table);
  /// Inner equi-join edge `left = right` (each side's accesses must belong to
  /// one table). `residual` is an extra condition evaluated on the joined row.
  QueryBlock& AddJoin(exec::ExprPtr left, exec::ExprPtr right,
                      exec::ExprPtr residual = nullptr);
  /// Cross-table predicate applied after all joins (access-bearing).
  QueryBlock& Where(exec::ExprPtr predicate);
  QueryBlock& GroupBy(std::vector<exec::ExprPtr> keys);
  QueryBlock& Aggregate(exec::AggSpec agg);
  /// Predicate over the aggregate output: slots [group keys..., aggregates...].
  QueryBlock& Having(exec::ExprPtr predicate);
  /// Output expressions for non-aggregating blocks (access-bearing).
  QueryBlock& Select(std::vector<exec::ExprPtr> projections);
  /// Over the block's output slots.
  QueryBlock& OrderBy(exec::ExprPtr key, bool descending = false);
  QueryBlock& Limit(size_t n);

  /// Plan and run the block. A failure anywhere, plan-time sampling
  /// included, cancels `ctx` with its Status and returns no rows.
  exec::RowSet Execute(exec::QueryContext& ctx);

  /// Plan without executing: access push-down, per-scan cardinality
  /// estimation and cost-based join ordering (plain EXPLAIN). Unlike
  /// Execute, estimates are produced even for single-table blocks. A
  /// failing sample scan returns its Status.
  Result<PlanEstimate> Explain();

 private:
  struct PlanState;
  /// Shared planning prefix: the per-table scan specs (access push-down,
  /// null-rejection analysis), cardinality estimation (always when
  /// `estimate_all`, else only when a join order must be chosen) and the
  /// join-order search.
  Status BuildPlan(bool estimate_all, PlanState* state);

  struct JoinEdge {
    exec::ExprPtr left;
    exec::ExprPtr right;
    exec::ExprPtr residual;
  };

  std::vector<TableRef> tables_;
  std::vector<JoinEdge> joins_;
  exec::ExprPtr where_;
  std::vector<exec::ExprPtr> group_by_;
  std::vector<exec::AggSpec> aggs_;
  exec::ExprPtr having_;
  std::vector<exec::ExprPtr> projections_;
  std::vector<exec::SortKey> order_by_;
  size_t limit_ = 0;
  bool has_limit_ = false;
};

/// The single value of a 1x1 result (e.g. a decorrelated scalar subquery).
exec::Value ScalarResult(const exec::RowSet& rows);

}  // namespace jsontiles::opt

#endif  // JSONTILES_OPT_QUERY_H_
