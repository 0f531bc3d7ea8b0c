// A SQL subset front-end over the query engine — the interface the paper's
// system exposes (§4.1/§4.2): PostgreSQL-style JSON accesses with cast
// push-down, evaluated through JSON tiles.
//
// Supported grammar (one SELECT block; compose blocks in C++ for nested
// queries):
//
//   SELECT item [, item]*
//   FROM table alias [, table alias]*
//   [WHERE expr] [GROUP BY expr [, expr]*] [HAVING expr]
//   [ORDER BY ord [, ord]*] [LIMIT n]
//
//   item  := expr [AS name]
//   expr  := accesses `alias->'k'->>'k2'::type`, literals (42, 1.5, 'text',
//            DATE '1998-12-01', TRUE, NULL), + - * / %, comparisons,
//            AND/OR/NOT, [NOT] LIKE, [NOT] IN (...), BETWEEN .. AND ..,
//            IS [NOT] NULL, CASE WHEN .. THEN .. [ELSE ..] END,
//            EXTRACT(YEAR FROM e), SUBSTRING(e FROM i FOR n),
//            CONTAINS(alias->'array', 'member', 'value'),
//            SUM/AVG/MIN/MAX(e), COUNT(*), COUNT([DISTINCT] e)
//   ord   := ordinal | alias-name | expr, each [ASC|DESC]
//   type  := BIGINT/INT/INTEGER, FLOAT/DOUBLE/DECIMAL(as float), NUMERIC,
//            TEXT/VARCHAR, TIMESTAMP/DATE, BOOL
//
// Binding performs the paper's §4.2 rewrite automatically: single-table
// WHERE conjuncts are pushed into the scans, equality conjuncts between two
// tables become join edges (ordered by the cost-based optimizer), and the
// remainder runs as a post-join predicate.

#ifndef JSONTILES_SQL_SQL_PARSER_H_
#define JSONTILES_SQL_SQL_PARSER_H_

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "exec/scan.h"
#include "obs/plan_profile.h"
#include "opt/query.h"
#include "storage/relation.h"
#include "util/status.h"

namespace jsontiles::sql {

struct SqlCatalog {
  std::map<std::string, const storage::Relation*> tables;
  /// Sharded tables, by the same namespace as `tables` (a name must not
  /// appear in both). Scans iterate shards with shard-level pruning; EXPLAIN
  /// ANALYZE reports shards scanned/pruned in the footer.
  std::map<std::string, const storage::ShardedRelation*> sharded_tables;
  /// Distributed runtime (exec/exchange.h; a dist::Cluster). Not owned.
  /// When set, it is attached to the QueryContext for each statement:
  /// sharded scans of relations the runtime serves execute on the cluster's
  /// worker processes, and eligible aggregates push partials down.
  exec::DistRuntime* dist = nullptr;
};

struct SqlResult {
  exec::RowSet rows;
  std::vector<std::string> column_names;
  /// Set for EXPLAIN ANALYZE statements: the per-operator profile of the
  /// executed plan. The rows then hold the rendered plan, one text line per
  /// row, in a single "QUERY PLAN" column (PostgreSQL-style).
  std::shared_ptr<obs::PlanProfile> profile;
};

/// Parse, bind, optimize and execute one SELECT statement. A statement may
/// be prefixed with EXPLAIN ANALYZE — the query still executes fully, but
/// the result is the annotated operator tree (see SqlResult::profile) — or
/// with plain EXPLAIN, which binds and plans only: the result holds the
/// optimizer's chosen join order and cardinality estimates, one text line
/// per row, without executing the query.
Result<SqlResult> ExecuteSql(std::string_view statement,
                             const SqlCatalog& catalog,
                             exec::QueryContext& ctx);

/// Render a result like psql (for examples/tools).
std::string FormatSqlResult(const SqlResult& result, size_t max_rows = 50);

}  // namespace jsontiles::sql

#endif  // JSONTILES_SQL_SQL_PARSER_H_
