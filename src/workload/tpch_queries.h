// The 22 TPC-H queries over the JSONized combined relation (paper §6.1,
// Table 1).
//
// Queries are expressed against the single combined relation: a "table scan"
// is a scan whose filter requires that table's key (IS NOT NULL on the
// marker path), which is null-rejecting and therefore drives tile skipping.
// Queries with correlated subqueries are hand-decorrelated into staged query
// blocks plus semi/anti joins — the standard unnesting a production
// optimizer performs.

#ifndef JSONTILES_WORKLOAD_TPCH_QUERIES_H_
#define JSONTILES_WORKLOAD_TPCH_QUERIES_H_

#include "exec/scan.h"
#include "opt/query.h"
#include "storage/relation.h"

namespace jsontiles::workload {

/// Execute TPC-H query `number` (1-22) against the combined relation. The
/// source may be a plain or a sharded relation (implicit TableSource).
exec::RowSet RunTpchQuery(int number, const opt::TableSource& rel,
                          exec::QueryContext& ctx);

}  // namespace jsontiles::workload

#endif  // JSONTILES_WORKLOAD_TPCH_QUERIES_H_
