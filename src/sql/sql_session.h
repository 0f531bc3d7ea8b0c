// A SQL session over the multi-tenant query service.
//
// SqlSession is what one connected client holds: it remembers the client's
// resource group (`SET RESOURCE GROUP <name>`), routes every statement
// through QueryService admission — blocking in the group's queue when its
// concurrency slots are taken — and keeps the last statement's QueryContext
// alive so result rows (which reference the context's arenas) stay valid
// until the next Execute. Session statements:
//
//   SET RESOURCE GROUP <name>   switch the session's group (must exist)
//   SHOW RESOURCE GROUPS        one row per group: admission state + totals
//
// Everything else goes to sql::ExecuteSql under the current group's
// admission, including EXPLAIN [ANALYZE] — the EXPLAIN ANALYZE footer then
// carries the group name and queue wait. A session without a service (null)
// executes directly, ungoverned — the single-tenant embedding.

#ifndef JSONTILES_SQL_SQL_SESSION_H_
#define JSONTILES_SQL_SQL_SESSION_H_

#include <memory>
#include <string>
#include <string_view>

#include "service/query_service.h"
#include "sql/sql_parser.h"

namespace jsontiles::sql {

class SqlSession {
 public:
  /// `catalog` and `service` are borrowed and must outlive the session.
  /// `service` may be null: statements then run directly with
  /// `base_options`, and SET RESOURCE GROUP is rejected.
  SqlSession(const SqlCatalog* catalog, service::QueryService* service,
             exec::ExecOptions base_options = {});

  /// Execute one statement. Result rows stay valid until the next Execute
  /// (they reference the session-held query context). Admission failures
  /// (queue full, timeout) and runaway cancellations surface as the clean
  /// ResourceExhausted / Cancelled statuses of the service layer.
  Result<SqlResult> Execute(std::string_view statement);

  /// Group used for the next governed statement.
  const std::string& resource_group() const { return group_; }
  void set_resource_group(std::string group) { group_ = std::move(group); }

 private:
  Result<SqlResult> ShowResourceGroups();

  const SqlCatalog* catalog_;
  service::QueryService* service_;
  exec::ExecOptions base_options_;
  std::string group_;

  /// Context of the last statement; owns the arenas its result references.
  /// The admission slot is returned before Execute returns — only the
  /// context (memory) lingers, never the concurrency slot.
  std::unique_ptr<exec::QueryContext> ctx_;
};

}  // namespace jsontiles::sql

#endif  // JSONTILES_SQL_SQL_SESSION_H_
