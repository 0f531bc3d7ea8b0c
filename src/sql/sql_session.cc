#include "sql/sql_session.h"

#include <cctype>

namespace jsontiles::sql {

namespace {

/// Case-insensitive keyword consumption over a whitespace-tolerant cursor.
void SkipSpace(std::string_view& s) {
  while (!s.empty() &&
         std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
}

bool ConsumeKeyword(std::string_view& s, std::string_view keyword) {
  SkipSpace(s);
  if (s.size() < keyword.size()) return false;
  for (size_t i = 0; i < keyword.size(); i++) {
    if (std::toupper(static_cast<unsigned char>(s[i])) != keyword[i]) {
      return false;
    }
  }
  // Keyword boundary: next char must not extend the identifier.
  if (s.size() > keyword.size() &&
      (std::isalnum(static_cast<unsigned char>(s[keyword.size()])) != 0 ||
       s[keyword.size()] == '_')) {
    return false;
  }
  s.remove_prefix(keyword.size());
  return true;
}

/// Bare or single-quoted group name; empty on parse failure.
std::string ConsumeName(std::string_view& s) {
  SkipSpace(s);
  std::string name;
  if (!s.empty() && s.front() == '\'') {
    size_t end = s.find('\'', 1);
    if (end == std::string_view::npos) return name;
    name.assign(s.substr(1, end - 1));
    s.remove_prefix(end + 1);
    return name;
  }
  while (!s.empty() &&
         (std::isalnum(static_cast<unsigned char>(s.front())) != 0 ||
          s.front() == '_' || s.front() == '-')) {
    name.push_back(s.front());
    s.remove_prefix(1);
  }
  return name;
}

bool AtEnd(std::string_view s) {
  SkipSpace(s);
  return s.empty() || s == ";";
}

}  // namespace

SqlSession::SqlSession(const SqlCatalog* catalog,
                       service::QueryService* service,
                       exec::ExecOptions base_options)
    : catalog_(catalog), service_(service),
      base_options_(std::move(base_options)) {
  if (service_ != nullptr) {
    auto names = service_->GroupNames();
    if (!names.empty()) group_ = names.front();
  }
}

Result<SqlResult> SqlSession::Execute(std::string_view statement) {
  std::string_view cursor = statement;
  if (ConsumeKeyword(cursor, "SET")) {
    if (ConsumeKeyword(cursor, "RESOURCE") && ConsumeKeyword(cursor, "GROUP")) {
      std::string name = ConsumeName(cursor);
      if (name.empty() || !AtEnd(cursor)) {
        return Status::InvalidArgument(
            "expected SET RESOURCE GROUP <name>, got: " +
            std::string(statement));
      }
      if (service_ == nullptr) {
        return Status::Unsupported(
            "SET RESOURCE GROUP requires a query service (session is "
            "ungoverned)");
      }
      if (!service_->HasGroup(name)) {
        return Status::NotFound("resource group '" + name +
                                "' does not exist");
      }
      group_ = name;
      SqlResult result;
      result.column_names.push_back("SET");
      return result;
    }
    return Status::Unsupported("only SET RESOURCE GROUP is supported");
  }
  cursor = statement;
  if (ConsumeKeyword(cursor, "SHOW")) {
    if (ConsumeKeyword(cursor, "RESOURCE") &&
        ConsumeKeyword(cursor, "GROUPS") && AtEnd(cursor)) {
      return ShowResourceGroups();
    }
    return Status::Unsupported("only SHOW RESOURCE GROUPS is supported");
  }

  if (service_ == nullptr) {
    // Ungoverned single-tenant path: one context per statement, kept alive
    // for the result's lifetime.
    ctx_ = std::make_unique<exec::QueryContext>(base_options_);
    return ExecuteSql(statement, *catalog_, *ctx_);
  }

  if (group_.empty()) {
    return Status::InvalidArgument(
        "no resource group selected (SET RESOURCE GROUP <name>)");
  }
  auto admitted = service_->Admit(group_, base_options_);
  JSONTILES_RETURN_NOT_OK(admitted.status());
  service::Admission admission = admitted.MoveValueOrDie();
  // Drop the previous statement's context only after admission: its rows
  // remain valid while we wait in the queue.
  ctx_ = std::make_unique<exec::QueryContext>(admission.options());
  admission.Attach(ctx_.get());
  auto result = ExecuteSql(statement, *catalog_, *ctx_);
  Status cancel_st = ctx_->ConsumeStatus();
  admission.Release();  // slot + reserve returned; ctx_ (arenas) lives on
  // The released context outlives the admission, but its budget parent
  // points into the group, which may be dropped before the next statement —
  // sever the link so a late budget access cannot chase freed memory.
  ctx_->DetachBudgetParent();
  if (result.ok() && !cancel_st.ok()) return cancel_st;
  return result;
}

Result<SqlResult> SqlSession::ShowResourceGroups() {
  if (service_ == nullptr) {
    return Status::Unsupported(
        "SHOW RESOURCE GROUPS requires a query service");
  }
  // A plain context supplies the arena backing the result's strings.
  ctx_ = std::make_unique<exec::QueryContext>(exec::ExecOptions{});
  Arena* arena = ctx_->arena(0);
  SqlResult result;
  result.column_names = {"group",    "running",  "queued",   "concurrency",
                         "quota",    "mem_used", "admitted", "rejected",
                         "timed_out", "cancelled"};
  for (const std::string& name : service_->GroupNames()) {
    auto snap = service_->Snapshot(name);
    if (!snap.ok()) continue;  // dropped between listing and snapshot
    const service::GroupSnapshot& g = snap.ValueOrDie();
    exec::Row row;
    row.push_back(exec::Value::String(arena->CopyString(name)));
    row.push_back(exec::Value::Int(static_cast<int64_t>(g.running)));
    row.push_back(exec::Value::Int(static_cast<int64_t>(g.queued)));
    row.push_back(exec::Value::Int(static_cast<int64_t>(g.concurrency)));
    row.push_back(exec::Value::Int(static_cast<int64_t>(g.mem_quota_bytes)));
    row.push_back(exec::Value::Int(static_cast<int64_t>(g.mem_used_bytes)));
    row.push_back(exec::Value::Int(static_cast<int64_t>(g.admitted)));
    row.push_back(exec::Value::Int(static_cast<int64_t>(g.rejected)));
    row.push_back(exec::Value::Int(static_cast<int64_t>(g.timed_out)));
    row.push_back(exec::Value::Int(static_cast<int64_t>(g.cancelled)));
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace jsontiles::sql
