#include "sql/sql_parser.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>

#include "exec/operators.h"
#include "obs/obs.h"
#include "sql/sql_lexer.h"
#include "tiles/keypath.h"

namespace jsontiles::sql {

namespace {

using exec::AggSpec;
using exec::Expr;
using exec::ExprKind;
using exec::ExprPtr;
using exec::RowSet;
using exec::Value;
using exec::ValueType;

// Aggregates are parsed into a side list; the expression tree holds a marker
// slot reference in their place, resolved after aggregation.
constexpr int kAggMarkerBase = 1 << 20;

struct SelectItem {
  ExprPtr expr;
  std::string alias;  // may be empty
};

struct OrderItem {
  // Exactly one of: ordinal (1-based), alias, expr.
  int ordinal = 0;
  std::string alias;
  ExprPtr expr;
  bool descending = false;
};

struct ParsedQuery {
  std::vector<SelectItem> select;
  std::vector<std::pair<std::string, std::string>> tables;  // name, alias
  ExprPtr where;
  std::vector<ExprPtr> group_by;
  ExprPtr having;
  std::vector<OrderItem> order_by;
  size_t limit = 0;
  bool has_limit = false;
  std::vector<AggSpec> aggs;
};

class Parser {
 public:
  explicit Parser(std::vector<SqlToken> tokens) : tokens_(std::move(tokens)) {}

  Status Parse(ParsedQuery* out) {
    query_ = out;
    JSONTILES_RETURN_NOT_OK(ExpectKeyword("SELECT"));
    // Select list.
    while (true) {
      SelectItem item;
      JSONTILES_RETURN_NOT_OK(ParseExpr(&item.expr));
      if (AcceptKeyword("AS")) {
        if (Peek().type != TokenType::kIdentifier) {
          return Error("alias expected after AS");
        }
        item.alias = Next().text;
      }
      query_->select.push_back(std::move(item));
      if (!Accept(TokenType::kComma)) break;
    }
    JSONTILES_RETURN_NOT_OK(ExpectKeyword("FROM"));
    while (true) {
      if (Peek().type != TokenType::kIdentifier) {
        return Error("table name expected");
      }
      std::string name = Next().text;
      std::string alias = name;
      if (Peek().type == TokenType::kIdentifier) alias = Next().text;
      query_->tables.emplace_back(std::move(name), std::move(alias));
      if (!Accept(TokenType::kComma)) break;
    }
    if (AcceptKeyword("WHERE")) {
      JSONTILES_RETURN_NOT_OK(ParseExpr(&query_->where));
    }
    if (AcceptKeyword("GROUP")) {
      JSONTILES_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        ExprPtr e;
        JSONTILES_RETURN_NOT_OK(ParseExpr(&e));
        query_->group_by.push_back(std::move(e));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("HAVING")) {
      JSONTILES_RETURN_NOT_OK(ParseExpr(&query_->having));
    }
    if (AcceptKeyword("ORDER")) {
      JSONTILES_RETURN_NOT_OK(ExpectKeyword("BY"));
      while (true) {
        OrderItem item;
        if (Peek().type == TokenType::kInteger) {
          item.ordinal = static_cast<int>(Next().int_value);
        } else if (Peek().type == TokenType::kIdentifier &&
                   !IsAccessChainStart()) {
          item.alias = Next().text;
        } else {
          JSONTILES_RETURN_NOT_OK(ParseExpr(&item.expr));
        }
        if (AcceptKeyword("DESC")) {
          item.descending = true;
        } else {
          AcceptKeyword("ASC");
        }
        query_->order_by.push_back(std::move(item));
        if (!Accept(TokenType::kComma)) break;
      }
    }
    if (AcceptKeyword("LIMIT")) {
      if (Peek().type != TokenType::kInteger) {
        return Error("integer expected after LIMIT");
      }
      query_->limit = static_cast<size_t>(Next().int_value);
      query_->has_limit = true;
    }
    if (Peek().type != TokenType::kEnd) return Error("trailing tokens");
    return Status::OK();
  }

 private:
  const SqlToken& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const SqlToken& Next() { return tokens_[pos_++]; }
  bool Accept(TokenType type) {
    if (Peek().type != type) return false;
    pos_++;
    return true;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (Peek().type != TokenType::kKeyword || Peek().text != kw) return false;
    pos_++;
    return true;
  }
  bool AcceptOperator(std::string_view op) {
    if (Peek().type != TokenType::kOperator || Peek().text != op) return false;
    pos_++;
    return true;
  }
  Status ExpectKeyword(std::string_view kw) {
    if (!AcceptKeyword(kw)) {
      return Error(std::string("expected ") + std::string(kw));
    }
    return Status::OK();
  }
  Status Expect(TokenType type, const char* what) {
    if (!Accept(type)) return Error(std::string("expected ") + what);
    return Status::OK();
  }
  Status Error(const std::string& message) const {
    return Status::ParseError(message + " at offset " +
                              std::to_string(Peek().offset));
  }

  // Is the current identifier the start of a JSON access chain?
  bool IsAccessChainStart() const {
    return Peek().type == TokenType::kIdentifier &&
           (Peek(1).type == TokenType::kArrow ||
            Peek(1).type == TokenType::kArrowText);
  }

  Status ParseType(ValueType* out) {
    if (Peek().type != TokenType::kIdentifier &&
        !(Peek().type == TokenType::kKeyword &&
          (Peek().text == "DATE" || Peek().text == "TIMESTAMP"))) {
      return Error("type name expected after ::");
    }
    std::string name = Next().text;
    std::transform(name.begin(), name.end(), name.begin(), ::tolower);
    if (name == "bigint" || name == "int" || name == "integer") {
      *out = ValueType::kInt;
    } else if (name == "float" || name == "double" || name == "decimal" ||
               name == "real") {
      *out = ValueType::kFloat;
    } else if (name == "numeric") {
      *out = ValueType::kNumeric;
    } else if (name == "text" || name == "varchar" || name == "string") {
      *out = ValueType::kString;
    } else if (name == "timestamp" || name == "date") {
      *out = ValueType::kTimestamp;
    } else if (name == "bool" || name == "boolean") {
      *out = ValueType::kBool;
    } else {
      return Error("unknown type '" + name + "'");
    }
    return Status::OK();
  }

  // expr := or
  Status ParseExpr(ExprPtr* out) { return ParseOr(out); }

  Status ParseOr(ExprPtr* out) {
    JSONTILES_RETURN_NOT_OK(ParseAnd(out));
    while (AcceptKeyword("OR")) {
      ExprPtr rhs;
      JSONTILES_RETURN_NOT_OK(ParseAnd(&rhs));
      *out = exec::Or(*out, rhs);
    }
    return Status::OK();
  }

  Status ParseAnd(ExprPtr* out) {
    JSONTILES_RETURN_NOT_OK(ParseNot(out));
    while (AcceptKeyword("AND")) {
      ExprPtr rhs;
      JSONTILES_RETURN_NOT_OK(ParseNot(&rhs));
      *out = exec::And(*out, rhs);
    }
    return Status::OK();
  }

  Status ParseNot(ExprPtr* out) {
    if (AcceptKeyword("NOT")) {
      ExprPtr inner;
      JSONTILES_RETURN_NOT_OK(ParseNot(&inner));
      *out = exec::Not(inner);
      return Status::OK();
    }
    return ParsePredicate(out);
  }

  Status ParsePredicate(ExprPtr* out) {
    ExprPtr lhs;
    JSONTILES_RETURN_NOT_OK(ParseAdditive(&lhs));
    // IS [NOT] NULL
    if (AcceptKeyword("IS")) {
      bool negated = AcceptKeyword("NOT");
      JSONTILES_RETURN_NOT_OK(ExpectKeyword("NULL"));
      *out = negated ? exec::IsNotNull(lhs) : exec::IsNull(lhs);
      return Status::OK();
    }
    bool negated = AcceptKeyword("NOT");
    if (AcceptKeyword("LIKE")) {
      if (Peek().type != TokenType::kString) {
        return Error("string pattern expected after LIKE");
      }
      *out = exec::Like(lhs, Next().text, negated);
      return Status::OK();
    }
    if (AcceptKeyword("BETWEEN")) {
      ExprPtr lo, hi;
      JSONTILES_RETURN_NOT_OK(ParseAdditive(&lo));
      JSONTILES_RETURN_NOT_OK(ExpectKeyword("AND"));
      JSONTILES_RETURN_NOT_OK(ParseAdditive(&hi));
      ExprPtr between = exec::Between(lhs, lo, hi);
      *out = negated ? exec::Not(between) : between;
      return Status::OK();
    }
    if (AcceptKeyword("IN")) {
      JSONTILES_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "("));
      std::vector<std::string> strings;
      std::vector<int64_t> ints;
      bool is_string = false;
      while (true) {
        if (Peek().type == TokenType::kString) {
          is_string = true;
          strings.push_back(Next().text);
        } else if (Peek().type == TokenType::kInteger) {
          ints.push_back(Next().int_value);
        } else {
          return Error("literal expected in IN list");
        }
        if (!Accept(TokenType::kComma)) break;
      }
      JSONTILES_RETURN_NOT_OK(Expect(TokenType::kRightParen, ")"));
      ExprPtr in = is_string ? exec::InList(lhs, std::move(strings))
                             : exec::InListInt(lhs, std::move(ints));
      *out = negated ? exec::Not(in) : in;
      return Status::OK();
    }
    if (negated) return Error("expected LIKE / BETWEEN / IN after NOT");
    // Comparison?
    if (Peek().type == TokenType::kOperator) {
      std::string op = Peek().text;
      exec::BinOp bin_op;
      if (op == "=") {
        bin_op = exec::BinOp::kEq;
      } else if (op == "<>") {
        bin_op = exec::BinOp::kNe;
      } else if (op == "<") {
        bin_op = exec::BinOp::kLt;
      } else if (op == "<=") {
        bin_op = exec::BinOp::kLe;
      } else if (op == ">") {
        bin_op = exec::BinOp::kGt;
      } else if (op == ">=") {
        bin_op = exec::BinOp::kGe;
      } else {
        *out = lhs;
        return Status::OK();
      }
      Next();
      ExprPtr rhs;
      JSONTILES_RETURN_NOT_OK(ParseAdditive(&rhs));
      *out = exec::Binary(bin_op, lhs, rhs);
      return Status::OK();
    }
    *out = lhs;
    return Status::OK();
  }

  Status ParseAdditive(ExprPtr* out) {
    JSONTILES_RETURN_NOT_OK(ParseTerm(out));
    while (true) {
      if (AcceptOperator("+")) {
        ExprPtr rhs;
        JSONTILES_RETURN_NOT_OK(ParseTerm(&rhs));
        *out = exec::Add(*out, rhs);
      } else if (AcceptOperator("-")) {
        ExprPtr rhs;
        JSONTILES_RETURN_NOT_OK(ParseTerm(&rhs));
        *out = exec::Sub(*out, rhs);
      } else {
        return Status::OK();
      }
    }
  }

  Status ParseTerm(ExprPtr* out) {
    JSONTILES_RETURN_NOT_OK(ParseUnary(out));
    while (true) {
      if (Peek().type == TokenType::kStar) {
        Next();
        ExprPtr rhs;
        JSONTILES_RETURN_NOT_OK(ParseUnary(&rhs));
        *out = exec::Mul(*out, rhs);
      } else if (AcceptOperator("/")) {
        ExprPtr rhs;
        JSONTILES_RETURN_NOT_OK(ParseUnary(&rhs));
        *out = exec::Div(*out, rhs);
      } else if (AcceptOperator("%")) {
        ExprPtr rhs;
        JSONTILES_RETURN_NOT_OK(ParseUnary(&rhs));
        *out = exec::Mod(*out, rhs);
      } else {
        return Status::OK();
      }
    }
  }

  Status ParseUnary(ExprPtr* out) {
    if (AcceptOperator("-")) {
      ExprPtr inner;
      JSONTILES_RETURN_NOT_OK(ParseUnary(&inner));
      *out = exec::Neg(inner);
      return Status::OK();
    }
    JSONTILES_RETURN_NOT_OK(ParsePrimary(out));
    // Optional cast chains: e::type::type.
    while (Accept(TokenType::kCast)) {
      ValueType type = ValueType::kString;
      JSONTILES_RETURN_NOT_OK(ParseType(&type));
      if ((*out)->kind == ExprKind::kAccess &&
          (*out)->path != exec::kRowIdPath) {
        // §4.3 cast rewriting: fold the cast into the access.
        *out = exec::AccessPath((*out)->table, (*out)->path, type);
      } else {
        *out = exec::CastTo(*out, type);
      }
    }
    return Status::OK();
  }

  Status ParseAccessChain(ExprPtr* out) {
    std::string alias = Next().text;
    std::string path;
    while (true) {
      TokenType arrow = Peek().type;
      if (arrow != TokenType::kArrow && arrow != TokenType::kArrowText) break;
      Next();
      if (Peek().type != TokenType::kString) {
        return Error("string key expected after access operator");
      }
      tiles::AppendKeySegment(&path, Next().text);
    }
    // Default result type: Text (the ->> semantics); a following ::cast
    // replaces it via the rewrite in ParseUnary.
    *out = exec::AccessPath(std::move(alias), std::move(path), ValueType::kString);
    return Status::OK();
  }

  Status ParseAggregate(const std::string& keyword, ExprPtr* out) {
    JSONTILES_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "("));
    AggSpec spec;
    if (keyword == "COUNT") {
      if (Accept(TokenType::kStar)) {
        spec = AggSpec::CountStar();
      } else if (AcceptKeyword("DISTINCT")) {
        ExprPtr arg;
        JSONTILES_RETURN_NOT_OK(ParseExpr(&arg));
        spec = AggSpec::CountDistinct(arg);
      } else {
        ExprPtr arg;
        JSONTILES_RETURN_NOT_OK(ParseExpr(&arg));
        spec = AggSpec::Count(arg);
      }
    } else {
      ExprPtr arg;
      JSONTILES_RETURN_NOT_OK(ParseExpr(&arg));
      if (keyword == "SUM") spec = AggSpec::Sum(arg);
      if (keyword == "AVG") spec = AggSpec::Avg(arg);
      if (keyword == "MIN") spec = AggSpec::Min(arg);
      if (keyword == "MAX") spec = AggSpec::Max(arg);
    }
    JSONTILES_RETURN_NOT_OK(Expect(TokenType::kRightParen, ")"));
    int marker = kAggMarkerBase + static_cast<int>(query_->aggs.size());
    query_->aggs.push_back(std::move(spec));
    *out = exec::Slot(marker);
    return Status::OK();
  }

  Status ParsePrimary(ExprPtr* out) {
    const SqlToken& token = Peek();
    switch (token.type) {
      case TokenType::kInteger:
        *out = exec::ConstInt(Next().int_value);
        return Status::OK();
      case TokenType::kFloat:
        *out = exec::ConstFloat(Next().float_value);
        return Status::OK();
      case TokenType::kString:
        *out = exec::ConstString(Next().text);
        return Status::OK();
      case TokenType::kLeftParen: {
        Next();
        JSONTILES_RETURN_NOT_OK(ParseExpr(out));
        return Expect(TokenType::kRightParen, ")");
      }
      case TokenType::kIdentifier:
        if (IsAccessChainStart()) return ParseAccessChain(out);
        return Error("unexpected identifier '" + token.text +
                     "' (accesses use alias->'key')");
      case TokenType::kKeyword: {
        const std::string kw = token.text;
        if (kw == "NULL") {
          Next();
          *out = exec::ConstNull();
          return Status::OK();
        }
        if (kw == "TRUE" || kw == "FALSE") {
          Next();
          *out = exec::ConstBool(kw == "TRUE");
          return Status::OK();
        }
        if (kw == "DATE" || kw == "TIMESTAMP") {
          Next();
          if (Peek().type != TokenType::kString) {
            return Error("string literal expected after DATE");
          }
          Timestamp ts;
          if (!ParseTimestamp(Next().text, &ts)) {
            return Error("invalid date literal");
          }
          auto e = std::make_shared<Expr>();
          e->kind = ExprKind::kConst;
          e->constant = Value::Ts(ts);
          *out = e;
          return Status::OK();
        }
        if (kw == "SUM" || kw == "AVG" || kw == "MIN" || kw == "MAX" ||
            kw == "COUNT") {
          Next();
          return ParseAggregate(kw, out);
        }
        if (kw == "CASE") {
          Next();
          std::vector<ExprPtr> operands;
          while (AcceptKeyword("WHEN")) {
            ExprPtr cond, then;
            JSONTILES_RETURN_NOT_OK(ParseExpr(&cond));
            JSONTILES_RETURN_NOT_OK(ExpectKeyword("THEN"));
            JSONTILES_RETURN_NOT_OK(ParseExpr(&then));
            operands.push_back(cond);
            operands.push_back(then);
          }
          if (operands.empty()) return Error("CASE requires WHEN");
          if (AcceptKeyword("ELSE")) {
            ExprPtr otherwise;
            JSONTILES_RETURN_NOT_OK(ParseExpr(&otherwise));
            operands.push_back(otherwise);
          }
          JSONTILES_RETURN_NOT_OK(ExpectKeyword("END"));
          *out = exec::Case(std::move(operands));
          return Status::OK();
        }
        if (kw == "EXTRACT") {
          Next();
          JSONTILES_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "("));
          JSONTILES_RETURN_NOT_OK(ExpectKeyword("YEAR"));
          JSONTILES_RETURN_NOT_OK(ExpectKeyword("FROM"));
          ExprPtr arg;
          JSONTILES_RETURN_NOT_OK(ParseExpr(&arg));
          JSONTILES_RETURN_NOT_OK(Expect(TokenType::kRightParen, ")"));
          // EXTRACT over a text access means "use it as a date" (§4.9):
          // request the Timestamp directly.
          if (arg->kind == ExprKind::kAccess &&
              arg->access_type == ValueType::kString) {
            arg = exec::AccessPath(arg->table, arg->path, ValueType::kTimestamp);
          }
          *out = exec::Year(arg);
          return Status::OK();
        }
        if (kw == "SUBSTRING") {
          Next();
          JSONTILES_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "("));
          ExprPtr arg;
          JSONTILES_RETURN_NOT_OK(ParseExpr(&arg));
          JSONTILES_RETURN_NOT_OK(ExpectKeyword("FROM"));
          if (Peek().type != TokenType::kInteger) {
            return Error("integer expected in SUBSTRING");
          }
          int start = static_cast<int>(Next().int_value);
          JSONTILES_RETURN_NOT_OK(ExpectKeyword("FOR"));
          if (Peek().type != TokenType::kInteger) {
            return Error("integer expected in SUBSTRING");
          }
          int len = static_cast<int>(Next().int_value);
          JSONTILES_RETURN_NOT_OK(Expect(TokenType::kRightParen, ")"));
          *out = exec::Substring(arg, start, len);
          return Status::OK();
        }
        if (kw == "CONTAINS") {
          Next();
          JSONTILES_RETURN_NOT_OK(Expect(TokenType::kLeftParen, "("));
          if (!IsAccessChainStart()) {
            return Error("CONTAINS expects an array access chain");
          }
          ExprPtr chain;
          JSONTILES_RETURN_NOT_OK(ParseAccessChain(&chain));
          JSONTILES_RETURN_NOT_OK(Expect(TokenType::kComma, ","));
          if (Peek().type != TokenType::kString) {
            return Error("member key expected in CONTAINS");
          }
          std::string member = Next().text;
          JSONTILES_RETURN_NOT_OK(Expect(TokenType::kComma, ","));
          if (Peek().type != TokenType::kString) {
            return Error("value expected in CONTAINS");
          }
          std::string value = Next().text;
          JSONTILES_RETURN_NOT_OK(Expect(TokenType::kRightParen, ")"));
          auto e = std::make_shared<Expr>();
          e->kind = ExprKind::kArrayContains;
          e->table = chain->table;
          e->path = chain->path;
          e->pattern = std::move(member);
          e->const_storage = std::move(value);
          e->constant = Value::String(e->const_storage);
          e->access_type = ValueType::kBool;
          *out = e;
          return Status::OK();
        }
        return Error("unexpected keyword " + kw);
      }
      default:
        return Error("unexpected token");
    }
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
  ParsedQuery* query_ = nullptr;
};

// ---------------------------------------------------------------------------
// Binder
// ---------------------------------------------------------------------------

// Tables referenced by an expression (aliases).
void CollectTables(const ExprPtr& e, std::vector<std::string>* tables) {
  std::vector<ExprPtr> accesses;
  exec::CollectAccesses(e, &accesses);
  for (const auto& a : accesses) {
    if (std::find(tables->begin(), tables->end(), a->table) == tables->end()) {
      tables->push_back(a->table);
    }
  }
}

bool HasAggMarker(const ExprPtr& e) {
  if (e == nullptr) return false;
  if (e->kind == ExprKind::kSlotRef && e->slot >= kAggMarkerBase) return true;
  for (const auto& arg : e->args) {
    if (HasAggMarker(arg)) return true;
  }
  return false;
}

// Rewrite a post-aggregation expression: agg markers become aggregate output
// slots, subtrees matching a GROUP BY expression become key slots.
Status RewritePostAgg(const ExprPtr& e, const std::vector<ExprPtr>& group_by,
                      ExprPtr* out) {
  if (e->kind == ExprKind::kSlotRef && e->slot >= kAggMarkerBase) {
    *out = exec::Slot(static_cast<int>(group_by.size()) + e->slot - kAggMarkerBase);
    return Status::OK();
  }
  for (size_t k = 0; k < group_by.size(); k++) {
    if (exec::ExprEquals(*e, *group_by[k])) {
      *out = exec::Slot(static_cast<int>(k));
      return Status::OK();
    }
  }
  if (e->kind == ExprKind::kAccess || e->kind == ExprKind::kArrayContains) {
    return Status::InvalidArgument(
        "column must appear in GROUP BY or inside an aggregate");
  }
  bool changed = false;
  std::vector<ExprPtr> args;
  for (const auto& arg : e->args) {
    ExprPtr rewritten;
    JSONTILES_RETURN_NOT_OK(RewritePostAgg(arg, group_by, &rewritten));
    changed |= rewritten != arg;
    args.push_back(std::move(rewritten));
  }
  if (!changed) {
    *out = e;
    return Status::OK();
  }
  auto copy = std::make_shared<Expr>(*e);
  copy->args = std::move(args);
  *out = copy;
  return Status::OK();
}

std::string DefaultColumnName(const ExprPtr& e, size_t index) {
  if (e->kind == ExprKind::kAccess) return tiles::PathToDisplayString(e->path);
  return "col" + std::to_string(index + 1);
}

}  // namespace

Result<SqlResult> ExecuteSql(std::string_view statement, const SqlCatalog& catalog,
                             exec::QueryContext& ctx) {
  // Plan time splits into parse, bind, and the optimizer's estimate and
  // join-order spans (opt/query.cc).
  std::optional<obs::TraceSpan> parse_span(std::in_place, "sql.parse");
  auto tokens = TokenizeSql(statement);
  if (!tokens.ok()) return tokens.status();
  std::vector<SqlToken> token_list = tokens.MoveValueOrDie();

  // EXPLAIN ANALYZE prefix: execute the statement under a PlanProfile and
  // return the annotated operator tree instead of the query output. Plain
  // EXPLAIN binds and plans the statement — join order + cardinality
  // estimates — without executing it.
  bool explain_analyze = false;
  bool explain_plan = false;
  if (!token_list.empty() && token_list[0].type == TokenType::kKeyword &&
      token_list[0].text == "EXPLAIN") {
    if (token_list.size() >= 2 && token_list[1].type == TokenType::kKeyword &&
        token_list[1].text == "ANALYZE") {
      explain_analyze = true;
      token_list.erase(token_list.begin(), token_list.begin() + 2);
    } else {
      explain_plan = true;
      token_list.erase(token_list.begin());
    }
  }

  std::shared_ptr<obs::PlanProfile> profile;
  obs::PlanProfile* saved_profile = ctx.profile;
  if (explain_analyze) {
    profile = std::make_shared<obs::PlanProfile>();
    ctx.profile = profile.get();
  }
  // Restore the context's profile pointer on every return path below.
  struct ProfileRestore {
    exec::QueryContext& ctx;
    obs::PlanProfile* saved;
    ~ProfileRestore() { ctx.profile = saved; }
  } restore{ctx, saved_profile};
  // Attach the catalog's distributed runtime for the statement's duration
  // (same restore discipline as the profile pointer).
  exec::DistRuntime* saved_dist = ctx.dist;
  if (catalog.dist != nullptr) ctx.dist = catalog.dist;
  struct DistRestore {
    exec::QueryContext& ctx;
    exec::DistRuntime* saved;
    ~DistRestore() { ctx.dist = saved; }
  } dist_restore{ctx, saved_dist};
  const size_t tiles_scanned_before = ctx.tiles_scanned;
  const size_t tiles_skipped_before = ctx.tiles_skipped;
  const size_t shards_scanned_before = ctx.shards_scanned;
  const size_t shards_pruned_before = ctx.shards_pruned;
  auto exec_begin = std::chrono::steady_clock::now();

  ParsedQuery query;
  Parser parser(std::move(token_list));
  JSONTILES_RETURN_NOT_OK(parser.Parse(&query));
  parse_span.reset();
  std::optional<obs::TraceSpan> bind_span(std::in_place, "sql.bind");

  // --- validate tables -------------------------------------------------------
  std::vector<std::string> aliases;
  for (const auto& [name, alias] : query.tables) {
    if (catalog.tables.find(name) == catalog.tables.end() &&
        catalog.sharded_tables.find(name) == catalog.sharded_tables.end()) {
      return Status::NotFound("unknown table '" + name + "'");
    }
    if (std::find(aliases.begin(), aliases.end(), alias) != aliases.end()) {
      return Status::InvalidArgument("duplicate alias '" + alias + "'");
    }
    aliases.push_back(alias);
  }
  auto known_alias = [&](const std::string& a) {
    return std::find(aliases.begin(), aliases.end(), a) != aliases.end();
  };

  // --- split WHERE: per-table filters, join edges, residual (§4.2) ----------
  std::vector<ExprPtr> conjuncts;
  exec::SplitConjuncts(query.where, &conjuncts);
  std::map<std::string, std::vector<ExprPtr>> table_filters;
  std::vector<std::pair<ExprPtr, ExprPtr>> join_edges;
  std::vector<ExprPtr> residual;
  for (const auto& conjunct : conjuncts) {
    if (HasAggMarker(conjunct)) {
      return Status::InvalidArgument("aggregates are not allowed in WHERE");
    }
    std::vector<std::string> tables;
    CollectTables(conjunct, &tables);
    for (const auto& t : tables) {
      if (!known_alias(t)) {
        return Status::NotFound("unknown table alias '" + t + "'");
      }
    }
    if (tables.size() == 1) {
      table_filters[tables[0]].push_back(conjunct);
      continue;
    }
    if (tables.size() == 2 && conjunct->kind == ExprKind::kBinary &&
        conjunct->bin_op == exec::BinOp::kEq) {
      std::vector<std::string> left_tables, right_tables;
      CollectTables(conjunct->args[0], &left_tables);
      CollectTables(conjunct->args[1], &right_tables);
      if (left_tables.size() == 1 && right_tables.size() == 1 &&
          left_tables[0] != right_tables[0]) {
        join_edges.emplace_back(conjunct->args[0], conjunct->args[1]);
        continue;
      }
    }
    residual.push_back(conjunct);  // multi-table (or constant) predicate
  }

  opt::QueryBlock block;
  for (const auto& [name, alias] : query.tables) {
    auto it = table_filters.find(alias);
    ExprPtr filter = it == table_filters.end() ? nullptr : exec::And(it->second);
    auto plain = catalog.tables.find(name);
    if (plain != catalog.tables.end()) {
      block.AddTable(opt::TableRef::Rel(alias, plain->second, filter));
    } else {
      block.AddTable(opt::TableRef::Sharded(
          alias, catalog.sharded_tables.at(name), filter));
    }
  }
  for (auto& [left, right] : join_edges) block.AddJoin(left, right);
  if (!residual.empty()) block.Where(exec::And(residual));

  // --- validate the remaining expressions' table references -----------------
  {
    std::vector<ExprPtr> to_check;
    for (const auto& item : query.select) to_check.push_back(item.expr);
    for (const auto& e : query.group_by) to_check.push_back(e);
    if (query.having != nullptr) to_check.push_back(query.having);
    for (const auto& agg : query.aggs) {
      if (agg.arg != nullptr) to_check.push_back(agg.arg);
    }
    for (const auto& e : to_check) {
      std::vector<std::string> tables;
      CollectTables(e, &tables);
      for (const auto& t : tables) {
        if (!known_alias(t)) {
          return Status::NotFound("unknown table alias '" + t + "'");
        }
      }
    }
  }

  // --- aggregation or plain projection -------------------------------------
  const bool aggregated = !query.aggs.empty() || !query.group_by.empty();
  SqlResult result;
  RowSet rows;
  std::vector<ExprPtr> final_projection;  // over the block output
  if (aggregated) {
    block.GroupBy(query.group_by);
    for (auto& agg : query.aggs) block.Aggregate(agg);
    if (query.having != nullptr) {
      ExprPtr having;
      JSONTILES_RETURN_NOT_OK(
          RewritePostAgg(query.having, query.group_by, &having));
      block.Having(having);
    }
    for (size_t i = 0; i < query.select.size(); i++) {
      ExprPtr rewritten;
      JSONTILES_RETURN_NOT_OK(
          RewritePostAgg(query.select[i].expr, query.group_by, &rewritten));
      final_projection.push_back(std::move(rewritten));
    }
  } else {
    std::vector<ExprPtr> projections;
    for (const auto& item : query.select) projections.push_back(item.expr);
    block.Select(projections);
  }

  bind_span.reset();

  // --- plain EXPLAIN: plan only, no execution -------------------------------
  if (explain_plan) {
    auto planned = block.Explain();
    JSONTILES_RETURN_NOT_OK(planned.status());
    const opt::PlanEstimate& est = planned.ValueOrDie();
    std::vector<std::string> lines;
    std::string order = "Join order: ";
    for (size_t i = 0; i < est.join_order.size(); i++) {
      if (i > 0) order += " -> ";
      order += est.join_order[i];
    }
    lines.push_back(std::move(order));
    char buf[160];
    for (size_t i = 0; i < est.join_order.size(); i++) {
      std::snprintf(buf, sizeof(buf), "  scan %s  (estimated rows=%.0f)",
                    est.join_order[i].c_str(), est.table_rows[i]);
      lines.emplace_back(buf);
    }
    if (est.estimated_cost > 0) {
      std::snprintf(buf, sizeof(buf), "Estimated cost (C_out): %.0f",
                    est.estimated_cost);
      lines.emplace_back(buf);
    }
    SqlResult plan;
    plan.column_names.push_back("QUERY PLAN");
    auto* arena = ctx.arena(0);
    for (const std::string& line : lines) {
      plan.rows.push_back({exec::Value::String(arena->CopyString(line))});
    }
    return plan;
  }

  rows = block.Execute(ctx);
  // A worker failure anywhere in the plan (scan morsel, join/aggregate
  // worker, spill I/O) cancels the query; surface that Status here, at the
  // API boundary, instead of a silently empty result.
  JSONTILES_RETURN_NOT_OK(ctx.ConsumeStatus());
  if (aggregated) {
    rows = exec::ProjectExec(rows, final_projection, ctx);
    if (ctx.profile != nullptr) ctx.profile->Chain(ctx.profile->last_id());
  }

  // --- ORDER BY / LIMIT over the select output ------------------------------
  if (!query.order_by.empty()) {
    std::vector<exec::SortKey> keys;
    for (const auto& item : query.order_by) {
      int slot = -1;
      if (item.ordinal > 0) {
        if (static_cast<size_t>(item.ordinal) > query.select.size()) {
          return Status::InvalidArgument("ORDER BY ordinal out of range");
        }
        slot = item.ordinal - 1;
      } else if (!item.alias.empty()) {
        for (size_t i = 0; i < query.select.size(); i++) {
          if (query.select[i].alias == item.alias) slot = static_cast<int>(i);
        }
        if (slot < 0) {
          return Status::NotFound("ORDER BY alias '" + item.alias + "' not found");
        }
      } else {
        for (size_t i = 0; i < query.select.size(); i++) {
          if (exec::ExprEquals(*item.expr, *query.select[i].expr)) {
            slot = static_cast<int>(i);
          }
        }
        if (slot < 0) {
          return Status::InvalidArgument(
              "ORDER BY expression must appear in the select list");
        }
      }
      keys.push_back(exec::SortKey{exec::Slot(slot), item.descending});
    }
    rows = exec::SortExec(std::move(rows), keys, ctx);
    if (ctx.profile != nullptr) ctx.profile->Chain(ctx.profile->last_id());
  }
  if (query.has_limit) {
    rows = exec::LimitExec(std::move(rows), query.limit, ctx);
    if (ctx.profile != nullptr) ctx.profile->Chain(ctx.profile->last_id());
  }

  if (explain_analyze) {
    double exec_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - exec_begin)
                         .count();
    std::string text = profile->FormatTree();
    char footer[200];
    std::snprintf(footer, sizeof(footer),
                  "Execution time: %.3f ms\nTiles scanned: %zu, skipped: %zu",
                  exec_ms, ctx.tiles_scanned - tiles_scanned_before,
                  ctx.tiles_skipped - tiles_skipped_before);
    text += footer;
    const size_t shards_scanned = ctx.shards_scanned - shards_scanned_before;
    const size_t shards_pruned = ctx.shards_pruned - shards_pruned_before;
    if (shards_scanned > 0 || shards_pruned > 0) {
      std::snprintf(footer, sizeof(footer),
                    "\nShards scanned: %zu, pruned: %zu", shards_scanned,
                    shards_pruned);
      text += footer;
    }
    if (!ctx.resource_group.empty()) {
      std::snprintf(footer, sizeof(footer),
                    "\nResource group: %s, queue wait: %.3f ms",
                    ctx.resource_group.c_str(),
                    static_cast<double>(ctx.queue_wait_nanos) / 1e6);
      text += footer;
    }

    SqlResult plan;
    plan.column_names.push_back("QUERY PLAN");
    plan.profile = profile;
    auto* arena = ctx.arena(0);
    size_t begin = 0;
    while (begin <= text.size()) {
      size_t end = text.find('\n', begin);
      if (end == std::string::npos) end = text.size();
      std::string_view line(text.data() + begin, end - begin);
      if (!line.empty()) {
        plan.rows.push_back({exec::Value::String(arena->CopyString(line))});
      }
      begin = end + 1;
    }
    return plan;
  }

  result.rows = std::move(rows);
  for (size_t i = 0; i < query.select.size(); i++) {
    result.column_names.push_back(query.select[i].alias.empty()
                                      ? DefaultColumnName(query.select[i].expr, i)
                                      : query.select[i].alias);
  }
  return result;
}

std::string FormatSqlResult(const SqlResult& result, size_t max_rows) {
  std::string out;
  std::vector<size_t> widths;
  std::vector<std::vector<std::string>> cells;
  for (const auto& name : result.column_names) widths.push_back(name.size());
  size_t shown = std::min(result.rows.size(), max_rows);
  for (size_t r = 0; r < shown; r++) {
    std::vector<std::string> row;
    for (size_t c = 0; c < result.rows[r].size(); c++) {
      row.push_back(result.rows[r][c].ToString());
      if (c < widths.size()) widths[c] = std::max(widths[c], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); c++) {
      out += row[c];
      if (c < widths.size()) out.append(widths[c] - row[c].size() + 2, ' ');
    }
    out += "\n";
  };
  append_row(result.column_names);
  for (const auto& row : cells) append_row(row);
  if (result.rows.size() > shown) {
    out += "... (" + std::to_string(result.rows.size() - shown) + " more)\n";
  }
  return out;
}

}  // namespace jsontiles::sql
