// Expression trees of the query engine.
//
// JSON accesses follow PostgreSQL semantics (§4.1): `data->>'key'::T` is
// modeled as an Access node carrying the key path and the requested SQL type.
// The planner pushes Access nodes down into the table scan (§4.2) and the
// requested type replaces the naive text detour (§4.3 cast rewriting): the
// scan either reads a materialized tile column of a compatible type or falls
// back to the binary JSON document. Above the scan, expressions reference
// scan outputs through slot indices (the paper's placeholders).

#ifndef JSONTILES_EXEC_EXPRESSION_H_
#define JSONTILES_EXEC_EXPRESSION_H_

#include <functional>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/value.h"
#include "util/arena.h"

namespace jsontiles::exec {

enum class ExprKind : uint8_t {
  kConst,
  kSlotRef,        // output slot of the child operator
  kAccess,         // typed JSON access (scan level only)
  kArrayContains,  // scan-level: does an array at `path` contain a value?
  kBinary,
  kUnary,
  kLike,
  kIn,
  kCase,         // args: [cond1, val1, cond2, val2, ..., else]
  kSubstring,    // args: [str]; 1-based start/len payload
  kExtractYear,  // args: [timestamp]
  kCastTo,       // args: [value]; runtime cast to access_type
};

enum class BinOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

enum class UnOp : uint8_t { kNot, kNeg, kIsNull, kIsNotNull };

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/// A LIKE pattern compiled once per query instead of being re-scanned per
/// row: exact / prefix / suffix / contains patterns get dedicated fast paths,
/// everything else falls back to the generic %/_ matcher. Shared by the
/// tuple-at-a-time interpreter and the vectorized kernels.
class CompiledLike {
 public:
  explicit CompiledLike(std::string pattern);
  bool Match(std::string_view s) const;
  const std::string& pattern() const { return pattern_; }

 private:
  enum class Kind : uint8_t {
    kExact,     // no wildcards
    kPrefix,    // abc%
    kSuffix,    // %abc
    kContains,  // %abc%
    kMatchAll,  // %, %%, ...
    kGeneric,   // anything with '_' or interior '%'
  };
  std::string_view needle() const {
    return std::string_view(pattern_).substr(needle_pos_, needle_len_);
  }

  std::string pattern_;
  Kind kind_ = Kind::kGeneric;
  size_t needle_pos_ = 0;
  size_t needle_len_ = 0;
};

struct Expr {
  ExprKind kind = ExprKind::kConst;
  BinOp bin_op = BinOp::kAdd;
  UnOp un_op = UnOp::kNot;

  // kConst
  Value constant;
  std::string const_storage;  // backing for string constants

  // kAccess
  std::string table;        // logical table alias the access binds to
  std::string path;         // encoded key path
  ValueType access_type = ValueType::kString;  // requested cast type

  // kSlotRef
  int slot = -1;

  // kLike
  std::string pattern;
  bool negated = false;
  std::shared_ptr<const CompiledLike> like;  // set by the Like() factory

  // kIn
  std::vector<Value> in_list;
  std::vector<std::string> in_storage;

  // kSubstring
  int substr_start = 1;  // 1-based
  int substr_len = 0;

  std::vector<ExprPtr> args;
};

// --- factory helpers (the query-building DSL) ------------------------------

ExprPtr ConstInt(int64_t v);
ExprPtr ConstFloat(double v);
ExprPtr ConstBool(bool v);
ExprPtr ConstString(std::string v);
/// Date/timestamp literal from "YYYY-MM-DD[...]" text.
ExprPtr ConstDate(std::string_view text);
ExprPtr ConstNull();

/// Typed JSON access `table.data->>path::type`. `keys` are object keys of
/// the path (no array steps; use AccessPath for those).
ExprPtr Access(std::string table, std::initializer_list<std::string_view> keys,
               ValueType type);
/// Access with a pre-encoded key path.
ExprPtr AccessPath(std::string table, std::string encoded_path, ValueType type);

/// Scan-level predicate: true when the array at `keys` contains an element
/// whose member `element_key` equals `value` (or, with an empty element_key,
/// an element equal to `value`). Arrays of varying cardinality are not fully
/// materialized by tiles (§3.5): the scan answers it from the array's side
/// relation where the relation has one (Tiles-*), else from the binary JSON
/// (DESIGN.md §3 "CONTAINS routes").
ExprPtr ArrayContains(std::string table,
                      std::initializer_list<std::string_view> keys,
                      std::string element_key, std::string value);

/// Virtual access to the row id of a base-table scan.
ExprPtr RowId(std::string table);
/// The sentinel path RowId uses.
inline constexpr std::string_view kRowIdPath = "\x01#rowid";

ExprPtr Slot(int index);

ExprPtr Binary(BinOp op, ExprPtr l, ExprPtr r);
inline ExprPtr Add(ExprPtr l, ExprPtr r) { return Binary(BinOp::kAdd, l, r); }
inline ExprPtr Sub(ExprPtr l, ExprPtr r) { return Binary(BinOp::kSub, l, r); }
inline ExprPtr Mul(ExprPtr l, ExprPtr r) { return Binary(BinOp::kMul, l, r); }
inline ExprPtr Div(ExprPtr l, ExprPtr r) { return Binary(BinOp::kDiv, l, r); }
inline ExprPtr Mod(ExprPtr l, ExprPtr r) { return Binary(BinOp::kMod, l, r); }
inline ExprPtr Eq(ExprPtr l, ExprPtr r) { return Binary(BinOp::kEq, l, r); }
inline ExprPtr Ne(ExprPtr l, ExprPtr r) { return Binary(BinOp::kNe, l, r); }
inline ExprPtr Lt(ExprPtr l, ExprPtr r) { return Binary(BinOp::kLt, l, r); }
inline ExprPtr Le(ExprPtr l, ExprPtr r) { return Binary(BinOp::kLe, l, r); }
inline ExprPtr Gt(ExprPtr l, ExprPtr r) { return Binary(BinOp::kGt, l, r); }
inline ExprPtr Ge(ExprPtr l, ExprPtr r) { return Binary(BinOp::kGe, l, r); }
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr And(std::vector<ExprPtr> conjuncts);
inline ExprPtr Or(ExprPtr l, ExprPtr r) { return Binary(BinOp::kOr, l, r); }

ExprPtr Unary(UnOp op, ExprPtr arg);
inline ExprPtr Not(ExprPtr e) { return Unary(UnOp::kNot, e); }
inline ExprPtr Neg(ExprPtr e) { return Unary(UnOp::kNeg, e); }
inline ExprPtr IsNull(ExprPtr e) { return Unary(UnOp::kIsNull, e); }
inline ExprPtr IsNotNull(ExprPtr e) { return Unary(UnOp::kIsNotNull, e); }

ExprPtr Like(ExprPtr str, std::string pattern, bool negated = false);
ExprPtr InList(ExprPtr e, std::vector<std::string> strings);
ExprPtr InListInt(ExprPtr e, std::vector<int64_t> ints);
ExprPtr Between(ExprPtr e, ExprPtr lo, ExprPtr hi);  // inclusive
ExprPtr Case(std::vector<ExprPtr> operands);
ExprPtr Substring(ExprPtr str, int start_1based, int len);
ExprPtr Year(ExprPtr ts);
/// Runtime cast (SQL semantics; Access nodes carry their cast natively —
/// this is for casting computed values, e.g. `(a + b)::text`).
ExprPtr CastTo(ExprPtr e, ValueType type);

// --- evaluation -------------------------------------------------------------

/// Evaluate an expression over an intermediate row. kAccess nodes must have
/// been rewritten to slots by the planner. `arena` backs derived strings.
Value EvalExpr(const Expr& e, const Value* slots, Arena* arena);

/// Cast a value to a requested type (SQL semantics: unparsable -> null).
Value CastValue(const Value& v, ValueType to, Arena* arena);

/// SQL LIKE with % and _.
bool LikeMatch(std::string_view s, std::string_view pattern);

// --- planner helpers ---------------------------------------------------------

/// True when two scan-level access nodes denote the same computation.
bool SameAccess(const Expr& a, const Expr& b);

/// Deep structural equality of expression trees (used by the SQL binder to
/// match select items against GROUP BY expressions).
bool ExprEquals(const Expr& a, const Expr& b);

/// Walk `e` and append every distinct access-like node (kAccess /
/// kArrayContains).
void CollectAccesses(const ExprPtr& e, std::vector<ExprPtr>* accesses);

/// Append the conjuncts of `e`'s top-level AND tree, left to right (a null
/// `e` appends nothing).
void SplitConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out);

/// Rewrite Access nodes to slot references; `slot_of(access)` returns the
/// assigned slot. Returns a new tree (shared subtrees without accesses are
/// reused).
ExprPtr RewriteAccessesToSlots(
    const ExprPtr& e,
    const std::function<int(const Expr& access)>& slot_of);

/// Paths of `table` whose null would make the (filter) expression reject the
/// row — usable for tile skipping (§4.8). Conservative: only paths under
/// comparisons / LIKE / IN / IS NOT NULL in a top-level conjunction.
void CollectNullRejectingPaths(const ExprPtr& filter, const std::string& table,
                               std::vector<std::string>* paths);

/// A top-level conjunct of the form `access OP constant` over a numeric or
/// timestamp access — the inputs of zone-map tile skipping.
struct RangePredicate {
  std::string path;
  ValueType access_type;  // requested cast of the access
  BinOp op;               // kLt/kLe/kGt/kGe/kEq with the access on the left
  Value constant;
};

/// Extract range predicates of `table` from a top-level conjunction.
void CollectRangePredicates(const ExprPtr& filter, const std::string& table,
                            std::vector<RangePredicate>* out);

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_EXPRESSION_H_
