#include "workload/tpch_queries.h"

#include "exec/operators.h"
#include "util/logging.h"

namespace jsontiles::workload {

namespace {

using exec::AggSpec;
using exec::ExprPtr;
using exec::QueryContext;
using exec::RowSet;
using exec::Slot;
using exec::Value;
using exec::ValueType;
using opt::QueryBlock;
using opt::TableRef;
using opt::TableSource;
using storage::Relation;

// Access shorthands.
ExprPtr AI(const char* t, const char* key) {
  return exec::Access(t, {key}, ValueType::kInt);
}
ExprPtr AF(const char* t, const char* key) {
  return exec::Access(t, {key}, ValueType::kFloat);
}
ExprPtr AS(const char* t, const char* key) {
  return exec::Access(t, {key}, ValueType::kString);
}
ExprPtr AD(const char* t, const char* key) {
  return exec::Access(t, {key}, ValueType::kTimestamp);
}

// A "table" of the combined relation: IS NOT NULL on the table's key marker.
TableRef T(const TableSource& rel, const char* alias, const char* marker,
           ExprPtr extra = nullptr) {
  ExprPtr filter = exec::IsNotNull(AI(alias, marker));
  if (extra != nullptr) filter = exec::And(filter, std::move(extra));
  return TableRef::Src(alias, rel, std::move(filter));
}

// l_extendedprice * (1 - l_discount)
ExprPtr Revenue(const char* l = "l") {
  return exec::Mul(AF(l, "l_extendedprice"),
                   exec::Sub(exec::ConstFloat(1.0), AF(l, "l_discount")));
}

using exec::And;
using exec::Between;
using exec::Case;
using exec::ConstDate;
using exec::ConstFloat;
using exec::ConstInt;
using exec::ConstString;
using exec::Div;
using exec::Eq;
using exec::Ge;
using exec::Gt;
using exec::InList;
using exec::InListInt;
using exec::IsNotNull;
using exec::Le;
using exec::Like;
using exec::Lt;
using exec::Mul;
using exec::Ne;
using exec::Or;
using exec::Sub;
using exec::Substring;
using exec::Year;

RowSet Q1(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(T(rel, "l", "l_orderkey",
               Le(AD("l", "l_shipdate"), ConstDate("1998-09-02"))));
  q.GroupBy({AS("l", "l_returnflag"), AS("l", "l_linestatus")});
  q.Aggregate(AggSpec::Sum(AI("l", "l_quantity")));
  q.Aggregate(AggSpec::Sum(AF("l", "l_extendedprice")));
  q.Aggregate(AggSpec::Sum(Revenue()));
  q.Aggregate(AggSpec::Sum(
      Mul(Revenue(), exec::Add(ConstFloat(1.0), AF("l", "l_tax")))));
  q.Aggregate(AggSpec::Avg(AI("l", "l_quantity")));
  q.Aggregate(AggSpec::Avg(AF("l", "l_extendedprice")));
  q.Aggregate(AggSpec::Avg(AF("l", "l_discount")));
  q.Aggregate(AggSpec::CountStar());
  q.OrderBy(Slot(0));
  q.OrderBy(Slot(1));
  return q.Execute(ctx);
}

RowSet Q2(const TableSource& rel, QueryContext& ctx) {
  // Candidate suppliers for size-15 %BRASS parts in EUROPE.
  QueryBlock inner;
  inner.AddTable(T(rel, "p", "p_partkey",
                   And(Eq(AI("p", "p_size"), ConstInt(15)),
                       Like(AS("p", "p_type"), "%BRASS"))));
  inner.AddTable(T(rel, "ps", "ps_partkey"));
  inner.AddTable(T(rel, "s", "s_suppkey"));
  inner.AddTable(T(rel, "n", "n_nationkey"));
  inner.AddTable(T(rel, "r", "r_regionkey",
                   Eq(AS("r", "r_name"), ConstString("EUROPE"))));
  inner.AddJoin(AI("ps", "ps_partkey"), AI("p", "p_partkey"));
  inner.AddJoin(AI("ps", "ps_suppkey"), AI("s", "s_suppkey"));
  inner.AddJoin(AI("s", "s_nationkey"), AI("n", "n_nationkey"));
  inner.AddJoin(AI("n", "n_regionkey"), AI("r", "r_regionkey"));
  inner.Select({AI("p", "p_partkey"), AF("ps", "ps_supplycost"),
                AF("s", "s_acctbal"), AS("s", "s_name"), AS("n", "n_name"),
                AS("s", "s_address"), AS("s", "s_phone"), AS("s", "s_comment"),
                AS("p", "p_mfgr")});
  RowSet candidates = inner.Execute(ctx);

  // Minimum supply cost per part.
  RowSet mins = exec::AggregateExec(candidates, {Slot(0)},
                                    {AggSpec::Min(Slot(1))}, ctx);

  // Join back: cost == min cost for the part.
  QueryBlock outer;
  std::vector<std::string> cand_cols = {"partkey", "cost",    "acctbal",
                                        "sname",   "nname",   "address",
                                        "phone",   "comment", "mfgr"};
  outer.AddTable(TableRef::Rows("c", &candidates, cand_cols));
  outer.AddTable(TableRef::Rows("m", &mins, {"partkey", "mincost"}));
  outer.AddJoin(exec::Access("c", {"partkey"}, ValueType::kInt),
                exec::Access("m", {"partkey"}, ValueType::kInt));
  outer.AddJoin(exec::Access("c", {"cost"}, ValueType::kFloat),
                exec::Access("m", {"mincost"}, ValueType::kFloat));
  outer.Select({exec::Access("c", {"acctbal"}, ValueType::kFloat),
                exec::Access("c", {"sname"}, ValueType::kString),
                exec::Access("c", {"nname"}, ValueType::kString),
                exec::Access("c", {"partkey"}, ValueType::kInt),
                exec::Access("c", {"mfgr"}, ValueType::kString),
                exec::Access("c", {"address"}, ValueType::kString),
                exec::Access("c", {"phone"}, ValueType::kString),
                exec::Access("c", {"comment"}, ValueType::kString)});
  outer.OrderBy(Slot(0), /*descending=*/true);
  outer.OrderBy(Slot(2));
  outer.OrderBy(Slot(1));
  outer.OrderBy(Slot(3));
  outer.Limit(100);
  return outer.Execute(ctx);
}

RowSet Q3(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(T(rel, "c", "c_custkey",
               Eq(AS("c", "c_mktsegment"), ConstString("BUILDING"))));
  q.AddTable(T(rel, "o", "o_orderkey",
               Lt(AD("o", "o_orderdate"), ConstDate("1995-03-15"))));
  q.AddTable(T(rel, "l", "l_orderkey",
               Gt(AD("l", "l_shipdate"), ConstDate("1995-03-15"))));
  q.AddJoin(AI("c", "c_custkey"), AI("o", "o_custkey"));
  q.AddJoin(AI("l", "l_orderkey"), AI("o", "o_orderkey"));
  q.GroupBy({AI("l", "l_orderkey"), AD("o", "o_orderdate"),
             AI("o", "o_shippriority")});
  q.Aggregate(AggSpec::Sum(Revenue()));
  q.OrderBy(Slot(3), /*descending=*/true);
  q.OrderBy(Slot(1));
  q.Limit(10);
  return q.Execute(ctx);
}

RowSet Q4(const TableSource& rel, QueryContext& ctx) {
  QueryBlock ob;
  ob.AddTable(T(rel, "o", "o_orderkey",
                And(Ge(AD("o", "o_orderdate"), ConstDate("1993-07-01")),
                    Lt(AD("o", "o_orderdate"), ConstDate("1993-10-01")))));
  ob.Select({AI("o", "o_orderkey"), AS("o", "o_orderpriority")});
  RowSet orders = ob.Execute(ctx);

  QueryBlock lb;
  lb.AddTable(T(rel, "l", "l_orderkey",
                Lt(AD("l", "l_commitdate"), AD("l", "l_receiptdate"))));
  lb.Select({AI("l", "l_orderkey")});
  RowSet lines = lb.Execute(ctx);

  RowSet matched = exec::HashJoinExec(lines, orders, {Slot(0)}, {Slot(0)},
                                      exec::JoinType::kSemi, nullptr, ctx);
  RowSet agg = exec::AggregateExec(matched, {Slot(1)}, {AggSpec::CountStar()}, ctx);
  return exec::SortExec(std::move(agg), {{Slot(0), false}}, ctx);
}

RowSet Q5(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(T(rel, "c", "c_custkey"));
  q.AddTable(T(rel, "o", "o_orderkey",
               And(Ge(AD("o", "o_orderdate"), ConstDate("1994-01-01")),
                   Lt(AD("o", "o_orderdate"), ConstDate("1995-01-01")))));
  q.AddTable(T(rel, "l", "l_orderkey"));
  q.AddTable(T(rel, "s", "s_suppkey"));
  q.AddTable(T(rel, "n", "n_nationkey"));
  q.AddTable(
      T(rel, "r", "r_regionkey", Eq(AS("r", "r_name"), ConstString("ASIA"))));
  q.AddJoin(AI("o", "o_custkey"), AI("c", "c_custkey"));
  q.AddJoin(AI("l", "l_orderkey"), AI("o", "o_orderkey"));
  q.AddJoin(AI("l", "l_suppkey"), AI("s", "s_suppkey"));
  q.AddJoin(AI("c", "c_nationkey"), AI("s", "s_nationkey"));
  q.AddJoin(AI("s", "s_nationkey"), AI("n", "n_nationkey"));
  q.AddJoin(AI("n", "n_regionkey"), AI("r", "r_regionkey"));
  q.GroupBy({AS("n", "n_name")});
  q.Aggregate(AggSpec::Sum(Revenue()));
  q.OrderBy(Slot(1), /*descending=*/true);
  return q.Execute(ctx);
}

RowSet Q6(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(T(rel, "l", "l_orderkey",
               And({Ge(AD("l", "l_shipdate"), ConstDate("1994-01-01")),
                    Lt(AD("l", "l_shipdate"), ConstDate("1995-01-01")),
                    Between(AF("l", "l_discount"), ConstFloat(0.05),
                            ConstFloat(0.07)),
                    Lt(AI("l", "l_quantity"), ConstInt(24))})));
  q.GroupBy({});
  q.Aggregate(AggSpec::Sum(Mul(AF("l", "l_extendedprice"), AF("l", "l_discount"))));
  return q.Execute(ctx);
}

RowSet Q7(const TableSource& rel, QueryContext& ctx) {
  ExprPtr nations = InList(AS("n1", "n_name"), {"FRANCE", "GERMANY"});
  ExprPtr nations2 = InList(AS("n2", "n_name"), {"FRANCE", "GERMANY"});
  QueryBlock q;
  q.AddTable(T(rel, "s", "s_suppkey"));
  q.AddTable(T(rel, "l", "l_orderkey",
               Between(AD("l", "l_shipdate"), ConstDate("1995-01-01"),
                       ConstDate("1996-12-31"))));
  q.AddTable(T(rel, "o", "o_orderkey"));
  q.AddTable(T(rel, "c", "c_custkey"));
  q.AddTable(T(rel, "n1", "n_nationkey", std::move(nations)));
  q.AddTable(T(rel, "n2", "n_nationkey", std::move(nations2)));
  q.AddJoin(AI("s", "s_suppkey"), AI("l", "l_suppkey"));
  q.AddJoin(AI("o", "o_orderkey"), AI("l", "l_orderkey"));
  q.AddJoin(AI("c", "c_custkey"), AI("o", "o_custkey"));
  q.AddJoin(AI("s", "s_nationkey"), AI("n1", "n_nationkey"));
  q.AddJoin(AI("c", "c_nationkey"), AI("n2", "n_nationkey"));
  q.Where(Or(And(Eq(AS("n1", "n_name"), ConstString("FRANCE")),
                 Eq(AS("n2", "n_name"), ConstString("GERMANY"))),
             And(Eq(AS("n1", "n_name"), ConstString("GERMANY")),
                 Eq(AS("n2", "n_name"), ConstString("FRANCE")))));
  q.GroupBy({AS("n1", "n_name"), AS("n2", "n_name"), Year(AD("l", "l_shipdate"))});
  q.Aggregate(AggSpec::Sum(Revenue()));
  q.OrderBy(Slot(0));
  q.OrderBy(Slot(1));
  q.OrderBy(Slot(2));
  return q.Execute(ctx);
}

RowSet Q8(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(T(rel, "p", "p_partkey",
               Eq(AS("p", "p_type"), ConstString("ECONOMY ANODIZED STEEL"))));
  q.AddTable(T(rel, "l", "l_orderkey"));
  q.AddTable(T(rel, "o", "o_orderkey",
               Between(AD("o", "o_orderdate"), ConstDate("1995-01-01"),
                       ConstDate("1996-12-31"))));
  q.AddTable(T(rel, "c", "c_custkey"));
  q.AddTable(T(rel, "n1", "n_nationkey"));
  q.AddTable(T(rel, "r", "r_regionkey",
               Eq(AS("r", "r_name"), ConstString("AMERICA"))));
  q.AddTable(T(rel, "s", "s_suppkey"));
  q.AddTable(T(rel, "n2", "n_nationkey"));
  q.AddJoin(AI("p", "p_partkey"), AI("l", "l_partkey"));
  q.AddJoin(AI("l", "l_orderkey"), AI("o", "o_orderkey"));
  q.AddJoin(AI("o", "o_custkey"), AI("c", "c_custkey"));
  q.AddJoin(AI("c", "c_nationkey"), AI("n1", "n_nationkey"));
  q.AddJoin(AI("n1", "n_regionkey"), AI("r", "r_regionkey"));
  q.AddJoin(AI("l", "l_suppkey"), AI("s", "s_suppkey"));
  q.AddJoin(AI("s", "s_nationkey"), AI("n2", "n_nationkey"));
  q.GroupBy({Year(AD("o", "o_orderdate"))});
  q.Aggregate(AggSpec::Sum(Case({Eq(AS("n2", "n_name"), ConstString("BRAZIL")),
                                 Revenue(), ConstFloat(0.0)})));
  q.Aggregate(AggSpec::Sum(Revenue()));
  RowSet grouped = q.Execute(ctx);
  // mkt_share = brazil volume / total volume.
  RowSet shares =
      exec::ProjectExec(grouped, {Slot(0), Div(Slot(1), Slot(2))}, ctx);
  return exec::SortExec(std::move(shares), {{Slot(0), false}}, ctx);
}

RowSet Q9(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(T(rel, "p", "p_partkey", Like(AS("p", "p_name"), "%green%")));
  q.AddTable(T(rel, "l", "l_orderkey"));
  q.AddTable(T(rel, "ps", "ps_partkey"));
  q.AddTable(T(rel, "s", "s_suppkey"));
  q.AddTable(T(rel, "o", "o_orderkey"));
  q.AddTable(T(rel, "n", "n_nationkey"));
  q.AddJoin(AI("ps", "ps_partkey"), AI("l", "l_partkey"));
  q.AddJoin(AI("ps", "ps_suppkey"), AI("l", "l_suppkey"));
  q.AddJoin(AI("p", "p_partkey"), AI("l", "l_partkey"));
  q.AddJoin(AI("s", "s_suppkey"), AI("l", "l_suppkey"));
  q.AddJoin(AI("o", "o_orderkey"), AI("l", "l_orderkey"));
  q.AddJoin(AI("s", "s_nationkey"), AI("n", "n_nationkey"));
  q.GroupBy({AS("n", "n_name"), Year(AD("o", "o_orderdate"))});
  q.Aggregate(AggSpec::Sum(
      Sub(Revenue(), Mul(AF("ps", "ps_supplycost"), AI("l", "l_quantity")))));
  q.OrderBy(Slot(0));
  q.OrderBy(Slot(1), /*descending=*/true);
  return q.Execute(ctx);
}

RowSet Q10(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(T(rel, "c", "c_custkey"));
  q.AddTable(T(rel, "o", "o_orderkey",
               And(Ge(AD("o", "o_orderdate"), ConstDate("1993-10-01")),
                   Lt(AD("o", "o_orderdate"), ConstDate("1994-01-01")))));
  q.AddTable(T(rel, "l", "l_orderkey",
               Eq(AS("l", "l_returnflag"), ConstString("R"))));
  q.AddTable(T(rel, "n", "n_nationkey"));
  q.AddJoin(AI("c", "c_custkey"), AI("o", "o_custkey"));
  q.AddJoin(AI("l", "l_orderkey"), AI("o", "o_orderkey"));
  q.AddJoin(AI("c", "c_nationkey"), AI("n", "n_nationkey"));
  q.GroupBy({AI("c", "c_custkey"), AS("c", "c_name"), AF("c", "c_acctbal"),
             AS("c", "c_phone"), AS("n", "n_name"), AS("c", "c_address"),
             AS("c", "c_comment")});
  q.Aggregate(AggSpec::Sum(Revenue()));
  q.OrderBy(Slot(7), /*descending=*/true);
  q.OrderBy(Slot(0));
  q.Limit(20);
  return q.Execute(ctx);
}

RowSet Q11(const TableSource& rel, QueryContext& ctx) {
  auto build_value_block = [&]() {
    QueryBlock q;
    q.AddTable(T(rel, "ps", "ps_partkey"));
    q.AddTable(T(rel, "s", "s_suppkey"));
    q.AddTable(T(rel, "n", "n_nationkey",
                 Eq(AS("n", "n_name"), ConstString("GERMANY"))));
    q.AddJoin(AI("ps", "ps_suppkey"), AI("s", "s_suppkey"));
    q.AddJoin(AI("s", "s_nationkey"), AI("n", "n_nationkey"));
    q.GroupBy({AI("ps", "ps_partkey")});
    q.Aggregate(AggSpec::Sum(
        Mul(AF("ps", "ps_supplycost"), AI("ps", "ps_availqty"))));
    return q.Execute(ctx);
  };
  RowSet per_part = build_value_block();
  RowSet total = exec::AggregateExec(per_part, {}, {AggSpec::Sum(Slot(1))}, ctx);
  double threshold = opt::ScalarResult(total).AsDouble() * 0.0001;
  RowSet filtered = exec::FilterExec(std::move(per_part),
                                     Gt(Slot(1), ConstFloat(threshold)), ctx);
  return exec::SortExec(std::move(filtered), {{Slot(1), true}}, ctx);
}

RowSet Q12(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(T(rel, "o", "o_orderkey"));
  q.AddTable(
      T(rel, "l", "l_orderkey",
        And({InList(AS("l", "l_shipmode"), {"MAIL", "SHIP"}),
             Lt(AD("l", "l_commitdate"), AD("l", "l_receiptdate")),
             Lt(AD("l", "l_shipdate"), AD("l", "l_commitdate")),
             Ge(AD("l", "l_receiptdate"), ConstDate("1994-01-01")),
             Lt(AD("l", "l_receiptdate"), ConstDate("1995-01-01"))})));
  q.AddJoin(AI("o", "o_orderkey"), AI("l", "l_orderkey"));
  q.GroupBy({AS("l", "l_shipmode")});
  q.Aggregate(AggSpec::Sum(Case(
      {InList(AS("o", "o_orderpriority"), {"1-URGENT", "2-HIGH"}), ConstInt(1),
       ConstInt(0)})));
  q.Aggregate(AggSpec::Sum(Case(
      {InList(AS("o", "o_orderpriority"), {"1-URGENT", "2-HIGH"}), ConstInt(0),
       ConstInt(1)})));
  q.OrderBy(Slot(0));
  return q.Execute(ctx);
}

RowSet Q13(const TableSource& rel, QueryContext& ctx) {
  QueryBlock ob;
  ob.AddTable(T(rel, "o", "o_orderkey",
                Like(AS("o", "o_comment"), "%special%requests%",
                     /*negated=*/true)));
  ob.Select({AI("o", "o_custkey")});
  RowSet orders = ob.Execute(ctx);

  QueryBlock cb;
  cb.AddTable(T(rel, "c", "c_custkey"));
  cb.Select({AI("c", "c_custkey")});
  RowSet customers = cb.Execute(ctx);

  RowSet joined = exec::HashJoinExec(orders, customers, {Slot(0)}, {Slot(0)},
                                     exec::JoinType::kLeft, nullptr, ctx);
  // joined = [c_custkey, o_custkey-or-null]; orders per customer.
  RowSet per_customer =
      exec::AggregateExec(joined, {Slot(0)}, {AggSpec::Count(Slot(1))}, ctx);
  // distribution of counts.
  RowSet dist = exec::AggregateExec(per_customer, {Slot(1)},
                                    {AggSpec::CountStar()}, ctx);
  return exec::SortExec(std::move(dist), {{Slot(1), true}, {Slot(0), true}}, ctx);
}

RowSet Q14(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(T(rel, "l", "l_orderkey",
               And(Ge(AD("l", "l_shipdate"), ConstDate("1995-09-01")),
                   Lt(AD("l", "l_shipdate"), ConstDate("1995-10-01")))));
  q.AddTable(T(rel, "p", "p_partkey"));
  q.AddJoin(AI("l", "l_partkey"), AI("p", "p_partkey"));
  q.GroupBy({});
  q.Aggregate(AggSpec::Sum(
      Case({Like(AS("p", "p_type"), "PROMO%"), Revenue(), ConstFloat(0.0)})));
  q.Aggregate(AggSpec::Sum(Revenue()));
  RowSet grouped = q.Execute(ctx);
  return exec::ProjectExec(
      grouped, {Mul(ConstFloat(100.0), Div(Slot(0), Slot(1)))}, ctx);
}

RowSet Q15(const TableSource& rel, QueryContext& ctx) {
  QueryBlock lb;
  lb.AddTable(T(rel, "l", "l_orderkey",
                And(Ge(AD("l", "l_shipdate"), ConstDate("1996-01-01")),
                    Lt(AD("l", "l_shipdate"), ConstDate("1996-04-01")))));
  lb.GroupBy({AI("l", "l_suppkey")});
  lb.Aggregate(AggSpec::Sum(Revenue()));
  RowSet revenue = lb.Execute(ctx);

  RowSet max_rev = exec::AggregateExec(revenue, {}, {AggSpec::Max(Slot(1))}, ctx);
  double best = opt::ScalarResult(max_rev).AsDouble();
  RowSet top = exec::FilterExec(std::move(revenue),
                                Ge(Slot(1), ConstFloat(best)), ctx);

  QueryBlock sb;
  sb.AddTable(T(rel, "s", "s_suppkey"));
  sb.AddTable(TableRef::Rows("r", &top, {"suppkey", "total"}));
  sb.AddJoin(AI("s", "s_suppkey"),
             exec::Access("r", {"suppkey"}, ValueType::kInt));
  sb.Select({AI("s", "s_suppkey"), AS("s", "s_name"), AS("s", "s_address"),
             AS("s", "s_phone"),
             exec::Access("r", {"total"}, ValueType::kFloat)});
  sb.OrderBy(Slot(0));
  return sb.Execute(ctx);
}

RowSet Q16(const TableSource& rel, QueryContext& ctx) {
  QueryBlock bad;
  bad.AddTable(T(rel, "s", "s_suppkey",
                 Like(AS("s", "s_comment"), "%Customer%Complaints%")));
  bad.Select({AI("s", "s_suppkey")});
  RowSet bad_suppliers = bad.Execute(ctx);

  QueryBlock q;
  q.AddTable(T(rel, "p", "p_partkey",
               And({Ne(AS("p", "p_brand"), ConstString("Brand#45")),
                    Like(AS("p", "p_type"), "MEDIUM POLISHED%",
                         /*negated=*/true),
                    InListInt(AI("p", "p_size"),
                              {49, 14, 23, 45, 19, 3, 36, 9})})));
  q.AddTable(T(rel, "ps", "ps_partkey"));
  q.AddJoin(AI("ps", "ps_partkey"), AI("p", "p_partkey"));
  q.Select({AS("p", "p_brand"), AS("p", "p_type"), AI("p", "p_size"),
            AI("ps", "ps_suppkey")});
  RowSet partsupp = q.Execute(ctx);

  RowSet kept = exec::HashJoinExec(bad_suppliers, partsupp, {Slot(0)}, {Slot(3)},
                                   exec::JoinType::kAnti, nullptr, ctx);
  RowSet agg = exec::AggregateExec(kept, {Slot(0), Slot(1), Slot(2)},
                                   {AggSpec::CountDistinct(Slot(3))}, ctx);
  return exec::SortExec(
      std::move(agg),
      {{Slot(3), true}, {Slot(0), false}, {Slot(1), false}, {Slot(2), false}},
      ctx);
}

RowSet Q17(const TableSource& rel, QueryContext& ctx) {
  QueryBlock avg_block;
  avg_block.AddTable(T(rel, "l", "l_orderkey"));
  avg_block.GroupBy({AI("l", "l_partkey")});
  avg_block.Aggregate(AggSpec::Avg(AI("l", "l_quantity")));
  RowSet avg_qty = avg_block.Execute(ctx);

  QueryBlock q;
  q.AddTable(T(rel, "p", "p_partkey",
               And(Eq(AS("p", "p_brand"), ConstString("Brand#23")),
                   Eq(AS("p", "p_container"), ConstString("MED BOX")))));
  q.AddTable(T(rel, "l", "l_orderkey"));
  q.AddTable(TableRef::Rows("a", &avg_qty, {"partkey", "avgqty"}));
  q.AddJoin(AI("l", "l_partkey"), AI("p", "p_partkey"));
  q.AddJoin(AI("l", "l_partkey"),
            exec::Access("a", {"partkey"}, ValueType::kInt),
            Lt(AI("l", "l_quantity"),
               Mul(ConstFloat(0.2),
                   exec::Access("a", {"avgqty"}, ValueType::kFloat))));
  q.GroupBy({});
  q.Aggregate(AggSpec::Sum(AF("l", "l_extendedprice")));
  RowSet total = q.Execute(ctx);
  return exec::ProjectExec(total, {Div(Slot(0), ConstFloat(7.0))}, ctx);
}

RowSet Q18(const TableSource& rel, QueryContext& ctx) {
  QueryBlock lb;
  lb.AddTable(T(rel, "l", "l_orderkey"));
  lb.GroupBy({AI("l", "l_orderkey")});
  lb.Aggregate(AggSpec::Sum(AI("l", "l_quantity")));
  lb.Having(Gt(Slot(1), ConstInt(300)));
  RowSet big_orders = lb.Execute(ctx);

  QueryBlock q;
  q.AddTable(T(rel, "c", "c_custkey"));
  q.AddTable(T(rel, "o", "o_orderkey"));
  q.AddTable(TableRef::Rows("b", &big_orders, {"orderkey", "sumqty"}));
  q.AddJoin(AI("o", "o_custkey"), AI("c", "c_custkey"));
  q.AddJoin(AI("o", "o_orderkey"),
            exec::Access("b", {"orderkey"}, ValueType::kInt));
  q.GroupBy({AS("c", "c_name"), AI("c", "c_custkey"), AI("o", "o_orderkey"),
             AD("o", "o_orderdate"), AF("o", "o_totalprice")});
  q.Aggregate(
      AggSpec::Max(exec::Access("b", {"sumqty"}, ValueType::kFloat)));
  q.OrderBy(Slot(4), /*descending=*/true);
  q.OrderBy(Slot(3));
  q.Limit(100);
  return q.Execute(ctx);
}

RowSet Q19(const TableSource& rel, QueryContext& ctx) {
  QueryBlock q;
  q.AddTable(T(rel, "l", "l_orderkey",
               And(InList(AS("l", "l_shipmode"), {"AIR", "REG AIR"}),
                   Eq(AS("l", "l_shipinstruct"),
                      ConstString("DELIVER IN PERSON")))));
  q.AddTable(T(rel, "p", "p_partkey"));
  q.AddJoin(AI("l", "l_partkey"), AI("p", "p_partkey"));
  auto branch = [&](const char* brand,
                    std::vector<std::string> containers, int64_t qlo,
                    int64_t qhi, int64_t size_hi) {
    return And({Eq(AS("p", "p_brand"), ConstString(brand)),
                InList(AS("p", "p_container"), std::move(containers)),
                Between(AI("l", "l_quantity"), ConstInt(qlo), ConstInt(qhi)),
                Between(AI("p", "p_size"), ConstInt(1), ConstInt(size_hi))});
  };
  q.Where(Or(Or(branch("Brand#12", {"SM CASE", "SM BOX", "SM PACK", "SM PKG"},
                       1, 11, 5),
                branch("Brand#23", {"MED BAG", "MED BOX", "MED PKG", "MED PACK"},
                       10, 20, 10)),
             branch("Brand#34", {"LG CASE", "LG BOX", "LG PACK", "LG PKG"},
                    20, 30, 15)));
  q.GroupBy({});
  q.Aggregate(AggSpec::Sum(Revenue()));
  return q.Execute(ctx);
}

RowSet Q20(const TableSource& rel, QueryContext& ctx) {
  QueryBlock pb;
  pb.AddTable(T(rel, "p", "p_partkey", Like(AS("p", "p_name"), "forest%")));
  pb.Select({AI("p", "p_partkey")});
  RowSet forest_parts = pb.Execute(ctx);

  QueryBlock lb;
  lb.AddTable(T(rel, "l", "l_orderkey",
                And(Ge(AD("l", "l_shipdate"), ConstDate("1994-01-01")),
                    Lt(AD("l", "l_shipdate"), ConstDate("1995-01-01")))));
  lb.GroupBy({AI("l", "l_partkey"), AI("l", "l_suppkey")});
  lb.Aggregate(AggSpec::Sum(AI("l", "l_quantity")));
  RowSet shipped = lb.Execute(ctx);

  QueryBlock sel;
  sel.AddTable(T(rel, "ps", "ps_partkey"));
  sel.AddTable(TableRef::Rows("fp", &forest_parts, {"partkey"}));
  sel.AddTable(TableRef::Rows("sq", &shipped, {"partkey", "suppkey", "qty"}));
  sel.AddJoin(AI("ps", "ps_partkey"),
              exec::Access("fp", {"partkey"}, ValueType::kInt));
  sel.AddJoin(AI("ps", "ps_partkey"),
              exec::Access("sq", {"partkey"}, ValueType::kInt));
  sel.AddJoin(AI("ps", "ps_suppkey"),
              exec::Access("sq", {"suppkey"}, ValueType::kInt),
              Gt(AI("ps", "ps_availqty"),
                 Mul(ConstFloat(0.5),
                     exec::Access("sq", {"qty"}, ValueType::kFloat))));
  sel.Select({AI("ps", "ps_suppkey")});
  RowSet eligible = sel.Execute(ctx);

  QueryBlock sb;
  sb.AddTable(T(rel, "s", "s_suppkey"));
  sb.AddTable(T(rel, "n", "n_nationkey",
                Eq(AS("n", "n_name"), ConstString("CANADA"))));
  sb.AddJoin(AI("s", "s_nationkey"), AI("n", "n_nationkey"));
  sb.Select({AI("s", "s_suppkey"), AS("s", "s_name"), AS("s", "s_address")});
  RowSet canadian = sb.Execute(ctx);

  RowSet result = exec::HashJoinExec(eligible, canadian, {Slot(0)}, {Slot(0)},
                                     exec::JoinType::kSemi, nullptr, ctx);
  return exec::SortExec(std::move(result), {{Slot(1), false}}, ctx);
}

RowSet Q21(const TableSource& rel, QueryContext& ctx) {
  // l2: any lineitem per order/supplier.
  QueryBlock l2b;
  l2b.AddTable(T(rel, "l", "l_orderkey"));
  l2b.Select({AI("l", "l_orderkey"), AI("l", "l_suppkey")});
  RowSet l2 = l2b.Execute(ctx);

  // l3: late lineitems per order/supplier.
  QueryBlock l3b;
  l3b.AddTable(T(rel, "l", "l_orderkey",
                 Gt(AD("l", "l_receiptdate"), AD("l", "l_commitdate"))));
  l3b.Select({AI("l", "l_orderkey"), AI("l", "l_suppkey")});
  RowSet l3 = l3b.Execute(ctx);

  // l1: late lines of 'F' orders by Saudi suppliers.
  QueryBlock l1b;
  l1b.AddTable(T(rel, "l1", "l_orderkey",
                 Gt(AD("l1", "l_receiptdate"), AD("l1", "l_commitdate"))));
  l1b.AddTable(T(rel, "o", "o_orderkey",
                 Eq(AS("o", "o_orderstatus"), ConstString("F"))));
  l1b.AddTable(T(rel, "s", "s_suppkey"));
  l1b.AddTable(T(rel, "n", "n_nationkey",
                 Eq(AS("n", "n_name"), ConstString("SAUDI ARABIA"))));
  l1b.AddJoin(AI("o", "o_orderkey"), AI("l1", "l_orderkey"));
  l1b.AddJoin(AI("s", "s_suppkey"), AI("l1", "l_suppkey"));
  l1b.AddJoin(AI("s", "s_nationkey"), AI("n", "n_nationkey"));
  l1b.Select({AS("s", "s_name"), AI("l1", "l_orderkey"), AI("l1", "l_suppkey")});
  RowSet l1 = l1b.Execute(ctx);

  // exists l2 with same order, different supplier.
  // Combined row during probe: [probe(3): name, orderkey, suppkey,
  // build(2): orderkey, suppkey].
  RowSet with_other = exec::HashJoinExec(l2, l1, {Slot(0)}, {Slot(1)},
                                         exec::JoinType::kSemi,
                                         Ne(Slot(4), Slot(2)), ctx);
  // not exists l3 with same order, different supplier.
  RowSet waiting = exec::HashJoinExec(l3, with_other, {Slot(0)}, {Slot(1)},
                                      exec::JoinType::kAnti,
                                      Ne(Slot(4), Slot(2)), ctx);
  RowSet agg =
      exec::AggregateExec(waiting, {Slot(0)}, {AggSpec::CountStar()}, ctx);
  agg = exec::SortExec(std::move(agg), {{Slot(1), true}, {Slot(0), false}}, ctx);
  return exec::LimitExec(std::move(agg), 100, ctx);
}

RowSet Q22(const TableSource& rel, QueryContext& ctx) {
  std::vector<std::string> codes = {"13", "31", "23", "29", "30", "18", "17"};

  QueryBlock avg_block;
  avg_block.AddTable(
      T(rel, "c", "c_custkey",
        And(Gt(AF("c", "c_acctbal"), ConstFloat(0.0)),
            InList(Substring(AS("c", "c_phone"), 1, 2), codes))));
  avg_block.GroupBy({});
  avg_block.Aggregate(AggSpec::Avg(AF("c", "c_acctbal")));
  double avg_bal = opt::ScalarResult(avg_block.Execute(ctx)).AsDouble();

  QueryBlock ob;
  ob.AddTable(T(rel, "o", "o_orderkey"));
  ob.Select({AI("o", "o_custkey")});
  RowSet orders = ob.Execute(ctx);

  QueryBlock cb;
  cb.AddTable(T(rel, "c", "c_custkey",
                And(InList(Substring(AS("c", "c_phone"), 1, 2), codes),
                    Gt(AF("c", "c_acctbal"), ConstFloat(avg_bal)))));
  cb.Select({Substring(AS("c", "c_phone"), 1, 2), AF("c", "c_acctbal"),
             AI("c", "c_custkey")});
  RowSet customers = cb.Execute(ctx);

  RowSet no_orders = exec::HashJoinExec(orders, customers, {Slot(0)}, {Slot(2)},
                                        exec::JoinType::kAnti, nullptr, ctx);
  RowSet agg = exec::AggregateExec(
      no_orders, {Slot(0)}, {AggSpec::CountStar(), AggSpec::Sum(Slot(1))}, ctx);
  return exec::SortExec(std::move(agg), {{Slot(0), false}}, ctx);
}

}  // namespace

exec::RowSet RunTpchQuery(int number, const opt::TableSource& rel, QueryContext& ctx) {
  switch (number) {
    case 1: return Q1(rel, ctx);
    case 2: return Q2(rel, ctx);
    case 3: return Q3(rel, ctx);
    case 4: return Q4(rel, ctx);
    case 5: return Q5(rel, ctx);
    case 6: return Q6(rel, ctx);
    case 7: return Q7(rel, ctx);
    case 8: return Q8(rel, ctx);
    case 9: return Q9(rel, ctx);
    case 10: return Q10(rel, ctx);
    case 11: return Q11(rel, ctx);
    case 12: return Q12(rel, ctx);
    case 13: return Q13(rel, ctx);
    case 14: return Q14(rel, ctx);
    case 15: return Q15(rel, ctx);
    case 16: return Q16(rel, ctx);
    case 17: return Q17(rel, ctx);
    case 18: return Q18(rel, ctx);
    case 19: return Q19(rel, ctx);
    case 20: return Q20(rel, ctx);
    case 21: return Q21(rel, ctx);
    case 22: return Q22(rel, ctx);
    default: JSONTILES_CHECK(false);
  }
}

}  // namespace jsontiles::workload
