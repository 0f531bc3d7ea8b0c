#include "opt/query.h"

#include <algorithm>
#include <unordered_map>

#include "exec/exchange.h"
#include "exec/expr_compile.h"
#include "obs/obs.h"
#include "obs/plan_profile.h"
#include "opt/cardinality.h"
#include "opt/join_order.h"
#include "tiles/keypath.h"
#include "util/logging.h"

namespace jsontiles::opt {

using exec::AggSpec;
using exec::Expr;
using exec::ExprPtr;
using exec::RowSet;
using exec::Value;

QueryBlock& QueryBlock::AddTable(TableRef table) {
  tables_.push_back(std::move(table));
  return *this;
}

QueryBlock& QueryBlock::AddJoin(ExprPtr left, ExprPtr right, ExprPtr residual) {
  joins_.push_back(JoinEdge{std::move(left), std::move(right), std::move(residual)});
  return *this;
}

QueryBlock& QueryBlock::Where(ExprPtr predicate) {
  where_ = std::move(predicate);
  return *this;
}

QueryBlock& QueryBlock::GroupBy(std::vector<ExprPtr> keys) {
  group_by_ = std::move(keys);
  return *this;
}

QueryBlock& QueryBlock::Aggregate(AggSpec agg) {
  aggs_.push_back(std::move(agg));
  return *this;
}

QueryBlock& QueryBlock::Having(ExprPtr predicate) {
  having_ = std::move(predicate);
  return *this;
}

QueryBlock& QueryBlock::Select(std::vector<ExprPtr> projections) {
  projections_ = std::move(projections);
  return *this;
}

QueryBlock& QueryBlock::OrderBy(ExprPtr key, bool descending) {
  order_by_.push_back(exec::SortKey{std::move(key), descending});
  return *this;
}

QueryBlock& QueryBlock::Limit(size_t n) {
  limit_ = n;
  has_limit_ = true;
  return *this;
}

namespace {

// The table alias an expression's accesses belong to (checked single-table).
std::string OwningTable(const ExprPtr& e) {
  std::vector<ExprPtr> accesses;
  exec::CollectAccesses(e, &accesses);
  JSONTILES_CHECK(!accesses.empty());
  for (const auto& a : accesses) {
    JSONTILES_CHECK(a->table == accesses[0]->table);
  }
  return accesses[0]->table;
}

// Pseudo-scan of a materialized row set: output = the spec's accesses, cast
// to the requested types; its filter applied.
RowSet ScanRowset(const TableRef& table, const exec::ScanSpec& spec,
                  exec::QueryContext& ctx) {
  const std::vector<ExprPtr>& accesses = spec.accesses;
  // The filter's conjuncts run per row as residuals (none: keep every row).
  const exec::CompiledPredicate keep =
      exec::CompiledPredicate::Residuals(spec.filter);
  obs::OperatorProfiler prof(ctx.profile, "ScanRows", table.alias);
  prof.set_rows_in(table.rowset->size());
  Arena* arena = ctx.arena(0);
  std::vector<int> column_of(accesses.size(), -1);
  for (size_t i = 0; i < accesses.size(); i++) {
    std::string name = tiles::PathToDisplayString(accesses[i]->path);
    for (size_t c = 0; c < table.rowset_columns.size(); c++) {
      if (table.rowset_columns[c] == name) {
        column_of[i] = static_cast<int>(c);
        break;
      }
    }
    JSONTILES_CHECK(column_of[i] >= 0);
  }
  // Every row is written in place into an output sized once; the filter
  // then compacts away the rows it rejects.
  RowSet out(accesses.size());
  out.resize(table.rowset->size());
  for (size_t r = 0; r < out.size(); r++) {
    const exec::RowView row = (*table.rowset)[r];
    exec::RowRef slots = out[r];
    for (size_t i = 0; i < accesses.size(); i++) {
      const Value& v = row[static_cast<size_t>(column_of[i])];
      slots[i] = v.type == accesses[i]->access_type
                     ? v
                     : exec::CastValue(v, accesses[i]->access_type, arena);
    }
  }
  keep.CompactResiduals(&out, 0, arena);
  prof.set_rows_out(out.size());
  return out;
}

}  // namespace

/// Everything the planning prefix produces; scoped to one Execute/Explain.
struct QueryBlock::PlanState {
  std::unordered_map<std::string, size_t> table_index;
  /// One scan per table: one slot per distinct access (§4.2 push-down), the
  /// table filter over those slots, and the null-rejecting paths and range
  /// predicates that let the scan skip tiles (§4.8). The same spec drives
  /// the plan-time estimate and the execution; row-set tables use only its
  /// accesses and filter.
  std::vector<exec::ScanSpec> specs;
  /// Left-deep join sequence over table indices.
  std::vector<int> sequence;
  /// Estimated scan output cardinality per table (declaration order).
  std::vector<double> cards;
  /// C_out of the chosen sequence; 0 unless the DP search ran.
  double estimated_cost = 0;

  int LocalSlot(size_t table, const Expr& access) const {
    const auto& list = specs[table].accesses;
    for (size_t i = 0; i < list.size(); i++) {
      if (exec::SameAccess(*list[i], access)) return static_cast<int>(i);
    }
    return -1;
  }
};

Status QueryBlock::BuildPlan(bool estimate_all, PlanState* state) {
  const size_t num_tables = tables_.size();
  JSONTILES_CHECK(num_tables > 0);

  auto& table_index = state->table_index;
  for (size_t i = 0; i < num_tables; i++) table_index[tables_[i].alias] = i;

  // ---- Access push-down (§4.2): one slot per distinct access per table. ---
  auto& specs = state->specs;
  specs.assign(num_tables, {});
  auto register_accesses = [&](const ExprPtr& e) {
    if (e == nullptr) return;
    std::vector<ExprPtr> found;
    exec::CollectAccesses(e, &found);
    for (const auto& a : found) {
      auto it = table_index.find(a->table);
      JSONTILES_CHECK(it != table_index.end());
      auto& list = specs[it->second].accesses;
      bool exists = false;
      for (const auto& existing : list) {
        if (exec::SameAccess(*existing, *a)) {
          exists = true;
          break;
        }
      }
      if (!exists) list.push_back(a);
    }
  };
  for (const auto& t : tables_) register_accesses(t.filter);
  for (const auto& j : joins_) {
    register_accesses(j.left);
    register_accesses(j.right);
    register_accesses(j.residual);
  }
  register_accesses(where_);
  for (const auto& e : group_by_) register_accesses(e);
  for (const auto& a : aggs_) register_accesses(a.arg);
  for (const auto& e : projections_) register_accesses(e);

  // ---- Per-table scans: filters over local slots, null-rejecting paths
  // ---- (filters + inner-join keys, §4.8) and zone-map range predicates.
  for (size_t i = 0; i < num_tables; i++) {
    const TableRef& t = tables_[i];
    exec::ScanSpec& spec = specs[i];
    spec.relation = t.relation;
    spec.sharded = t.sharded;
    spec.table_alias = t.alias;
    if (t.filter != nullptr) {
      spec.filter = exec::RewriteAccessesToSlots(
          t.filter, [&](const Expr& a) { return state->LocalSlot(i, a); });
    }
    exec::CollectNullRejectingPaths(t.filter, t.alias,
                                    &spec.null_rejecting_paths);
    exec::CollectRangePredicates(t.filter, t.alias, &spec.range_predicates);
  }
  for (const auto& j : joins_) {
    for (const ExprPtr& side : {j.left, j.right}) {
      std::vector<ExprPtr> found;
      exec::CollectAccesses(side, &found);
      for (const auto& a : found) {
        // Virtual row ids exist for every row; they reject nothing.
        if (a->path == exec::kRowIdPath) continue;
        specs[table_index[a->table]].null_rejecting_paths.push_back(a->path);
      }
    }
  }

  // ---- Cardinality estimation (§4.6). --------------------------------------
  auto& sequence = state->sequence;
  auto& cards = state->cards;
  sequence.resize(num_tables);
  for (size_t i = 0; i < num_tables; i++) sequence[i] = static_cast<int>(i);
  cards.assign(num_tables, 1);
  if (num_tables > 1 || estimate_all) {
    JSONTILES_TRACE_SPAN("opt.estimate");
    for (size_t i = 0; i < num_tables; i++) {
      const TableRef& t = tables_[i];
      if (t.rowset != nullptr) {
        cards[i] = static_cast<double>(t.rowset->size());
        continue;
      }
      auto estimate = EstimateScanCardinality(specs[i]);
      JSONTILES_RETURN_NOT_OK(estimate.status());
      cards[i] = estimate.ValueOrDie();
    }
  }

  // ---- Join ordering (§4.6). ----------------------------------------------
  if (num_tables > 1) {
    JSONTILES_TRACE_SPAN("opt.join_order");
    JoinGraph graph;
    graph.table_cardinalities = cards;
    for (const auto& j : joins_) {
      JoinGraph::Edge edge;
      size_t lt = table_index[OwningTable(j.left)];
      size_t rt = table_index[OwningTable(j.right)];
      edge.left = static_cast<int>(lt);
      edge.right = static_cast<int>(rt);
      auto key_distinct = [&](const ExprPtr& key, size_t t) -> double {
        return key->kind == exec::ExprKind::kAccess
                   ? EstimateJoinKeyDistinct(specs[t], key->path, cards[t])
                   : cards[t];
      };
      edge.left_distinct = key_distinct(j.left, lt);
      edge.right_distinct = key_distinct(j.right, rt);
      graph.edges.push_back(edge);
    }
    JoinOrderResult result = OptimizeJoinOrder(graph);
    sequence = std::move(result.sequence);
    state->estimated_cost = result.estimated_cost;
  }
  return Status::OK();
}

Result<PlanEstimate> QueryBlock::Explain() {
  PlanState state;
  JSONTILES_RETURN_NOT_OK(BuildPlan(/*estimate_all=*/true, &state));
  PlanEstimate out;
  out.join_order.reserve(state.sequence.size());
  out.table_rows.reserve(state.sequence.size());
  for (int t : state.sequence) {
    out.join_order.push_back(tables_[static_cast<size_t>(t)].alias);
    out.table_rows.push_back(state.cards[static_cast<size_t>(t)]);
  }
  out.estimated_cost = state.estimated_cost;
  return out;
}

RowSet QueryBlock::Execute(exec::QueryContext& ctx) {
  PlanState state;
  Status planned = BuildPlan(/*estimate_all=*/false, &state);
  if (!planned.ok()) {
    // A failed plan-time sample fails the query like a failed scan would.
    ctx.Cancel(std::move(planned));
    return {};
  }

  const size_t num_tables = tables_.size();
  auto& table_index = state.table_index;
  auto& specs = state.specs;
  auto& sequence = state.sequence;
  auto local_slot = [&](size_t table, const Expr& access) -> int {
    return state.LocalSlot(table, access);
  };
  const bool aggregated = !aggs_.empty() || !group_by_.empty();

  // ---- Distributed partial-aggregate push-down (DESIGN.md §13). -------------
  // A single-table aggregate over a cluster-served sharded relation skips the
  // scan/aggregate pair entirely: workers scan their shards and aggregate
  // locally, the coordinator merges partials through the same accumulators.
  // With one table the global slot layout below equals the scan's local
  // layout, so the rewritten expressions are valid on the worker side.
  const bool push_down_aggregate =
      ctx.dist != nullptr && num_tables == 1 && joins_.empty() &&
      where_ == nullptr && aggregated && tables_[0].sharded != nullptr &&
      ctx.dist->Serves(tables_[0].sharded);

  // Global slot layout: tables in join order, each contributing its accesses.
  std::vector<int> slot_offset(num_tables, -1);
  auto global_slot_fn = [&](const Expr& access) -> int {
    size_t t = table_index[access.table];
    JSONTILES_CHECK(slot_offset[t] >= 0);
    int local = local_slot(t, access);
    return slot_offset[t] + local;
  };
  // Profiled runs wire the plan tree as the operators execute: every operator
  // appends exactly one entry, so ctx.profile->last_id() after a call is that
  // operator's node.
  obs::PlanProfile* profile = ctx.profile;
  auto chain_last = [&]() {
    if (profile != nullptr) profile->Chain(profile->last_id());
  };

  RowSet acc;
  if (push_down_aggregate) {
    slot_offset[0] = 0;
  } else {
    // ---- Scans. -------------------------------------------------------------
    std::vector<int> scan_node(num_tables, -1);
    std::vector<RowSet> scanned(num_tables);
    for (size_t i = 0; i < num_tables; i++) {
      scanned[i] = tables_[i].rowset != nullptr
                       ? ScanRowset(tables_[i], specs[i], ctx)
                       : exec::ScanExec(specs[i], ctx);
      if (profile != nullptr) scan_node[i] = profile->last_id();
      // A failed scan cancels the query; stop planning work immediately (the
      // SQL boundary surfaces the recorded Status).
      if (ctx.cancelled()) return {};
    }

    // ---- Left-deep joins in the chosen order. -------------------------------
    size_t first = static_cast<size_t>(sequence[0]);
    slot_offset[first] = 0;
    size_t next_offset = specs[first].accesses.size();
    acc = std::move(scanned[first]);
    std::vector<bool> joined(joins_.size(), false);
    if (profile != nullptr) profile->SetRoot(scan_node[first]);

    for (size_t k = 1; k < sequence.size(); k++) {
      size_t t = static_cast<size_t>(sequence[k]);
      // Edges connecting t to the current set become join keys / residuals.
      std::vector<ExprPtr> probe_keys, build_keys;
      std::vector<ExprPtr> residuals;
      for (size_t j = 0; j < joins_.size(); j++) {
        if (joined[j]) continue;
        size_t lt = table_index[OwningTable(joins_[j].left)];
        size_t rt = table_index[OwningTable(joins_[j].right)];
        bool l_in = slot_offset[lt] >= 0;
        bool r_in = slot_offset[rt] >= 0;
        ExprPtr t_side, set_side;
        if (lt == t && r_in) {
          t_side = joins_[j].left;
          set_side = joins_[j].right;
        } else if (rt == t && l_in) {
          t_side = joins_[j].right;
          set_side = joins_[j].left;
        } else {
          continue;
        }
        joined[j] = true;
        build_keys.push_back(exec::RewriteAccessesToSlots(
            t_side, [&](const Expr& a) { return local_slot(t, a); }));
        probe_keys.push_back(
            exec::RewriteAccessesToSlots(set_side, global_slot_fn));
        if (joins_[j].residual != nullptr) residuals.push_back(joins_[j].residual);
      }
      // Combined layout after this join: [acc..., t...].
      slot_offset[t] = static_cast<int>(next_offset);
      next_offset += specs[t].accesses.size();
      ExprPtr residual = nullptr;
      if (!residuals.empty()) {
        residual =
            exec::RewriteAccessesToSlots(exec::And(residuals), global_slot_fn);
      }
      acc = exec::HashJoinExec(scanned[t], acc, build_keys, probe_keys,
                               exec::JoinType::kInner, residual, ctx);
      scanned[t] = RowSet();  // release the build side's array now
      if (ctx.cancelled()) return {};
      if (profile != nullptr) {
        // Probe (the accumulated plan so far) first, build scan second.
        int join_id = profile->last_id();
        profile->op(join_id).children.push_back(profile->root());
        profile->op(join_id).children.push_back(scan_node[t]);
        profile->SetRoot(join_id);
      }
    }

    // ---- Post-join cross-table predicate. ------------------------------------
    if (where_ != nullptr) {
      acc = exec::FilterExec(
          std::move(acc), exec::RewriteAccessesToSlots(where_, global_slot_fn),
          ctx);
      chain_last();
    }
  }

  // ---- Aggregation / projection. --------------------------------------------
  RowSet out;
  if (aggregated) {
    std::vector<ExprPtr> keys;
    keys.reserve(group_by_.size());
    for (const auto& e : group_by_) {
      keys.push_back(exec::RewriteAccessesToSlots(e, global_slot_fn));
    }
    std::vector<AggSpec> aggs;
    aggs.reserve(aggs_.size());
    for (const auto& a : aggs_) {
      AggSpec rewritten = a;
      if (a.arg != nullptr) {
        rewritten.arg = exec::RewriteAccessesToSlots(a.arg, global_slot_fn);
      }
      aggs.push_back(std::move(rewritten));
    }
    if (push_down_aggregate) {
      out = exec::ExchangeAggregateExec(specs[0], keys, aggs, ctx);
      if (profile != nullptr) profile->SetRoot(profile->last_id());
    } else {
      out = exec::AggregateExec(acc, keys, aggs, ctx);
      chain_last();
    }
    if (ctx.cancelled()) return {};
    if (having_ != nullptr) {
      out = exec::FilterExec(std::move(out), having_, ctx);
      chain_last();
    }
  } else if (!projections_.empty()) {
    std::vector<ExprPtr> projected;
    projected.reserve(projections_.size());
    for (const auto& e : projections_) {
      projected.push_back(exec::RewriteAccessesToSlots(e, global_slot_fn));
    }
    out = exec::ProjectExec(acc, projected, ctx);
    chain_last();
  } else {
    out = std::move(acc);
  }

  if (!order_by_.empty()) {
    out = exec::SortExec(std::move(out), order_by_, ctx);
    chain_last();
  }
  if (has_limit_) {
    out = exec::LimitExec(std::move(out), limit_, ctx);
    chain_last();
  }
  return out;
}

Value ScalarResult(const RowSet& rows) {
  JSONTILES_CHECK(rows.size() == 1 && rows[0].size() >= 1);
  return rows[0][0];
}

}  // namespace jsontiles::opt
