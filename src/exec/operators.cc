#include "exec/operators.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>

#include "exec/agg_state.h"
#include "exec/batched_exprs.h"
#include "exec/expr_compile.h"
#include "exec/float_sum.h"
#include "exec/simd.h"
#include "exec/spill.h"
#include "exec/vector_batch.h"
#include "obs/obs.h"
#include "obs/plan_profile.h"
#include "util/bit_util.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/resource_governor.h"

namespace jsontiles::exec {

namespace {

// kKeyHashSeed / kPerRowTableOverhead / TotalValueOrder and the group table
// live in exec/agg_state.h: the distributed exchange shares them with this
// file so worker partials hash, group and tie-break exactly like local
// aggregation.

// Copy every string payload of `rows` into `arena`. Output rows of a spilled
// partition reference strings in the partition's read-back arena, which dies
// when the partition finishes — rescue them into a query-lifetime arena.
void RescueRowStrings(RowSet* rows, Arena* arena) {
  for (RowRef row : *rows) {
    for (Value& v : row) {
      if (v.type == ValueType::kString) v.s = arena->CopyString(v.s);
    }
  }
}

// Emit the spill counters on an operator node (only when it actually
// spilled, so unconstrained plans stay unchanged). Closes the ROADMAP item:
// EXPLAIN ANALYZE reports spilled bytes once operators spill. Also
// accumulates the query-level spill total the multi-tenant service exposes
// as the per-group quota-spill metric.
void ReportSpill(obs::OperatorProfiler& prof, const SpillStats& stats,
                 QueryContext& ctx) {
  ctx.spilled_bytes += stats.spilled_bytes;
  if (stats.spilled_bytes > 0) {
    prof.AddCounter("spilled_bytes",
                    static_cast<int64_t>(stats.spilled_bytes));
    prof.AddCounter("spill_partitions",
                    static_cast<int64_t>(stats.partitions));
    JSONTILES_COUNTER_ADD("exec.spill.bytes",
                          static_cast<int64_t>(stats.spilled_bytes));
    JSONTILES_COUNTER_ADD("exec.spill.partitions",
                          static_cast<int64_t>(stats.partitions));
  }
  if (stats.forced_inmem > 0) {
    prof.AddCounter("spill_forced_inmem",
                    static_cast<int64_t>(stats.forced_inmem));
  }
}

// Reports the query's arena growth across one operator as an `arena_bytes`
// counter (see QueryContext::arena_bytes()). Declare after the profiler so
// the counter lands before the profiler's destructor stamps the node.
class ArenaCounter {
 public:
  ArenaCounter(obs::OperatorProfiler& prof, QueryContext& ctx)
      : prof_(prof), ctx_(ctx), before_(prof.active() ? ctx.arena_bytes() : 0) {}
  ~ArenaCounter() {
    if (prof_.active()) {
      prof_.AddCounter("arena_bytes",
                       static_cast<int64_t>(ctx_.arena_bytes() - before_));
    }
  }

 private:
  obs::OperatorProfiler& prof_;
  QueryContext& ctx_;
  size_t before_;
};

}  // namespace

RowSet FilterExec(RowSet in, const ExprPtr& predicate, QueryContext& ctx) {
  if (predicate == nullptr) return in;
  JSONTILES_TRACE_SPAN("exec.filter");
  obs::OperatorProfiler prof(ctx.profile, "Filter");
  prof.set_rows_in(in.size());
  ArenaCounter arena_counter(prof, ctx);
  if (in.empty()) {
    prof.set_rows_out(0);
    return in;
  }
  Arena* arena = ctx.arena(0);
  // Compile the predicate conjunct by conjunct against slot types inferred
  // from the rows. Conjuncts that do not compile — all of them when a slot
  // holds mixed types — are interpreter residuals.
  std::vector<ValueType> slot_types(in[0].size(), ValueType::kNull);
  std::vector<int> slots;
  CollectSlotRefs(*predicate, &slots);
  CompiledPredicate pred =
      InferSlotTypes(in, slots, &slot_types)
          ? CompiledPredicate::Compile(predicate, slot_types)
          : CompiledPredicate::Residuals(predicate);

  // Batch at a time: compiled conjuncts intersect the selection vector
  // (slots are gathered lazily per conjunct, only for still-selected lanes),
  // then the residuals run on the surviving rows. Survivors compact in
  // place: rows [0, kept) are the output so far, and kept never passes the
  // row being read, so no unread row is overwritten.
  std::vector<ColumnVector> slot_vecs(in[0].size());
  std::vector<uint8_t> ready(in[0].size(), 0);
  SelectionVector sel;
  size_t kept = 0;
  int64_t batches = 0;
  for (size_t b = 0; b < in.size(); b += kVectorSize) {
    const size_t n = std::min(kVectorSize, in.size() - b);
    batches++;
    sel.SetAll(n);
    std::fill(ready.begin(), ready.end(), 0);
    for (auto& cj : pred.conjuncts()) {
      for (int s : cj.slots) {
        if (ready[s]) continue;
        ready[s] = 1;
        ColumnVector& vec = slot_vecs[s];
        vec.Reset(slot_types[s]);
        for (size_t k = 0; k < sel.count; k++) {
          const uint16_t r = sel.idx[k];
          vec.SetValue(r, in[b + r][s]);
        }
      }
      IntersectSelection(cj.program.Run(slot_vecs.data(), sel, arena), &sel);
      if (sel.empty()) break;
    }
    for (size_t k = 0; k < sel.count; k++) {
      const size_t r = b + sel.idx[k];
      if (pred.ResidualsHold(in[r].data(), arena)) in.CopyRow(kept++, r);
    }
  }
  if (pred.any_compiled()) {
    prof.AddCounter("vec_batches", batches);
    JSONTILES_COUNTER_ADD("exec.vec.batches", batches);
  }
  in.resize(kept);
  prof.set_rows_out(in.size());
  return in;
}

RowSet ProjectExec(const RowSet& in, const std::vector<ExprPtr>& exprs,
                   QueryContext& ctx) {
  JSONTILES_TRACE_SPAN("exec.project");
  obs::OperatorProfiler prof(ctx.profile, "Project",
                             std::to_string(exprs.size()) + " exprs");
  prof.set_rows_in(in.size());
  prof.set_rows_out(in.size());
  ArenaCounter arena_counter(prof, ctx);
  Arena* arena = ctx.arena(0);
  RowSet out(exprs.size());
  out.resize(in.size());
  BatchedExprs batched(in, RawExprs(exprs));
  for (size_t b = 0; b < in.size(); b += kVectorSize) {
    const size_t n = std::min(kVectorSize, in.size() - b);
    batched.LoadBatch(in, b, n, arena);
    for (size_t k = 0; k < n; k++) {
      RowView row = in[b + k];
      RowRef projected = out[b + k];
      for (size_t e = 0; e < exprs.size(); e++) {
        projected[e] = batched.Get(e, k, row, arena);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

namespace {

// In-memory aggregation over `in` into flat group tables (exec/agg_state.h).
// When `budgeted`, each table's group charge is reserved against
// ctx.budget() batch by batch as groups are created; a refused charge drops
// all partial state, sets *aborted and returns OK — the caller then takes
// the spill path. With `budgeted` false the tables grow freely (the forced
// path at the spill depth cap). Parallel workers each fill a private table
// over one contiguous input chunk and the tables merge in worker order, so
// groups come out in order of first appearance in `in` for every thread
// count. Adds the tables' charge to *table_bytes.
Status AggregateInMemory(const RowSet& in, const std::vector<ExprPtr>& group_by,
                         const std::vector<AggSpec>& aggs, QueryContext& ctx,
                         bool budgeted, bool* aborted, size_t* table_bytes,
                         RowSet* out) {
  *aborted = false;
  const size_t parallel_threshold = 16384;
  std::vector<GroupTable> partials;
  // Reservations outlive the group tables' useful life below; one per worker
  // (BudgetReservation is single-threaded, the budget under it is atomic).
  std::deque<BudgetReservation> reservations;

  // Type inference and compilation run once here; workers run on copies.
  AggInput master(in, group_by, aggs);

  std::atomic<bool> over_budget{false};
  auto accumulate_range = [&](GroupTable& table, size_t begin, size_t end,
                              Arena* arena, AggInput* input,
                              BudgetReservation* res) {
    JSONTILES_TRACE_SPAN("exec.agg.partial");
    size_t charged = 0;
    for (size_t b = begin; b < end; b += kVectorSize) {
      if (over_budget.load(std::memory_order_relaxed)) return;
      input->AccumulateBatch(in, b, std::min(kVectorSize, end - b), arena,
                             &table);
      const size_t pending = table.charged_bytes() - charged;
      if (res != nullptr && pending > 0) {
        if (!res->Grow(pending)) {
          over_budget.store(true, std::memory_order_relaxed);
          return;
        }
        charged = table.charged_bytes();
      }
    }
  };

  if (ctx.pool() != nullptr && in.size() >= parallel_threshold) {
    size_t workers = ctx.num_workers();
    for (size_t w = 0; w < workers; w++) {
      partials.emplace_back(group_by.size(), aggs);
    }
    std::vector<AggInput> worker_inputs(workers, master);
    for (size_t w = 0; w < workers; w++) {
      reservations.emplace_back(budgeted ? ctx.budget() : nullptr);
    }
    size_t chunk = (in.size() + workers - 1) / workers;
    JSONTILES_RETURN_NOT_OK(ctx.pool()->ParallelForStatus(
        workers,
        [&](size_t w, size_t) -> Status {
          JSONTILES_FAILPOINT_RETURN("exec.agg.worker");
          if (ctx.cancelled()) return Status::OK();
          size_t begin = w * chunk;
          size_t end = std::min(begin + chunk, in.size());
          if (begin < end) {
            accumulate_range(partials[w], begin, end, ctx.arena(w),
                             &worker_inputs[w], &reservations[w]);
          }
          return Status::OK();
        },
        1));
  } else {
    partials.emplace_back(group_by.size(), aggs);
    reservations.emplace_back(budgeted ? ctx.budget() : nullptr);
    accumulate_range(partials[0], 0, in.size(), ctx.arena(0), &master,
                     &reservations[0]);
  }
  if (over_budget.load(std::memory_order_relaxed)) {
    *aborted = true;
    return Status::OK();
  }

  // Merge partials into the first table, in worker order. Unique groups
  // across partials were all charged above, so the merged table never
  // exceeds the reservation.
  for (const GroupTable& t : partials) *table_bytes += t.charged_bytes();
  GroupTable& merged = partials[0];
  {
    JSONTILES_TRACE_SPAN("exec.agg.merge");
    for (size_t p = 1; p < partials.size(); p++) merged.MergeFrom(partials[p]);
  }
  merged.Finalize(out);
  return Status::OK();
}

// Aggregate one spill partition (taken by value so its disk space frees as
// soon as it is consumed). When the partition fits in the budget — or the
// recursion hit the depth cap, meaning its keys are unsplittable — it is
// materialized and aggregated in memory; otherwise it repartitions onto the
// next range of stored hash bits.
Status AggSpillPartition(SpillFile file, const std::vector<ExprPtr>& group_by,
                         const std::vector<AggSpec>& aggs, QueryContext& ctx,
                         size_t depth, SpillStats* stats, size_t* table_bytes,
                         RowSet* out) {
  if (file.rows() == 0) return Status::OK();
  // Read-back rows + group table (at worst one group per row); 3x raw covers
  // keys and accumulators.
  const size_t est =
      static_cast<size_t>(file.raw_bytes()) * 3 +
      static_cast<size_t>(file.rows()) * kPerRowTableOverhead;
  BudgetReservation res(ctx.budget());
  if (depth >= kMaxSpillDepth || res.Grow(est)) {
    if (depth >= kMaxSpillDepth && stats != nullptr) stats->forced_inmem++;
    Arena part_arena;
    RowSet rows;
    JSONTILES_RETURN_NOT_OK(file.ReadAll(&part_arena, &rows));
    file = SpillFile({}, nullptr);  // release the disk space early
    RowSet local;
    bool aborted = false;
    JSONTILES_RETURN_NOT_OK(AggregateInMemory(rows, group_by, aggs, ctx,
                                              /*budgeted=*/false, &aborted,
                                              table_bytes, &local));
    RescueRowStrings(&local, ctx.arena(0));
    out->Append(local);
    return Status::OK();
  }
  std::vector<SpillFile> sub;
  for (size_t p = 0; p < kSpillFanout; p++) {
    sub.emplace_back(ctx.options().spill_dir, stats, ctx.options().spill_disk);
  }
  JSONTILES_RETURN_NOT_OK(file.ForEach(nullptr, [&](uint64_t h, RowView row) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    return sub[SpillPartitionOf(h, depth)].Add(h, row);
  }));
  file = SpillFile({}, nullptr);
  for (size_t p = 0; p < kSpillFanout; p++) {
    JSONTILES_RETURN_NOT_OK(sub[p].Finish());
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    JSONTILES_RETURN_NOT_OK(AggSpillPartition(std::move(sub[p]), group_by,
                                              aggs, ctx, depth + 1, stats,
                                              table_bytes, out));
  }
  return Status::OK();
}

// Grace aggregation: partition the input by group-key hash into disk runs,
// then aggregate each partition independently (a group never crosses
// partitions, so partition outputs concatenate; groups are in first-
// appearance order within a partition, and no order holds across them).
Status AggSpill(const RowSet& in, const std::vector<ExprPtr>& group_by,
                const std::vector<AggSpec>& aggs, QueryContext& ctx,
                SpillStats* stats, size_t* table_bytes, RowSet* out) {
  JSONTILES_TRACE_SPAN("exec.agg.spill");
  std::vector<SpillFile> parts;
  for (size_t p = 0; p < kSpillFanout; p++) {
    parts.emplace_back(ctx.options().spill_dir, stats,
                       ctx.options().spill_disk);
  }
  Arena scratch;  // derived key strings live only until the row is hashed
  size_t since_reset = 0;
  for (RowView row : in) {
    uint64_t h = kKeyHashSeed;
    for (const auto& g : group_by) {
      h = HashCombine(h, EvalExpr(*g, row.data(), &scratch).Hash());
    }
    JSONTILES_RETURN_NOT_OK(parts[SpillPartitionOf(h, 0)].Add(h, row));
    if (++since_reset == 4096) {
      if (ctx.cancelled()) return Status::Cancelled("query cancelled");
      scratch.Reset();
      since_reset = 0;
    }
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    JSONTILES_RETURN_NOT_OK(parts[p].Finish());
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    JSONTILES_RETURN_NOT_OK(AggSpillPartition(std::move(parts[p]), group_by,
                                              aggs, ctx, 1, stats, table_bytes,
                                              out));
  }
  return Status::OK();
}

}  // namespace

RowSet AggregateExec(const RowSet& in, const std::vector<ExprPtr>& group_by,
                     const std::vector<AggSpec>& aggs, QueryContext& ctx) {
  JSONTILES_TRACE_SPAN("exec.aggregate");
  obs::OperatorProfiler prof(ctx.profile, "Aggregate",
                             std::to_string(group_by.size()) + " keys, " +
                                 std::to_string(aggs.size()) + " aggs");
  prof.set_rows_in(in.size());
  ArenaCounter arena_counter(prof, ctx);
  if (ctx.cancelled()) return {};

  SpillStats stats;
  RowSet out;
  bool aborted = false;
  size_t table_bytes = 0;
  // A global aggregate is a single group — nothing to partition by, and its
  // state is tiny — so only grouped aggregation is budget-governed.
  const bool budgeted = !group_by.empty();
  Status st = AggregateInMemory(in, group_by, aggs, ctx, budgeted, &aborted,
                                &table_bytes, &out);
  if (st.ok() && aborted) {
    st = AggSpill(in, group_by, aggs, ctx, &stats, &table_bytes, &out);
  }
  if (!st.ok()) {
    ctx.Cancel(std::move(st));
    return {};
  }

  prof.AddCounter("groups", static_cast<int64_t>(out.size()));
  prof.AddCounter("table_bytes", static_cast<int64_t>(table_bytes));
  JSONTILES_COUNTER_ADD("exec.agg.groups", static_cast<int64_t>(out.size()));
  // Global aggregate of empty input still yields one row.
  if (group_by.empty() && out.empty()) out.push_back(EmptyGlobalAggRow(aggs));
  ReportSpill(prof, stats, ctx);
  prof.set_rows_out(out.size());
  return out;
}

// ---------------------------------------------------------------------------
// Hash join
// ---------------------------------------------------------------------------

namespace {

struct JoinSpec {
  const std::vector<ExprPtr>& build_keys;
  const std::vector<ExprPtr>& probe_keys;
  JoinType type;
  const ExprPtr& residual;
  // Width of the full build side. Passed down instead of derived per
  // partition: a spill partition with an empty build side must still pad
  // left-join outputs to the real width.
  size_t build_width;
};

// One hash join entirely in memory. When `res` is non-null it is grown for
// the build-side scratch (key values + hash table) as it accumulates; on a
// refused charge the partial state is dropped, *aborted is set and the
// function returns OK — the caller then takes the spill path. With a null
// `res` the table grows freely (the forced path at the spill depth cap).
Status InMemoryJoin(const RowSet& build, const RowSet& probe,
                    const JoinSpec& spec, QueryContext& ctx,
                    BudgetReservation* res, bool* aborted, RowSet* out) {
  *aborted = false;
  const std::vector<ExprPtr>& build_keys = spec.build_keys;
  const std::vector<ExprPtr>& probe_keys = spec.probe_keys;
  const JoinType type = spec.type;
  const ExprPtr& residual = spec.residual;
  Arena* arena = ctx.arena(0);

  // Build phase: evaluate the build keys batch-at-a-time through the
  // compiled engine and hash integer-typed key lanes with the SIMD batch
  // kernels. Hashes are bit-identical to the scalar per-Value path —
  // int/bool/timestamp lanes hash as HashInt of the payload and null lanes
  // as Value::Null().Hash() — so probe lookups are unaffected.
  //
  // The table is three flat arrays: `keys` (build.size() x nk Values,
  // row-major), `row_hash`, and a power-of-two `heads` directory whose
  // chains run through `next`. Rows are prepended in reverse build order,
  // so every chain lists its rows in ascending build order and matches
  // come out in build order. Rows with a null key are never linked (SQL:
  // null never matches).
  constexpr uint32_t kChainEnd = UINT32_MAX;
  if (build.size() >= kChainEnd) {
    return Status::ResourceExhausted(
        "hash join build side has more rows than a 32-bit chain index holds");
  }
  const size_t nk = build_keys.size();
  std::vector<Value> keys(build.size() * nk);
  std::vector<uint64_t> row_hash(build.size());
  std::vector<uint8_t> row_has_null(build.size(), 0);
  std::vector<uint32_t> heads;
  std::vector<uint32_t> next(build.size());
  uint64_t mask = 0;
  {
    JSONTILES_TRACE_SPAN("exec.join.build");
    BatchedExprs batched(build, RawExprs(build_keys));
    uint64_t hacc[kVectorSize];
    uint64_t hkey[kVectorSize];
    for (size_t base = 0; base < build.size(); base += kVectorSize) {
      const size_t n = std::min(kVectorSize, build.size() - base);
      batched.LoadBatch(build, base, n, arena);
      size_t batch_bytes = n * (kPerRowTableOverhead + nk * sizeof(Value));
      std::fill(hacc, hacc + n, kKeyHashSeed);
      Value* batch_keys = keys.data() + base * nk;
      for (size_t j = 0; j < nk; j++) {
        const ColumnVector* col = batched.Result(j);
        const bool batch_hashed =
            col != nullptr && simd::UseSimd() &&
            (col->type() == ValueType::kInt ||
             col->type() == ValueType::kBool ||
             col->type() == ValueType::kTimestamp);
        if (batch_hashed) {
          simd::HashI64Batch(col->i64(), col->nulls(), Value::Null().Hash(),
                             hkey, n);
          simd::HashCombineBatch(hacc, hkey, n);
        }
        for (size_t k = 0; k < n; k++) {
          PrefetchStringLane(col, k + kStringPrefetchAhead, n);
          Value v = batched.Get(j, k, build[base + k], arena);
          row_has_null[base + k] |= static_cast<uint8_t>(v.is_null());
          if (!batch_hashed) hacc[k] = HashCombine(hacc[k], v.Hash());
          if (v.type == ValueType::kString) batch_bytes += v.s.size();
          batch_keys[k * nk + j] = v;
        }
      }
      std::copy(hacc, hacc + n, row_hash.begin() + base);
      if (res != nullptr && !res->Grow(batch_bytes)) {
        *aborted = true;
        return Status::OK();
      }
    }
    size_t insertable = 0;
    for (uint8_t has_null : row_has_null) insertable += has_null == 0;
    heads.assign(bit_util::NextPow2(insertable * 2), kChainEnd);
    mask = heads.size() - 1;
    for (size_t b = build.size(); b-- > 0;) {
      if (row_has_null[b]) continue;
      uint32_t& head = heads[row_hash[b] & mask];
      next[b] = head;
      head = static_cast<uint32_t>(b);
    }
  }
  const size_t build_width = spec.build_width;

  // Probe phase (parallel chunks); probe keys evaluate batch-at-a-time with
  // compiled programs when possible. Each worker runs a private copy of the
  // compiled state; type inference runs once here.
  BatchedExprs probe_master(probe, RawExprs(probe_keys));
  auto probe_chunk = [&](size_t begin, size_t end, Arena* worker_arena,
                         RowSet* out, BatchedExprs* batched) {
    JSONTILES_TRACE_SPAN("exec.join.probe");
    std::vector<Value> combined;
    std::vector<Value> pkeys;
    pkeys.reserve(probe_keys.size());
    for (size_t base = begin; base < end; base += kVectorSize) {
      const size_t n = std::min(kVectorSize, end - base);
      batched->LoadBatch(probe, base, n, worker_arena);
      for (size_t k = 0; k < n; k++) {
        for (size_t j = 0; j < probe_keys.size(); j++) {
          PrefetchStringLane(batched->Result(j), k + kStringPrefetchAhead, n);
        }
        RowView prow = probe[base + k];
        pkeys.clear();
        uint64_t h = kKeyHashSeed;
        bool has_null = false;
        for (size_t j = 0; j < probe_keys.size(); j++) {
          Value v = batched->Get(j, k, prow, worker_arena);
          has_null |= v.is_null();
          h = HashCombine(h, v.Hash());
          pkeys.push_back(v);
        }
        bool matched = false;
        if (!has_null) {
          for (uint32_t b = heads[h & mask]; b != kChainEnd; b = next[b]) {
            if (row_hash[b] != h) continue;
            const Value* bkeys = keys.data() + size_t{b} * nk;
            bool equal = true;
            for (size_t j = 0; j < nk && equal; j++) {
              equal = bkeys[j].EqualsForGrouping(pkeys[j]);
            }
            if (!equal) continue;
            RowView brow = build[b];
            // Residual predicate over [probe..., build...].
            if (residual != nullptr) {
              combined.assign(prow.begin(), prow.end());
              combined.insert(combined.end(), brow.begin(), brow.end());
              Value keep = EvalExpr(*residual, combined.data(), worker_arena);
              if (keep.is_null() || !keep.bool_value()) continue;
            }
            matched = true;
            if (type == JoinType::kInner || type == JoinType::kLeft) {
              out->AppendConcat(prow, brow);
            } else {
              break;  // semi/anti need only existence
            }
          }
        }
        switch (type) {
          case JoinType::kInner:
            break;
          case JoinType::kLeft:
            if (!matched) out->AppendPadded(prow, build_width);
            break;
          case JoinType::kSemi:
            if (matched) out->push_back(prow);
            break;
          case JoinType::kAnti:
            if (!matched) out->push_back(prow);
            break;
        }
      }
    }
  };

  const size_t parallel_threshold = 16384;
  if (ctx.pool() != nullptr && probe.size() >= parallel_threshold) {
    size_t workers = ctx.num_workers();
    std::vector<RowSet> partials(workers);
    std::vector<BatchedExprs> worker_batched(workers, probe_master);
    size_t chunk = (probe.size() + workers - 1) / workers;
    JSONTILES_RETURN_NOT_OK(ctx.pool()->ParallelForStatus(
        workers,
        [&](size_t w, size_t) -> Status {
          JSONTILES_FAILPOINT_RETURN("exec.join.probe.worker");
          if (ctx.cancelled()) return Status::OK();
          size_t begin = w * chunk;
          size_t end = std::min(begin + chunk, probe.size());
          if (begin < end) {
            probe_chunk(begin, end, ctx.arena(w), &partials[w],
                        &worker_batched[w]);
          }
          return Status::OK();
        },
        1));
    out->AppendAll(std::move(partials));
    return Status::OK();
  }
  probe_chunk(0, probe.size(), arena, out, &probe_master);
  return Status::OK();
}

// Join one spill partition pair (files taken by value so their disk space
// frees as soon as they are consumed). Fits in budget or depth-capped —
// materialize and join in memory; otherwise repartition both sides onto the
// next range of stored hash bits.
Status JoinSpillPartition(SpillFile bfile, SpillFile pfile,
                          const JoinSpec& spec, QueryContext& ctx,
                          size_t depth, SpillStats* stats, RowSet* out) {
  if (pfile.rows() == 0) return Status::OK();  // all join kinds emit per probe row
  const size_t est =
      static_cast<size_t>(bfile.raw_bytes()) * 2 +
      static_cast<size_t>(pfile.raw_bytes()) +
      static_cast<size_t>(bfile.rows() + pfile.rows()) * kPerRowTableOverhead;
  BudgetReservation res(ctx.budget());
  if (depth >= kMaxSpillDepth || res.Grow(est)) {
    if (depth >= kMaxSpillDepth && stats != nullptr) stats->forced_inmem++;
    Arena part_arena;
    RowSet bp, pp;
    JSONTILES_RETURN_NOT_OK(bfile.ReadAll(&part_arena, &bp));
    JSONTILES_RETURN_NOT_OK(pfile.ReadAll(&part_arena, &pp));
    bfile = SpillFile({}, nullptr);
    pfile = SpillFile({}, nullptr);
    RowSet local;
    bool aborted = false;
    JSONTILES_RETURN_NOT_OK(
        InMemoryJoin(bp, pp, spec, ctx, nullptr, &aborted, &local));
    RescueRowStrings(&local, ctx.arena(0));
    out->Append(local);
    return Status::OK();
  }
  std::vector<SpillFile> bsub, psub;
  for (size_t p = 0; p < kSpillFanout; p++) {
    bsub.emplace_back(ctx.options().spill_dir, stats, ctx.options().spill_disk);
    psub.emplace_back(ctx.options().spill_dir, stats, ctx.options().spill_disk);
  }
  auto reroute = [&](SpillFile* src, std::vector<SpillFile>& dst) {
    return src->ForEach(nullptr, [&](uint64_t h, RowView row) {
      if (ctx.cancelled()) return Status::Cancelled("query cancelled");
      return dst[SpillPartitionOf(h, depth)].Add(h, row);
    });
  };
  JSONTILES_RETURN_NOT_OK(reroute(&bfile, bsub));
  JSONTILES_RETURN_NOT_OK(reroute(&pfile, psub));
  bfile = SpillFile({}, nullptr);
  pfile = SpillFile({}, nullptr);
  for (size_t p = 0; p < kSpillFanout; p++) {
    JSONTILES_RETURN_NOT_OK(bsub[p].Finish());
    JSONTILES_RETURN_NOT_OK(psub[p].Finish());
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    JSONTILES_RETURN_NOT_OK(JoinSpillPartition(std::move(bsub[p]),
                                               std::move(psub[p]), spec, ctx,
                                               depth + 1, stats, out));
  }
  return Status::OK();
}

// Grace hash join: try in memory under the budget; on refusal partition both
// sides by key hash into disk runs and join partition pairs independently.
// The partition of a row is a pure function of its key hash, so matching
// build/probe rows always land in the same pair and the result multiset is
// identical to the in-memory join (output order differs — grouped by
// partition).
Status JoinImpl(const RowSet& build, const RowSet& probe, const JoinSpec& spec,
                QueryContext& ctx, SpillStats* stats, RowSet* out) {
  {
    BudgetReservation res(ctx.budget());
    bool aborted = false;
    JSONTILES_RETURN_NOT_OK(
        InMemoryJoin(build, probe, spec, ctx, &res, &aborted, out));
    if (!aborted) return Status::OK();
  }  // the partial reservation is released before spilling starts
  JSONTILES_TRACE_SPAN("exec.join.spill");
  std::vector<SpillFile> bparts, pparts;
  for (size_t p = 0; p < kSpillFanout; p++) {
    bparts.emplace_back(ctx.options().spill_dir, stats,
                        ctx.options().spill_disk);
    pparts.emplace_back(ctx.options().spill_dir, stats,
                        ctx.options().spill_disk);
  }
  Arena scratch;  // derived key strings live only until the row is hashed
  auto partition_side = [&](const RowSet& rows,
                            const std::vector<ExprPtr>& keys,
                            std::vector<SpillFile>& parts) -> Status {
    size_t since_reset = 0;
    for (RowView row : rows) {
      uint64_t h = kKeyHashSeed;
      for (const auto& k : keys) {
        h = HashCombine(h, EvalExpr(*k, row.data(), &scratch).Hash());
      }
      JSONTILES_RETURN_NOT_OK(parts[SpillPartitionOf(h, 0)].Add(h, row));
      if (++since_reset == 4096) {
        if (ctx.cancelled()) return Status::Cancelled("query cancelled");
        scratch.Reset();
        since_reset = 0;
      }
    }
    return Status::OK();
  };
  JSONTILES_RETURN_NOT_OK(partition_side(build, spec.build_keys, bparts));
  JSONTILES_RETURN_NOT_OK(partition_side(probe, spec.probe_keys, pparts));
  for (size_t p = 0; p < kSpillFanout; p++) {
    JSONTILES_RETURN_NOT_OK(bparts[p].Finish());
    JSONTILES_RETURN_NOT_OK(pparts[p].Finish());
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    JSONTILES_RETURN_NOT_OK(JoinSpillPartition(std::move(bparts[p]),
                                               std::move(pparts[p]), spec,
                                               ctx, 1, stats, out));
  }
  return Status::OK();
}

}  // namespace

RowSet HashJoinExec(const RowSet& build, const RowSet& probe,
                    const std::vector<ExprPtr>& build_keys,
                    const std::vector<ExprPtr>& probe_keys, JoinType type,
                    const ExprPtr& residual, QueryContext& ctx) {
  JSONTILES_CHECK(build_keys.size() == probe_keys.size());
  JSONTILES_TRACE_SPAN("exec.hash_join");
  const char* join_name = type == JoinType::kInner  ? "inner"
                          : type == JoinType::kLeft ? "left"
                          : type == JoinType::kSemi ? "semi"
                                                    : "anti";
  obs::OperatorProfiler prof(ctx.profile, "HashJoin", join_name);
  prof.set_rows_in(build.size() + probe.size());
  prof.AddCounter("build_rows", static_cast<int64_t>(build.size()));
  prof.AddCounter("probe_rows", static_cast<int64_t>(probe.size()));
  ArenaCounter arena_counter(prof, ctx);
  if (ctx.cancelled()) return {};
  // Every join type emits output only per probe row, so an empty probe side
  // needs no build table.
  if (probe.empty()) {
    prof.set_rows_out(0);
    return {};
  }

  SpillStats stats;
  JoinSpec spec{build_keys, probe_keys, type, residual,
                build.empty() ? 0 : build[0].size()};
  RowSet out;
  Status st = JoinImpl(build, probe, spec, ctx, &stats, &out);
  if (!st.ok()) {
    ctx.Cancel(std::move(st));
    return {};
  }
  ReportSpill(prof, stats, ctx);
  prof.set_rows_out(out.size());
  return out;
}

RowSet SortExec(RowSet in, const std::vector<SortKey>& keys, QueryContext& ctx) {
  JSONTILES_TRACE_SPAN("exec.sort");
  obs::OperatorProfiler prof(ctx.profile, "Sort",
                             std::to_string(keys.size()) + " keys");
  prof.set_rows_in(in.size());
  prof.set_rows_out(in.size());
  ArenaCounter arena_counter(prof, ctx);
  Arena* arena = ctx.arena(0);
  if (in.empty()) return in;
  // Evaluate every sort key once per row into a flat row-major array, sort
  // a row permutation over it, then gather once: rows never move while the
  // comparator runs, and stable_sort over indices keeps equal rows in input
  // order exactly as sorting the rows themselves would.
  JSONTILES_CHECK(in.size() <= UINT32_MAX);
  const size_t nk = keys.size();
  std::vector<Value> key_values(in.size() * nk);
  for (size_t r = 0; r < in.size(); r++) {
    for (size_t j = 0; j < nk; j++) {
      key_values[r * nk + j] = EvalExpr(*keys[j].expr, in[r].data(), arena);
    }
  }
  std::vector<uint32_t> perm(in.size());
  for (size_t i = 0; i < perm.size(); i++) perm[i] = static_cast<uint32_t>(i);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t ia, uint32_t ib) {
    const Value* ka = key_values.data() + size_t{ia} * nk;
    const Value* kb = key_values.data() + size_t{ib} * nk;
    for (size_t j = 0; j < nk; j++) {
      const Value& va = ka[j];
      const Value& vb = kb[j];
      int cmp;
      if (va.is_null() || vb.is_null()) {
        // PostgreSQL default: nulls sort as the largest value (last when
        // ascending, first when descending).
        cmp = va.is_null() == vb.is_null() ? 0 : va.is_null() ? 1 : -1;
      } else {
        cmp = va.Compare(vb);
      }
      if (cmp != 0) return keys[j].descending ? cmp > 0 : cmp < 0;
    }
    // Deterministic full-row tie-break: input order varies across
    // shard/thread configurations, so ties on every sort key must resolve
    // by row content for ORDER BY ... LIMIT cuts to be reproducible.
    RowView a = in[ia];
    RowView b = in[ib];
    for (size_t i = 0; i < a.size() && i < b.size(); i++) {
      int cmp = TotalValueOrder(a[i], b[i]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  RowSet out(in.width());
  out.reserve(in.size());
  for (uint32_t i : perm) out.push_back(in[i]);
  return out;
}

RowSet LimitExec(RowSet in, size_t limit) {
  if (in.size() > limit) in.resize(limit);
  return in;
}

RowSet LimitExec(RowSet in, size_t limit, QueryContext& ctx) {
  obs::OperatorProfiler prof(ctx.profile, "Limit", std::to_string(limit));
  prof.set_rows_in(in.size());
  if (in.size() > limit) in.resize(limit);
  prof.set_rows_out(in.size());
  return in;
}

}  // namespace jsontiles::exec
