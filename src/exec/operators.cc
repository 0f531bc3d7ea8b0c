#include "exec/operators.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <functional>

#include "exec/agg_state.h"
#include "exec/batched_exprs.h"
#include "exec/expr_compile.h"
#include "exec/float_sum.h"
#include "exec/spill.h"
#include "exec/vector_batch.h"
#include "obs/obs.h"
#include "obs/plan_profile.h"
#include "util/bit_util.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/resource_governor.h"

namespace jsontiles::exec {

namespace {

// The key hasher (exec/batched_exprs.h) and the group table
// (exec/agg_state.h) are shared with the distributed exchange, so worker
// partials hash, group and tie-break exactly like local aggregation.

// Joins and aggregations over at least this many rows run on the worker
// pool, one contiguous chunk per worker.
constexpr size_t kParallelThreshold = 16384;

// Emit the spill counters on an operator node (only when it actually
// spilled, so unconstrained plans stay unchanged). Also accumulates the
// query-level spill total the multi-tenant service exposes as the per-group
// quota-spill metric.
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

// One input side of a grace-hash operator. A partition's memory estimate
// charges raw_weight bytes per serialized byte of the side, plus
// kPerRowTableOverhead per row.
struct GraceSide {
  const RowSet* rows;
  const std::vector<ExprPtr>* keys;
  size_t raw_weight;
};

// What differs between the operators that spill through GraceSpill: the
// aggregate has one side (its input), the join two (build, then probe). A
// partition with no rows on skip_side emits nothing; in_memory runs the
// operator unbudgeted over one partition, one RowSet per side.
struct GraceOp {
  std::vector<GraceSide> sides;
  size_t skip_side;
  std::function<Status(const std::vector<RowSet>& sides, RowSet* out)>
      in_memory;
};

// Route every row of `rows` to (*parts)[SpillPartitionOf(hash, 0)], its key
// hash computed batch by batch through BatchedExprs::HashKeys.
Status PartitionByKey(const RowSet& rows, const std::vector<ExprPtr>& keys,
                      QueryContext& ctx, std::vector<SpillFile>* parts) {
  const size_t nk = keys.size();
  BatchedExprs batched(rows, RawExprs(keys));
  Arena scratch;  // derived key strings live only until their batch is hashed
  std::vector<Value> key_values(kVectorSize * nk);
  std::vector<uint64_t> hashes(kVectorSize);
  for (size_t base = 0; base < rows.size(); base += kVectorSize) {
    const size_t n = std::min(kVectorSize, rows.size() - base);
    batched.LoadBatch(rows, base, n, &scratch);
    batched.HashKeys(nk, rows, base, n, &scratch, key_values.data(),
                     hashes.data());
    for (size_t k = 0; k < n; k++) {
      const uint64_t h = hashes[k];
      JSONTILES_RETURN_NOT_OK(
          (*parts)[SpillPartitionOf(h, 0)].Add(h, rows[base + k]));
      if ((base + k + 1) % 4096 == 0 && ctx.cancelled()) {
        return Status::Cancelled("query cancelled");
      }
    }
    scratch.Reset();
  }
  return Status::OK();
}

// The grace-hash driver of both memory-governed operators. At depth 0 it
// partitions every side's rows by key hash; deeper, `files` holds one parent
// partition per side (taken by value so their disk space frees as soon as
// they are consumed). A partition that fits the budget — or sits at the
// depth cap, where its keys are unsplittable — is read back and run through
// op.in_memory; any other repartitions on the next range of stored hash
// bits. Partitions are visited in order and their outputs concatenate: a
// key never crosses partitions, and a row's partition is a pure function of
// its key hash, so matching rows of different sides meet.
Status GraceSpill(const GraceOp& op, std::vector<SpillFile> files,
                  size_t depth, QueryContext& ctx, SpillStats* stats,
                  RowSet* out) {
  const size_t num_sides = op.sides.size();
  if (depth > 0) {
    if (files[op.skip_side].rows() == 0) return Status::OK();
    size_t est = 0;
    for (size_t s = 0; s < num_sides; s++) {
      est += static_cast<size_t>(files[s].raw_bytes()) *
                 op.sides[s].raw_weight +
             static_cast<size_t>(files[s].rows()) * kPerRowTableOverhead;
    }
    BudgetReservation res(ctx.budget());
    if (depth >= kMaxSpillDepth || res.Grow(est)) {
      if (depth >= kMaxSpillDepth) stats->forced_inmem++;
      Arena part_arena;
      std::vector<RowSet> rows(num_sides);
      for (size_t s = 0; s < num_sides; s++) {
        JSONTILES_RETURN_NOT_OK(files[s].ReadAll(&part_arena, &rows[s]));
      }
      files.clear();  // release the disk space early
      RowSet local;
      JSONTILES_RETURN_NOT_OK(op.in_memory(rows, &local));
      // Output strings point into part_arena, which dies here: rescue them
      // into the query arena.
      for (RowRef row : local) {
        for (Value& v : row) {
          if (v.type == ValueType::kString) {
            v.set_s(ctx.arena(0)->CopyString(v.s()));
          }
        }
      }
      out->Append(local);
      return Status::OK();
    }
  }
  std::vector<std::vector<SpillFile>> parts(num_sides);
  for (std::vector<SpillFile>& side_parts : parts) {
    for (size_t p = 0; p < kSpillFanout; p++) {
      side_parts.emplace_back(ctx.options().spill_dir, stats,
                              ctx.options().spill_disk);
    }
  }
  for (size_t s = 0; s < num_sides; s++) {
    if (depth == 0) {
      JSONTILES_RETURN_NOT_OK(PartitionByKey(
          *op.sides[s].rows, *op.sides[s].keys, ctx, &parts[s]));
      continue;
    }
    JSONTILES_RETURN_NOT_OK(
        files[s].ForEach(nullptr, [&](uint64_t h, RowView row) {
          if (ctx.cancelled()) return Status::Cancelled("query cancelled");
          return parts[s][SpillPartitionOf(h, depth)].Add(h, row);
        }));
  }
  files.clear();
  for (size_t p = 0; p < kSpillFanout; p++) {
    for (size_t s = 0; s < num_sides; s++) {
      JSONTILES_RETURN_NOT_OK(parts[s][p].Finish());
    }
  }
  for (size_t p = 0; p < kSpillFanout; p++) {
    if (ctx.cancelled()) return Status::Cancelled("query cancelled");
    std::vector<SpillFile> partition;
    for (size_t s = 0; s < num_sides; s++) {
      partition.push_back(std::move(parts[s][p]));
    }
    JSONTILES_RETURN_NOT_OK(GraceSpill(op, std::move(partition), depth + 1,
                                       ctx, stats, out));
  }
  return Status::OK();
}

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

  if (ctx.pool() != nullptr && in.size() >= kParallelThreshold) {
    size_t workers = ctx.num_workers();
    for (size_t w = 0; w < workers; w++) {
      partials.emplace_back(group_by.size(), aggs);
      reservations.emplace_back(budgeted ? ctx.budget() : nullptr);
    }
    std::vector<AggInput> worker_inputs(workers, master);
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
    // Grace aggregation: groups in first-appearance order per partition,
    // partitions in order. A partition's rows plus a table of at worst one
    // group per row: 3x raw covers keys and accumulators.
    JSONTILES_TRACE_SPAN("exec.agg.spill");
    GraceOp op{{{&in, &group_by, /*raw_weight=*/3}},
               /*skip_side=*/0,
               [&](const std::vector<RowSet>& rows, RowSet* local) {
                 bool unused_aborted = false;
                 return AggregateInMemory(rows[0], group_by, aggs, ctx,
                                          /*budgeted=*/false, &unused_aborted,
                                          &table_bytes, local);
               }};
    st = GraceSpill(op, {}, 0, ctx, &stats, &out);
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

// Rows of the input a join hashes: the smaller one, the build input on a
// tie. Both inputs are materialized, so the sizes are exact.
bool HashesProbe(const RowSet& build, const RowSet& probe) {
  return probe.size() < build.size();
}

// One key match that survived the residual, as row indices of both inputs.
struct JoinMatch {
  uint32_t probe;
  uint32_t build;
};

// One hash join entirely in memory. The hash table goes on the smaller
// input (HashesProbe) and the other input streams through it; the output
// is the same either way. When `res` is non-null it is grown for the
// table's scratch (key values + hash table) as it accumulates; on a refused
// charge the partial state is dropped, *aborted is set and the function
// returns OK — the caller then takes the spill path. With a null `res` the
// table grows freely (the forced path at the spill depth cap).
Status InMemoryJoin(const RowSet& build, const RowSet& probe,
                    const JoinSpec& spec, QueryContext& ctx,
                    BudgetReservation* res, bool* aborted, RowSet* out) {
  *aborted = false;
  Arena* arena = ctx.arena(0);
  constexpr uint32_t kChainEnd = UINT32_MAX;
  if (build.size() >= kChainEnd || probe.size() >= kChainEnd) {
    return Status::ResourceExhausted(
        "hash join input has more rows than a 32-bit row index holds");
  }
  const bool hash_probe = HashesProbe(build, probe);
  const RowSet& table_side = hash_probe ? probe : build;
  const RowSet& stream_side = hash_probe ? build : probe;

  // Table phase: keys evaluate and hash batch at a time through
  // BatchedExprs::HashKeys, like the streamed keys below, so both sides'
  // hashes agree bit for bit.
  //
  // The table is three flat arrays: `keys` (table_side.size() x nk Values,
  // row-major), `row_hash`, and a power-of-two `heads` directory whose
  // chains run through `next`. Rows are prepended in reverse order, so
  // every chain lists its rows in ascending order. Rows with a null key are
  // never linked (SQL: null never matches).
  const size_t nk = spec.build_keys.size();
  std::vector<Value> keys(table_side.size() * nk);
  std::vector<uint64_t> row_hash(table_side.size());
  std::vector<uint8_t> row_has_null(table_side.size(), 0);
  std::vector<uint32_t> heads;
  std::vector<uint32_t> next(table_side.size());
  uint64_t mask = 0;
  {
    JSONTILES_TRACE_SPAN("exec.join.build");
    BatchedExprs batched(
        table_side, RawExprs(hash_probe ? spec.probe_keys : spec.build_keys));
    for (size_t base = 0; base < table_side.size(); base += kVectorSize) {
      const size_t n = std::min(kVectorSize, table_side.size() - base);
      batched.LoadBatch(table_side, base, n, arena);
      Value* batch_keys = keys.data() + base * nk;
      batched.HashKeys(nk, table_side, base, n, arena, batch_keys,
                       row_hash.data() + base);
      size_t batch_bytes = n * (kPerRowTableOverhead + nk * sizeof(Value));
      for (size_t i = 0; i < n * nk; i++) {
        const Value& v = batch_keys[i];
        row_has_null[base + i / nk] |= static_cast<uint8_t>(v.is_null());
        if (v.type == ValueType::kString) batch_bytes += v.s().size();
      }
      if (res != nullptr && !res->Grow(batch_bytes)) {
        *aborted = true;
        return Status::OK();
      }
    }
    size_t insertable = 0;
    for (uint8_t has_null : row_has_null) insertable += has_null == 0;
    heads.assign(bit_util::NextPow2(insertable * 2), kChainEnd);
    mask = heads.size() - 1;
    for (size_t t = table_side.size(); t-- > 0;) {
      if (row_has_null[t]) continue;
      uint32_t& head = heads[row_hash[t] & mask];
      next[t] = head;
      head = static_cast<uint32_t>(t);
    }
  }

  // Stream phase (parallel chunks): each batch's keys are hashed first, then
  // its rows walk their chains lane by lane. Every surviving match sets its
  // probe row's flag and, for inner/left, records a (probe, build) pair;
  // semi/anti need only the flag. Each worker runs a private copy of the
  // compiled state (type inference runs once here) and keeps its own pairs
  // and flags.
  const bool emits_pairs =
      spec.type == JoinType::kInner || spec.type == JoinType::kLeft;
  struct StreamMatches {
    std::vector<JoinMatch> pairs;
    std::vector<uint8_t> matched;  // per probe row
  };
  BatchedExprs stream_master(
      stream_side, RawExprs(hash_probe ? spec.build_keys : spec.probe_keys));
  auto stream_chunk = [&](size_t begin, size_t end, Arena* worker_arena,
                          BatchedExprs* batched, StreamMatches* found) {
    JSONTILES_TRACE_SPAN("exec.join.probe");
    found->matched.assign(probe.size(), 0);
    std::vector<Value> combined;
    std::vector<Value> batch_keys(kVectorSize * nk);
    std::vector<uint64_t> batch_hash(kVectorSize);
    for (size_t base = begin; base < end; base += kVectorSize) {
      const size_t n = std::min(kVectorSize, end - base);
      batched->LoadBatch(stream_side, base, n, worker_arena);
      batched->HashKeys(nk, stream_side, base, n, worker_arena,
                        batch_keys.data(), batch_hash.data());
      for (size_t k = 0; k < n; k++) {
        const auto s = static_cast<uint32_t>(base + k);
        const Value* skeys = batch_keys.data() + k * nk;
        const uint64_t h = batch_hash[k];
        bool has_null = false;
        for (size_t j = 0; j < nk; j++) has_null |= skeys[j].is_null();
        if (has_null) continue;
        for (uint32_t t = heads[h & mask]; t != kChainEnd; t = next[t]) {
          if (row_hash[t] != h) continue;
          const Value* tkeys = keys.data() + size_t{t} * nk;
          bool equal = true;
          for (size_t j = 0; j < nk && equal; j++) {
            equal = tkeys[j].EqualsForGrouping(skeys[j]);
          }
          if (!equal) continue;
          const uint32_t p = hash_probe ? t : s;
          const uint32_t b = hash_probe ? s : t;
          // With the table on the probe input, a probe row meets every
          // streamed build row of its key; semi/anti stop at its first match.
          if (!emits_pairs && found->matched[p]) continue;
          // Residual predicate over [probe..., build...].
          if (spec.residual != nullptr) {
            RowView prow = probe[p];
            RowView brow = build[b];
            combined.assign(prow.begin(), prow.end());
            combined.insert(combined.end(), brow.begin(), brow.end());
            Value keep =
                EvalExpr(*spec.residual, combined.data(), worker_arena);
            if (keep.is_null() || !keep.bool_value()) continue;
          }
          found->matched[p] = 1;
          if (emits_pairs) {
            found->pairs.push_back({p, b});
          } else if (!hash_probe) {
            break;  // this probe row's existence is decided
          }
        }
      }
    }
  };

  std::vector<StreamMatches> found;
  const bool parallel_stream =
      ctx.pool() != nullptr && stream_side.size() >= kParallelThreshold;
  if (parallel_stream) {
    const size_t workers = ctx.num_workers();
    found.resize(workers);
    std::vector<BatchedExprs> worker_batched(workers, stream_master);
    const size_t chunk = (stream_side.size() + workers - 1) / workers;
    JSONTILES_RETURN_NOT_OK(ctx.pool()->ParallelForStatus(
        workers,
        [&](size_t w, size_t) -> Status {
          JSONTILES_FAILPOINT_RETURN("exec.join.probe.worker");
          if (ctx.cancelled()) return Status::OK();
          const size_t begin = w * chunk;
          const size_t end = std::min(begin + chunk, stream_side.size());
          if (begin < end) {
            stream_chunk(begin, end, ctx.arena(w), &worker_batched[w],
                         &found[w]);
          }
          return Status::OK();
        },
        1));
  } else {
    found.resize(1);
    stream_chunk(0, stream_side.size(), arena, &stream_master, &found[0]);
  }

  // Merge in worker order: flags OR together, and a stable counting sort
  // groups the pairs by probe row. Workers cover ascending stream ranges,
  // so each probe row's matches stay in build order whichever side
  // streamed. first[p]..first[p + 1] indexes probe row p's build rows in
  // match_build.
  if (ctx.cancelled()) return Status::OK();
  std::vector<uint8_t> matched = std::move(found[0].matched);
  for (size_t w = 1; w < found.size(); w++) {
    for (size_t p = 0; p < found[w].matched.size(); p++) {
      matched[p] |= found[w].matched[p];
    }
  }
  std::vector<size_t> first(probe.size() + 1, 0);
  for (const StreamMatches& f : found) {
    for (const JoinMatch& m : f.pairs) first[m.probe + 1]++;
  }
  for (size_t p = 0; p < probe.size(); p++) first[p + 1] += first[p];
  std::vector<uint32_t> match_build(first.back());
  {
    std::vector<size_t> cursor(first.begin(), first.end() - 1);
    for (StreamMatches& f : found) {
      for (const JoinMatch& m : f.pairs) {
        match_build[cursor[m.probe]++] = m.build;
      }
      f = StreamMatches();
    }
  }

  // Emit in probe order: each probe row's matches, a LEFT row's padding,
  // or a semi/anti row by its flag. Large outputs emit in parallel over
  // probe ranges, concatenated in range order.
  const size_t out_width =
      emits_pairs ? probe.width() + spec.build_width : probe.width();
  auto emit_range = [&](size_t begin, size_t end, RowSet* part) {
    // Exact output size: the pairs, plus one row per flagged (semi) or
    // unflagged (left, anti) probe row.
    size_t rows = first[end] - first[begin];
    if (spec.type != JoinType::kInner) {
      for (size_t p = begin; p < end; p++) {
        rows += (spec.type == JoinType::kSemi) == (matched[p] != 0);
      }
    }
    part->reserve(rows);
    for (size_t p = begin; p < end; p++) {
      RowView prow = probe[p];
      switch (spec.type) {
        case JoinType::kInner:
        case JoinType::kLeft:
          for (size_t i = first[p]; i < first[p + 1]; i++) {
            part->AppendConcat(prow, build[match_build[i]]);
          }
          if (spec.type == JoinType::kLeft && !matched[p]) {
            part->AppendPadded(prow, spec.build_width);
          }
          break;
        case JoinType::kSemi:
          if (matched[p]) part->push_back(prow);
          break;
        case JoinType::kAnti:
          if (!matched[p]) part->push_back(prow);
          break;
      }
    }
  };
  const size_t parts_count =
      ctx.pool() != nullptr &&
              probe.size() + match_build.size() >= kParallelThreshold
          ? std::min(ctx.num_workers(), probe.size())
          : 1;
  std::vector<RowSet> parts(parts_count, RowSet(out_width));
  const size_t range = (probe.size() + parts_count - 1) / parts_count;
  auto emit_part = [&](size_t i, size_t) {
    emit_range(std::min(i * range, probe.size()),
               std::min((i + 1) * range, probe.size()), &parts[i]);
  };
  if (parts_count > 1) {
    ctx.pool()->ParallelFor(parts_count, emit_part);
  } else {
    emit_part(0, 0);
  }
  out->AppendAll(std::move(parts));
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
  // The input the (top-level) hash table goes on; an empty probe side
  // hashes nothing.
  prof.AddCounter("table_rows",
                  static_cast<int64_t>(HashesProbe(build, probe)
                                           ? probe.size()
                                           : build.size()));
  ArenaCounter arena_counter(prof, ctx);
  if (ctx.cancelled()) return {};
  // Every join type emits output only per probe row, so an empty probe side
  // needs no build table.
  if (probe.empty()) {
    prof.set_rows_out(0);
    return {};
  }

  SpillStats stats;
  JoinSpec spec{build_keys, probe_keys, type, residual, build.width()};
  RowSet out;
  bool aborted = false;
  Status st;
  {
    BudgetReservation res(ctx.budget());
    st = InMemoryJoin(build, probe, spec, ctx, &res, &aborted, &out);
  }  // the partial reservation is released before spilling starts
  if (st.ok() && aborted) {
    // Grace hash join: the in-memory multiset, grouped by partition. A
    // partition's build rows count twice (rows, table keys), probe rows once,
    // whichever side its in-memory join then hashes.
    JSONTILES_TRACE_SPAN("exec.join.spill");
    GraceOp op{{{&build, &build_keys, /*raw_weight=*/2},
                {&probe, &probe_keys, /*raw_weight=*/1}},
               /*skip_side=*/1,  // every join kind emits per probe row
               [&](const std::vector<RowSet>& rows, RowSet* local) {
                 bool unused_aborted = false;
                 return InMemoryJoin(rows[0], rows[1], spec, ctx, nullptr,
                                     &unused_aborted, local);
               }};
    st = GraceSpill(op, {}, 0, ctx, &stats, &out);
  }
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

RowSet LimitExec(RowSet in, size_t limit, QueryContext& ctx) {
  obs::OperatorProfiler prof(ctx.profile, "Limit", std::to_string(limit));
  prof.set_rows_in(in.size());
  if (in.size() > limit) in.resize(limit);
  prof.set_rows_out(in.size());
  return in;
}

}  // namespace jsontiles::exec
