#include "exec/exchange.h"

#include <string>

#include "obs/obs.h"
#include "obs/plan_profile.h"
#include "storage/shard.h"

namespace jsontiles::exec {

namespace {

// Stamp the exchange node with transfer counters and update the context's
// scan statistics (the fragments ran remotely, so the local scan path never
// touched ctx.tiles_* / ctx.shards_*).
void ReportExchange(obs::OperatorProfiler& prof, const ExchangeStats& stats,
                    QueryContext& ctx) {
  uint64_t frames = 0, bytes = 0, batches = 0, rows = 0;
  for (const ExchangeWorkerStats& w : stats.workers) {
    frames += w.frames;
    bytes += w.bytes;
    batches += w.batches;
    rows += w.rows;
  }
  ctx.shards_scanned += stats.shards_scanned;
  ctx.shards_pruned += stats.shards_pruned;
  ctx.tiles_scanned += stats.tiles_scanned;
  ctx.tiles_skipped += stats.tiles_skipped;
  JSONTILES_COUNTER_ADD("dist.workers",
                        static_cast<int64_t>(stats.workers.size()));
  JSONTILES_COUNTER_ADD("dist.frames", static_cast<int64_t>(frames));
  JSONTILES_COUNTER_ADD("dist.bytes_sent", static_cast<int64_t>(bytes));
  JSONTILES_COUNTER_ADD("dist.batches_sent", static_cast<int64_t>(batches));
  JSONTILES_COUNTER_ADD("dist.decode_nanos",
                        static_cast<int64_t>(stats.decode_nanos));
  if (stats.fragments_retried > 0) {
    JSONTILES_COUNTER_ADD("dist.fragments_retried",
                          static_cast<int64_t>(stats.fragments_retried));
  }
  if (stats.workers_respawned > 0) {
    JSONTILES_COUNTER_ADD("dist.workers_respawned",
                          static_cast<int64_t>(stats.workers_respawned));
  }
  if (stats.frames_rejected_stale > 0) {
    JSONTILES_COUNTER_ADD("dist.frames_rejected_stale",
                          static_cast<int64_t>(stats.frames_rejected_stale));
  }
  if (!prof.active()) return;
  prof.AddCounter("workers", static_cast<int64_t>(stats.workers.size()));
  prof.AddCounter("frames", static_cast<int64_t>(frames));
  prof.AddCounter("bytes", static_cast<int64_t>(bytes));
  prof.AddCounter("batches", static_cast<int64_t>(batches));
  prof.AddCounter("shards", static_cast<int64_t>(stats.shards_scanned));
  prof.AddCounter("shards_pruned", static_cast<int64_t>(stats.shards_pruned));
  prof.AddCounter("tiles", static_cast<int64_t>(stats.tiles_scanned));
  prof.AddCounter("tiles_skipped",
                  static_cast<int64_t>(stats.tiles_skipped));
  prof.AddCounter("decode_nanos", static_cast<int64_t>(stats.decode_nanos));
  // Recovery accounting appears only when recovery actually happened — the
  // happy path's EXPLAIN ANALYZE stays unchanged.
  if (stats.fragments_retried > 0) {
    prof.AddCounter("fragments_retried",
                    static_cast<int64_t>(stats.fragments_retried));
  }
  if (stats.workers_respawned > 0) {
    prof.AddCounter("workers_respawned",
                    static_cast<int64_t>(stats.workers_respawned));
  }
  if (stats.frames_rejected_stale > 0) {
    prof.AddCounter("frames_rejected_stale",
                    static_cast<int64_t>(stats.frames_rejected_stale));
  }
  if (stats.recovery_nanos > 0) {
    prof.AddCounter("recovery_nanos",
                    static_cast<int64_t>(stats.recovery_nanos));
  }
  // Per-worker rows/bytes/time: the EXPLAIN ANALYZE view of fragment skew.
  for (size_t i = 0; i < stats.workers.size(); i++) {
    const ExchangeWorkerStats& w = stats.workers[i];
    const std::string p = "w" + std::to_string(i) + "_";
    prof.AddCounter(p + "rows", static_cast<int64_t>(w.rows));
    prof.AddCounter(p + "bytes", static_cast<int64_t>(w.bytes));
    prof.AddCounter(p + "nanos", static_cast<int64_t>(w.wall_nanos));
    if (w.respawns > 0) {
      prof.AddCounter(p + "respawns", static_cast<int64_t>(w.respawns));
    }
  }
}

std::string ExchangeDetail(const ScanSpec& spec) {
  return !spec.table_alias.empty() ? spec.table_alias : spec.sharded->name();
}

}  // namespace

RowSet ExchangeExec(const ScanSpec& spec, QueryContext& ctx) {
  JSONTILES_TRACE_SPAN("dist.exchange");
  obs::OperatorProfiler prof(ctx.profile, "Exchange", ExchangeDetail(spec));
  if (ctx.cancelled()) return {};

  ExchangeStats stats;
  RowSet out;
  Status st = ctx.dist->Scan(spec, ctx, &out, &stats);
  ReportExchange(prof, stats, ctx);
  if (!st.ok()) {
    ctx.Cancel(std::move(st));
    return {};
  }
  prof.set_rows_out(out.size());
  return out;
}

RowSet ExchangeAggregateExec(const ScanSpec& spec,
                             const std::vector<ExprPtr>& group_by,
                             const std::vector<AggSpec>& aggs,
                             QueryContext& ctx) {
  JSONTILES_TRACE_SPAN("dist.exchange_agg");
  obs::OperatorProfiler prof(ctx.profile, "ExchangeAggregate",
                             ExchangeDetail(spec) + ": " +
                                 std::to_string(group_by.size()) + " keys, " +
                                 std::to_string(aggs.size()) + " aggs");
  if (ctx.cancelled()) return {};

  ExchangeStats stats;
  RowSet out;
  Status st = ctx.dist->Aggregate(spec, group_by, aggs, ctx, &out, &stats);
  ReportExchange(prof, stats, ctx);
  if (!st.ok()) {
    ctx.Cancel(std::move(st));
    return {};
  }
  prof.set_rows_out(out.size());
  return out;
}

}  // namespace jsontiles::exec
