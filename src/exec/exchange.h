// The exchange ("motion") seam between local execution and distributed shard
// execution. exec/ defines only the abstract runtime interface; the concrete
// coordinator/worker implementation lives in src/dist/ (which depends on
// exec/, never the reverse). A QueryContext carrying a DistRuntime routes
// sharded scans — and eligible aggregations — through it: per-shard plan
// fragments run in worker processes and their streamed results are merged
// here, bit-identical to local execution (DESIGN.md §13).

#ifndef JSONTILES_EXEC_EXCHANGE_H_
#define JSONTILES_EXEC_EXCHANGE_H_

#include <cstdint>
#include <vector>

#include "exec/operators.h"
#include "exec/scan.h"

namespace jsontiles::exec {

/// Per-worker transfer accounting for one exchange, surfaced as EXPLAIN
/// ANALYZE counters and dist.* metrics.
struct ExchangeWorkerStats {
  uint64_t rows = 0;        // data rows received from this worker
  uint64_t bytes = 0;       // wire bytes received (frame headers + payloads)
  uint64_t frames = 0;      // frames received
  uint64_t batches = 0;     // row/agg-result batches received
  uint64_t wall_nanos = 0;  // worker-reported fragment execution time
  uint64_t respawns = 0;    // times this worker slot was respawned here
};

struct ExchangeStats {
  std::vector<ExchangeWorkerStats> workers;
  uint64_t shards_scanned = 0;
  uint64_t shards_pruned = 0;
  uint64_t tiles_scanned = 0;
  uint64_t tiles_skipped = 0;
  /// Coordinator time in DecodeRowBatch/DecodeAggPartial, one clock pair
  /// per result frame.
  uint64_t decode_nanos = 0;
  // Fault-tolerance accounting (DESIGN.md §14), per exchange.
  uint64_t fragments_retried = 0;      // fragment re-dispatches
  uint64_t workers_respawned = 0;      // worker processes respawned
  uint64_t frames_rejected_stale = 0;  // epoch-stale frames discarded
  uint64_t recovery_nanos = 0;         // wall time spent in recovery
};

/// What a distributed runtime must provide. Implemented by dist::Cluster.
class DistRuntime {
 public:
  virtual ~DistRuntime() = default;

  /// True when this runtime's workers hold the shards of `rel` (i.e. it was
  /// started from the same manifest). Scans of other relations stay local.
  virtual bool Serves(const storage::ShardedRelation* rel) const = 0;

  virtual size_t num_workers() const = 0;

  /// Execute `spec` as per-shard fragments on the workers; rows arrive in
  /// ascending shard order (the same order the local scan's chunk merge
  /// produces). Decoded strings must outlive the query: they are copied into
  /// ctx.arena(0).
  virtual Status Scan(const ScanSpec& spec, QueryContext& ctx, RowSet* out,
                      ExchangeStats* stats) = 0;

  /// Scan + partial aggregation on the workers, exact-accumulator merge and
  /// finalization in the coordinator. Output rows are [keys..., aggs...] in
  /// group-table iteration order (same contract as AggregateExec).
  virtual Status Aggregate(const ScanSpec& spec,
                           const std::vector<ExprPtr>& group_by,
                           const std::vector<AggSpec>& aggs, QueryContext& ctx,
                           RowSet* out, ExchangeStats* stats) = 0;
};

/// Distributed scan operator: profiles + meters a DistRuntime::Scan. Called
/// by ScanExec when ctx.dist serves the scanned relation.
RowSet ExchangeExec(const ScanSpec& spec, QueryContext& ctx);

/// Distributed scan + partial-aggregate push-down. Replaces the
/// ScanExec→AggregateExec pair for eligible single-table blocks (see
/// opt/query.cc); group_by/agg argument expressions are slot-rewritten
/// against the scan's access list, exactly as AggregateExec would see them.
RowSet ExchangeAggregateExec(const ScanSpec& spec,
                             const std::vector<ExprPtr>& group_by,
                             const std::vector<AggSpec>& aggs,
                             QueryContext& ctx);

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_EXCHANGE_H_
