// Table scan with access-expression push-down (paper §4.2, §4.5, §4.8).
//
// The scan receives the typed JSON accesses of the query (placeholders). Per
// tile it resolves each access once — materialized column (direct or with a
// cheap cast, §4.3/§4.5), or binary-JSON fallback — caches the resolution for
// all tuples of the tile, skips tiles that cannot contain a null-rejecting
// path (§4.8), evaluates the pushed-down filter, and emits rows of slot
// values. JSONB/JSON-text relations scan documents directly (the JSON-text
// mode re-parses every document, which is exactly its cost). CONTAINS on an
// array with a side relation (Tiles-*, §3.5) reads it from a bitmap the side
// relation fills (DESIGN.md §3 "CONTAINS routes").

#ifndef JSONTILES_EXEC_SCAN_H_
#define JSONTILES_EXEC_SCAN_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/expression.h"
#include "exec/row_set.h"
#include "exec/vector_batch.h"
#include "obs/plan_profile.h"
#include "storage/relation.h"
#include "util/arena.h"
#include "util/resource_governor.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace jsontiles::storage {
class ShardedRelation;
}  // namespace jsontiles::storage

namespace jsontiles::exec {

class DistRuntime;  // exec/exchange.h

/// Fault-tolerance budget of a distributed query (DESIGN.md §14). A worker
/// that dies or hangs mid-fragment is killed, respawned with capped
/// exponential backoff, and its fragments re-dispatched (new epoch) to a
/// surviving worker; fragments are deterministic and results commit only on
/// FragmentDone, so a re-execution is safe and bit-identical. Zeroed budgets
/// restore the PR-8 behavior: the first worker death fails the query.
struct DistRetryPolicy {
  /// Re-dispatches allowed per fragment before the query fails cleanly.
  uint32_t max_fragment_retries = 2;
  /// Respawns allowed per worker slot over the cluster's lifetime; a slot
  /// that exhausts it is permanently dead and its shards migrate to
  /// survivors.
  uint32_t max_worker_respawns = 2;
  /// First respawn backoff; doubles per consecutive attempt, capped below.
  uint32_t respawn_backoff_ms = 25;
  uint32_t respawn_backoff_cap_ms = 1000;
};

struct ExecOptions {
  size_t num_threads = 1;
  /// §4.8: skip tiles that cannot contain a null-rejecting key path.
  bool enable_tile_skipping = true;
  /// Hard cap on operator scratch memory (join/aggregation hash tables,
  /// spill-partition read-back); 0 = unlimited. Operators spill to disk
  /// (exec/spill.h) instead of exceeding it — results are identical.
  size_t mem_limit_bytes = 0;
  /// Directory for spill temp files; empty = $TMPDIR (else /tmp).
  std::string spill_dir;
  /// Parent of the query's memory budget (not owned; must outlive every
  /// budget operation of the query). The multi-tenant service
  /// (service/query_service.h) points this at the query's resource-group
  /// quota, making the per-query budget a grandchild of the global budget:
  /// group exhaustion then refuses operator charges — triggering spill —
  /// instead of over-committing memory. Null = standalone query budget.
  MemoryBudget* budget_parent = nullptr;
  /// Shared spill-disk governor (not owned; null = uncapped). When set,
  /// every SpillFile block reserves against it before reaching disk, capping
  /// the aggregate temp-disk of all concurrently spilling queries; a refused
  /// reserve fails only this query, with a clean ResourceExhausted.
  DiskBudget* spill_disk = nullptr;
  /// Worker-failure recovery budgets for distributed execution (ignored by
  /// local queries).
  DistRetryPolicy dist_retry;
};

/// Per-query state: worker arenas for derived strings (rows reference them,
/// so the context must outlive all row sets) and an optional thread pool.
class QueryContext {
 public:
  explicit QueryContext(ExecOptions options = {});

  const ExecOptions& options() const { return options_; }
  size_t num_workers() const { return arenas_.size(); }
  Arena* arena(size_t worker) { return arenas_[worker].get(); }
  ThreadPool* pool() { return pool_.get(); }

  /// Query-level memory budget (limit = options().mem_limit_bytes; 0 =
  /// unlimited). Operators reserve scratch memory against it and spill when
  /// refused.
  MemoryBudget* budget() { return &budget_; }

  /// Sever the budget's link to options().budget_parent. A governed session
  /// keeps the context (its arenas back the result rows) after releasing
  /// its admission, at which point the parent — the resource-group quota —
  /// may be dropped at any time; detaching makes any later budget access
  /// stop at the query level instead of chasing a dangling pointer. Call
  /// only once every charge taken through the parent has been released
  /// (Release() guarantees this for admissions).
  void DetachBudgetParent() { budget_.DetachParent(); }

  /// Record a failure and request cancellation; the first status wins.
  /// Thread-safe — workers call this when a morsel fails mid-query.
  void Cancel(Status status);
  /// True once any part of the query has failed; operators and scan morsels
  /// check this to stop doing work (cooperative unwinding).
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  /// Take the recorded failure (OK when none) and reset the cancelled flag.
  /// The SQL boundary calls this once after execution to surface the error.
  Status ConsumeStatus();

  /// Bytes allocated across all worker arenas so far. Arenas only grow for
  /// the lifetime of the query, so this is also the peak, and the delta
  /// across an operator is that operator's allocation — EXPLAIN ANALYZE
  /// reports it per operator. Only call between operators (workers allocate
  /// concurrently inside one).
  size_t arena_bytes() const {
    size_t total = 0;
    for (const auto& a : arenas_) total += a->bytes_allocated();
    return total;
  }

  /// Tiles skipped by §4.8 across all scans of this query (observability).
  size_t tiles_skipped = 0;
  size_t tiles_scanned = 0;
  /// Shard-level pruning across all sharded scans of this query: shards
  /// skipped entirely (routing key, shard bloom, shard zone maps) vs shards
  /// whose tiles were considered. Unsharded scans touch neither.
  size_t shards_pruned = 0;
  size_t shards_scanned = 0;
  /// Bytes this query wrote to spill runs across all operators, block
  /// headers included. Accumulated by the operator that owned the spill, on
  /// its calling thread — read it only between operators.
  uint64_t spilled_bytes = 0;

  /// Stamped by the admission layer (service/query_service.h): the resource
  /// group that admitted this query and how long it waited in the group's
  /// queue. EXPLAIN ANALYZE appends them as a footer row when set.
  std::string resource_group;
  uint64_t queue_wait_nanos = 0;

  /// Per-operator profiling sink (EXPLAIN ANALYZE). Null means off: each
  /// operator then pays a single branch. Not owned; the SQL layer attaches
  /// one for the duration of a profiled statement.
  obs::PlanProfile* profile = nullptr;

  /// Distributed runtime (exec/exchange.h). Null means local execution.
  /// When set, sharded scans of relations the runtime serves are dispatched
  /// to worker processes instead of running in this process. Not owned; the
  /// SQL layer (or a test/bench driver) attaches one per statement.
  DistRuntime* dist = nullptr;

 private:
  ExecOptions options_;
  MemoryBudget budget_;
  std::vector<std::unique_ptr<Arena>> arenas_;
  std::unique_ptr<ThreadPool> pool_;
  std::atomic<bool> cancelled_{false};
  std::mutex cancel_mutex_;
  Status cancel_status_;
};

/// A set of rows of one relation, one bit per row: the row-subset input of
/// a plain-relation scan (plan-time sampling reads its sample this way), and
/// the rows a side relation answers CONTAINS for (the Tiles-* route).
class RowSubset {
 public:
  explicit RowSubset(size_t num_rows) : words_((num_rows + 63) / 64, 0) {}
  void Add(size_t row) { words_[row >> 6] |= uint64_t{1} << (row & 63); }
  bool Contains(size_t row) const {
    return (words_[row >> 6] >> (row & 63)) & 1;
  }
  /// True when a row of [begin, begin + count) is listed.
  bool Any(size_t begin, size_t count) const;
  /// The listed rows of [begin, begin + count) as ascending offsets from
  /// `begin`, written to `lanes` (count <= kVectorSize); returns how many.
  size_t Lanes(size_t begin, size_t count, uint16_t* lanes) const;

 private:
  // Word w with the bits of rows outside [begin, end) cleared.
  uint64_t MaskedWord(size_t w, size_t begin, size_t end) const;
  std::vector<uint64_t> words_;
};

struct ScanSpec {
  const storage::Relation* relation = nullptr;
  /// Sharded scan source (exactly one of relation/sharded is set). The scan
  /// iterates the shards, pruning whole shards with shard-level statistics
  /// (routing key → bloom → zone maps) before any tile-level work, and
  /// offsets row ids by each shard's RowIdBase so they are globally unique.
  const storage::ShardedRelation* sharded = nullptr;
  std::string table_alias;
  /// Pushed-down accesses; output slot i = accesses[i].
  std::vector<ExprPtr> accesses;
  /// Pushed-down predicate over the output slots (may be null).
  ExprPtr filter;
  /// Encoded paths enabling tile skipping for this scan.
  std::vector<std::string> null_rejecting_paths;
  /// Range predicates enabling zone-map tile skipping (§4.8 extension).
  std::vector<RangePredicate> range_predicates;
  /// With `relation`: row-id offset added to every row's virtual row id.
  /// Worker processes scan a single shard as a plain relation and pass
  /// RowIdBase(shard) here so rowids match the sharded scan's exactly.
  int64_t rowid_base = 0;
  /// With `relation`: scan only these rows (null = all). A chunk without a
  /// listed row is dropped unread, and a batch starts its selection from
  /// the listed lanes, so an unlisted row is never read. A row-subset scan
  /// answers CONTAINS from the documents, never from a side relation.
  const RowSubset* row_subset = nullptr;
};

/// Execute the scan; rows contain one value per access, in order.
RowSet ScanExec(const ScanSpec& spec, QueryContext& ctx);

/// Shard indices of `spec.sharded` that survive shard-level pruning (routing
/// key → shard bloom → shard zone maps), ascending. With `enable_pruning`
/// false, every shard survives. This is the exact shard set a local sharded
/// scan would visit — the distributed coordinator plans fragments from it so
/// pruning behaves identically in both modes.
std::vector<size_t> SurvivingShards(const ScanSpec& spec, bool enable_pruning);

/// Evaluate one access against a binary JSON document (the fallback route
/// and the JSONB storage route). String results view the document's bytes;
/// derived strings (casts, container text) live in the arena.
Value EvalAccessOnJsonb(json::JsonbValue doc, const std::string& path,
                        ValueType requested, Arena* arena);

/// Batched binary-JSON fallback accessor: extract one pre-decoded key path
/// from many documents into ColumnVector lanes in a single pass. For every
/// lane r in `lanes`, navigates docs[r] (which must be non-null there) along
/// `steps` and stores the scalar converted to `requested` into `vec` —
/// bit-identical per lane to EvalAccessOnJsonb (missing path => null lane;
/// string lanes view the document bytes, which must outlive the batch).
/// `vec` must already be Reset to `requested`.
void ExtractJsonbPathBatch(const uint8_t* const* docs, const uint16_t* lanes,
                           size_t num_lanes, const json::PathStep* steps,
                           size_t num_steps, ValueType requested, Arena* arena,
                           ColumnVector* vec);

}  // namespace jsontiles::exec

#endif  // JSONTILES_EXEC_SCAN_H_
