// Distributed shard execution: the coordinator side (DESIGN.md §13, §14).
//
// A Cluster forks N long-lived worker processes (jsontiles_workerd), each
// listening on its own AF_UNIX socket, and speaks the dist/wire.h frame
// protocol to them. Shards of one saved relation (a JTSM manifest) are
// assigned to workers up front by greedy LPT over the manifest's per-shard
// row counts — the manifest carries them exactly so planning needs no shard
// file I/O. Per query, the coordinator sends one plan fragment per surviving
// shard to the shard's owner and multiplexes the result frames back.
//
// Determinism: fragment granularity is one shard, the coordinator computes
// the surviving-shard set with the same SurvivingShards the local scan uses,
// and scan results are concatenated in ascending shard order — exactly the
// local sharded scan's part order — so distributed scans are bit-identical
// to local ones for any worker count. Aggregates push partials down and
// merge through exec/agg_state.h's order-independent accumulators.
//
// Failure semantics (DESIGN.md §14): fragments move through a per-query
// state machine (Pending → Dispatched → Done) with result staging — frames
// commit into the merge only on FragmentDone, so a dead worker's partial
// output is discarded atomically. A worker that dies (EOF/EPIPE/waitpid) or
// goes silent past the idle-liveness deadline is killed, respawned with
// capped exponential backoff, and its fragments re-dispatched (next epoch)
// by LPT over the remaining work; late frames from a superseded dispatch
// are rejected by epoch. Budgets come from ExecOptions::dist_retry. A worker
// that *reports* a failure (kFragmentError) fails only that query —
// deterministic fragments make re-running it futile — and retry-budget
// exhaustion fails the query cleanly without poisoning later ones.

#ifndef JSONTILES_DIST_CLUSTER_H_
#define JSONTILES_DIST_CLUSTER_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "dist/wire.h"
#include "exec/exchange.h"
#include "storage/shard.h"
#include "util/status.h"

namespace jsontiles::dist {

struct ClusterOptions {
  size_t num_workers = 2;
  /// ExecOptions::num_threads of each worker-side fragment context.
  size_t worker_threads = 1;
  /// Path of the jsontiles_workerd binary (tests/benches get it from the
  /// JSONTILES_WORKERD_PATH compile definition).
  std::string workerd_path;
  /// Budget for connecting to a freshly forked worker (retry with backoff —
  /// the coordinator races the worker's bind+listen).
  int connect_timeout_ms = 10000;
  /// Per-worker idle-liveness budget during a query: a worker with
  /// dispatched fragments that sends no frame for this long is declared
  /// hung, killed, and its fragments re-dispatched. Also bounds any single
  /// in-flight frame.
  int recv_timeout_ms = 60000;
  /// Failpoint specs forwarded to every worker's command line
  /// ("name=always|nth:N|everyk:K") — failpoints are per-process.
  std::vector<std::string> worker_failpoints;
  /// Extra per-worker failpoints (indexed by worker slot, appended to
  /// worker_failpoints) — the chaos harness arms each initial worker with
  /// its own seeded crash point.
  std::vector<std::vector<std::string>> per_worker_failpoints;
  /// Failpoints for *respawned* workers; replaces worker_failpoints so a
  /// crash-armed initial worker can be replaced by a healthy one (or, in
  /// tests, by an equally doomed one).
  std::vector<std::string> respawn_failpoints;
};

class Cluster : public exec::DistRuntime {
 public:
  /// Fork + connect + handshake the workers and assign every shard of the
  /// manifest. `local` is the coordinator's own open ShardedRelation for the
  /// same manifest: Serves() identifies it, and fragments are planned from
  /// its shard statistics. On any failure every spawned worker is killed
  /// and reaped — no orphan processes, no stale sockets.
  static Result<std::unique_ptr<Cluster>> Start(
      const std::string& manifest_path, const storage::ShardedRelation* local,
      ClusterOptions options);

  ~Cluster() override;

  // --- exec::DistRuntime -----------------------------------------------
  bool Serves(const storage::ShardedRelation* rel) const override {
    return rel != nullptr && rel == local_;
  }
  size_t num_workers() const override { return workers_.size(); }
  Status Scan(const exec::ScanSpec& spec, exec::QueryContext& ctx,
              exec::RowSet* out, exec::ExchangeStats* stats) override;
  Status Aggregate(const exec::ScanSpec& spec,
                   const std::vector<exec::ExprPtr>& group_by,
                   const std::vector<exec::AggSpec>& aggs,
                   exec::QueryContext& ctx, exec::RowSet* out,
                   exec::ExchangeStats* stats) override;

  // --- introspection (tests, benches) ----------------------------------
  size_t shard_count() const { return manifest_.shard_count(); }
  /// Owning worker of each shard (LPT assignment; updated when a
  /// permanently dead worker's shards migrate to survivors).
  const std::vector<size_t>& shard_owner() const { return shard_owner_; }
  const storage::ShardManifestInfo& manifest() const { return manifest_; }
  size_t alive_workers() const;
  /// Cluster-lifetime recovery totals (mirrored into dist.* metrics and,
  /// per query, ExchangeStats).
  uint64_t fragments_retried() const { return fragments_retried_; }
  uint64_t workers_respawned() const { return workers_respawned_; }
  uint64_t frames_rejected_stale() const { return frames_rejected_stale_; }
  /// Wall nanos spent detecting, reaping, respawning, and re-dispatching
  /// (the query-visible recovery latency).
  uint64_t recovery_nanos() const { return recovery_nanos_; }

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

 private:
  struct WorkerConn {
    pid_t pid = -1;
    int fd = -1;
    std::string socket_path;
    /// Shards currently opened worker-side (sorted ascending). Grows past
    /// the initial assignment when shards migrate off dead workers.
    std::vector<size_t> shards;
    bool alive = false;
    /// Respawns consumed over the cluster's lifetime (budget:
    /// DistRetryPolicy::max_worker_respawns).
    uint32_t respawns = 0;
    /// Mid-query kOpen frames in flight (shard migration): each entry
    /// records the shard set sent and the set before it, so the matching
    /// kOpenOk can be validated — or the optimistic update rolled back when
    /// the worker replies kError instead.
    struct OpenAttempt {
      std::vector<size_t> sent;
      std::vector<size_t> prev;
    };
    std::deque<OpenAttempt> pending_opens;
    std::chrono::steady_clock::time_point last_activity{};
  };

  /// Per-fragment state machine of one exchange. Results stage here and
  /// commit only on FragmentDone — a dead worker's partial output is
  /// dropped by clearing the stage, never unpicked from the merge.
  struct Fragment {
    enum class Phase : uint8_t { kPending, kDispatched, kDone };
    size_t shard = 0;
    Phase phase = Phase::kPending;
    uint32_t epoch = 0;     // bumped on every dispatch
    uint32_t attempts = 0;  // dispatches so far
    size_t worker = SIZE_MAX;
    exec::RowSet staged_rows;
    std::vector<AggPartial> staged_aggs;
  };

  /// One exchange's transient coordinator state (fragments + accounting).
  struct QueryState;

  Cluster() = default;

  /// One fragment per shard that survives `spec`'s shard pruning.
  Status RunFragments(const exec::ScanSpec& spec,
                      const std::vector<exec::ExprPtr>& group_by,
                      const std::vector<exec::AggSpec>& aggs,
                      exec::QueryContext& ctx,
                      std::vector<exec::RowSet>* row_buckets,
                      exec::GroupTable* agg_merge,
                      exec::ExchangeStats* stats);

  Status SpawnWorker(size_t index, bool respawn);
  Status ConnectWorker(WorkerConn* worker);
  /// Hello + kOpen(shards) + kOpenOk validated against the manifest.
  Status HandshakeWorker(size_t index, const std::vector<size_t>& shards);
  /// Close, SIGKILL, and synchronously reap one worker process; unlink its
  /// socket. Safe on already-dead workers. Never leaks a child.
  void DestroyWorkerProcess(WorkerConn* worker);
  void KillAll();

  /// Handle the death (or declared hang) of worker `w` mid-exchange:
  /// requeue its fragments (discarding staged results; fail the query when a
  /// fragment's retry budget is exhausted), respawn with capped backoff
  /// under `policy`, and migrate its shards to survivors when the respawn
  /// budget is spent.
  void RecoverWorker(size_t w, const std::string& reason,
                     const exec::DistRetryPolicy& policy, QueryState* q,
                     exec::ExchangeStats* stats);
  /// Respawn worker `w` (spawn + connect + handshake + open) with backoff;
  /// true on success.
  bool RespawnWorker(size_t w, const exec::DistRetryPolicy& policy);
  /// Re-open worker `w` with the union of its current shards and `shard`
  /// (no-op when already open). Marks awaiting_openok; validation happens
  /// when the frame arrives.
  Status EnsureShardOpen(size_t w, size_t shard,
                         exec::ExchangeStats* stats);
  /// Pick the dispatch target for `frag`: the shard's owner when alive,
  /// otherwise LPT over the remaining dispatched work. SIZE_MAX when no
  /// worker is alive.
  size_t ChooseWorker(const Fragment& frag, const QueryState& q) const;
  /// Dispatch one pending fragment. Never returns an error: a transport
  /// fault on the chosen worker triggers RecoverWorker (the fragment goes
  /// back to Pending or consumes budget), and capacity exhaustion records a
  /// fatal status in `q`.
  void DispatchFragment(size_t frag_index, const exec::ScanSpec& spec,
                        bool is_agg,
                        const std::vector<exec::ExprPtr>& group_by,
                        const std::vector<exec::AggSpec>& aggs,
                        exec::QueryContext& ctx, QueryState* q,
                        exec::ExchangeStats* stats);

  const storage::ShardedRelation* local_ = nullptr;
  std::string manifest_path_;
  storage::ShardManifestInfo manifest_;
  ClusterOptions options_;
  std::vector<WorkerConn> workers_;
  std::vector<size_t> shard_owner_;
  /// Set when every worker slot is permanently dead: the cluster has no
  /// capacity left and all later queries fail fast (genuine capacity loss,
  /// not the old blanket poisoning).
  bool no_workers_left_ = false;

  uint64_t fragments_retried_ = 0;
  uint64_t workers_respawned_ = 0;
  uint64_t frames_rejected_stale_ = 0;
  uint64_t recovery_nanos_ = 0;
};

}  // namespace jsontiles::dist

#endif  // JSONTILES_DIST_CLUSTER_H_
