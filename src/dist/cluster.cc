#include "dist/cluster.h"

#include <errno.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "exec/scan.h"
#include "obs/obs.h"
#include "util/failpoint.h"

namespace jsontiles::dist {

namespace {

std::string TempDir() {
  const char* env = std::getenv("TMPDIR");
  if (env != nullptr && env[0] != '\0') return env;
  return "/tmp";
}

std::string WorkerName(size_t index) {
  return "worker " + std::to_string(index);
}

/// Greedy LPT: largest shards first (by manifest row count, ties to the
/// lower shard index), each to the currently least-loaded worker (ties to
/// the lower worker index). Deterministic, and within ~4/3 of the optimal
/// makespan — good enough that a 4-worker sweep sees real speedup even with
/// skewed shards.
std::vector<size_t> AssignShards(const std::vector<uint64_t>& shard_rows,
                                 size_t num_workers) {
  std::vector<size_t> order(shard_rows.size());
  for (size_t i = 0; i < order.size(); i++) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (shard_rows[a] != shard_rows[b]) return shard_rows[a] > shard_rows[b];
    return a < b;
  });
  std::vector<uint64_t> load(num_workers, 0);
  std::vector<size_t> owner(shard_rows.size(), 0);
  for (size_t s : order) {
    size_t best = 0;
    for (size_t w = 1; w < num_workers; w++) {
      if (load[w] < load[best]) best = w;
    }
    owner[s] = best;
    load[best] += shard_rows[s];
  }
  return owner;
}

uint64_t ElapsedNanos(std::chrono::steady_clock::time_point t0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace

/// One exchange's transient coordinator state: the fragment table plus
/// per-worker in-flight accounting. `fatal` is the first unrecoverable
/// failure — once set, pending fragments are abandoned but in-flight ones
/// are still drained so surviving connections stay frame-aligned for the
/// next query.
struct Cluster::QueryState {
  std::vector<Fragment> fragments;
  std::unordered_map<uint32_t, size_t> by_id;  // fragment_id -> index
  std::vector<size_t> outstanding;   // Dispatched fragments per worker
  std::vector<uint64_t> load;        // manifest rows in flight per worker
  size_t dispatched = 0;
  size_t pending = 0;
  Status fatal = Status::OK();
};

Status Cluster::SpawnWorker(size_t index, bool respawn) {
  WorkerConn* worker = &workers_[index];
  worker->socket_path = TempDir() + "/jtw-" + std::to_string(getpid()) + "-" +
                        std::to_string(index) + ".sock";
  struct sockaddr_un addr;
  if (worker->socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long: " +
                                   worker->socket_path);
  }
  ::unlink(worker->socket_path.c_str());

  std::vector<std::string> args;
  args.push_back(options_.workerd_path);
  args.push_back("--socket");
  args.push_back(worker->socket_path);
  const std::vector<std::string>& base_fps =
      respawn ? options_.respawn_failpoints : options_.worker_failpoints;
  for (const std::string& fp : base_fps) {
    args.push_back("--failpoint");
    args.push_back(fp);
  }
  if (!respawn && index < options_.per_worker_failpoints.size()) {
    for (const std::string& fp : options_.per_worker_failpoints[index]) {
      args.push_back("--failpoint");
      args.push_back(fp);
    }
  }

  pid_t pid = ::fork();
  if (pid < 0) {
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(options_.workerd_path.c_str(), argv.data());
    _exit(127);  // exec failed; parent sees the early exit while connecting
  }
  worker->pid = pid;
  return Status::OK();
}

Status Cluster::ConnectWorker(WorkerConn* worker) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(options_.connect_timeout_ms);
  int backoff_us = 1000;
  while (true) {
    // A worker that died during startup (exec failure, crash failpoint)
    // would otherwise make us spin until the timeout.
    int wstatus = 0;
    if (::waitpid(worker->pid, &wstatus, WNOHANG) > 0) {
      worker->pid = -1;
      return Status::Internal(WorkerName(worker - workers_.data()) +
                              " exited during startup");
    }
    bool attempt_failed = JSONTILES_FAILPOINT_FIRES("dist.connect");
    int fd = -1;
    if (!attempt_failed) {
      fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) {
        return Status::Internal(std::string("socket: ") +
                                std::strerror(errno));
      }
      struct sockaddr_un addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, worker->socket_path.c_str(),
                   sizeof(addr.sun_path) - 1);
      if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        worker->fd = fd;
        return Status::OK();
      }
      ::close(fd);
      attempt_failed = true;
    }
    (void)attempt_failed;
    if (std::chrono::steady_clock::now() >= deadline) {
      return Status::Internal("timed out connecting to " +
                              WorkerName(worker - workers_.data()) + " at " +
                              worker->socket_path);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    backoff_us = std::min(backoff_us * 2, 50000);
  }
}

Status Cluster::HandshakeWorker(size_t index,
                                const std::vector<size_t>& shards) {
  WorkerConn& worker = workers_[index];
  // The worker leads with kHello; we reply with the shard assignment
  // (kOpen) and expect kOpenOk row counts matching the manifest.
  FrameType type;
  std::vector<uint8_t> payload;
  Status st = ReadFrame(worker.fd, options_.recv_timeout_ms, &type, &payload,
                        nullptr);
  if (st.ok() && type != FrameType::kHello) {
    st = Status::Internal(WorkerName(index) + ": expected Hello");
  }
  HelloMsg hello;
  if (st.ok()) st = DecodeHello(payload, &hello);
  if (st.ok() && hello.version != kWireVersion) {
    st = Status::Internal(WorkerName(index) + ": wire version mismatch (" +
                          std::to_string(hello.version) + " != " +
                          std::to_string(kWireVersion) + ")");
  }
  if (st.ok()) {
    OpenMsg open;
    open.manifest_path = manifest_path_;
    open.num_threads = options_.worker_threads;
    for (size_t s : shards) open.shards.push_back(s);
    payload.clear();
    EncodeOpen(open, &payload);
    st = WriteFrame(worker.fd, FrameType::kOpen, payload, nullptr);
  }
  if (st.ok()) {
    st = ReadFrame(worker.fd, options_.recv_timeout_ms, &type, &payload,
                   nullptr);
  }
  if (st.ok() && type == FrameType::kError) {
    Status reported = Status::OK();
    st = DecodeStatus(payload, &reported);
    if (st.ok()) {
      st = Status(reported.code(), WorkerName(index) +
                                       " failed to open shards: " +
                                       reported.message());
    }
  } else if (st.ok()) {
    OpenOkMsg ok_msg;
    if (type != FrameType::kOpenOk) {
      st = Status::Internal(WorkerName(index) + ": expected OpenOk");
    }
    if (st.ok()) st = DecodeOpenOk(payload, &ok_msg);
    if (st.ok() && ok_msg.shard_rows.size() != shards.size()) {
      st = Status::Internal(WorkerName(index) + ": OpenOk shard count mismatch");
    }
    for (size_t i = 0; st.ok() && i < shards.size(); i++) {
      if (ok_msg.shard_rows[i] != manifest_.num_rows[shards[i]]) {
        st = Status::Internal(WorkerName(index) + ": shard " +
                              std::to_string(shards[i]) +
                              " row count does not match the manifest");
      }
    }
  }
  return st;
}

Result<std::unique_ptr<Cluster>> Cluster::Start(
    const std::string& manifest_path, const storage::ShardedRelation* local,
    ClusterOptions options) {
  if (options.workerd_path.empty()) {
    return Status::InvalidArgument("ClusterOptions::workerd_path is required");
  }
  if (options.num_workers == 0) {
    return Status::InvalidArgument("ClusterOptions::num_workers must be >= 1");
  }
  auto manifest = storage::ReadShardManifest(manifest_path);
  JSONTILES_RETURN_NOT_OK(manifest.status());

  std::unique_ptr<Cluster> cluster(new Cluster());
  cluster->local_ = local;
  cluster->manifest_path_ = manifest_path;
  cluster->manifest_ = std::move(manifest.ValueOrDie());
  cluster->options_ = std::move(options);
  cluster->shard_owner_ = AssignShards(cluster->manifest_.num_rows,
                                       cluster->options_.num_workers);
  cluster->workers_.resize(cluster->options_.num_workers);
  for (size_t s = 0; s < cluster->shard_owner_.size(); s++) {
    cluster->workers_[cluster->shard_owner_[s]].shards.push_back(s);
  }

  JSONTILES_TRACE_SPAN("dist.cluster_start");
  for (size_t w = 0; w < cluster->workers_.size(); w++) {
    WorkerConn& worker = cluster->workers_[w];
    Status st = cluster->SpawnWorker(w, /*respawn=*/false);
    if (st.ok()) st = cluster->ConnectWorker(&worker);
    if (st.ok()) st = cluster->HandshakeWorker(w, worker.shards);
    if (!st.ok()) {
      cluster->KillAll();
      return st;
    }
    worker.alive = true;
    worker.last_activity = std::chrono::steady_clock::now();
  }
  JSONTILES_COUNTER_ADD("dist.workers_started",
                        static_cast<int64_t>(cluster->workers_.size()));
  return cluster;
}

void Cluster::DestroyWorkerProcess(WorkerConn* worker) {
  if (worker->fd >= 0) {
    ::close(worker->fd);
    worker->fd = -1;
  }
  if (worker->pid > 0) {
    ::kill(worker->pid, SIGKILL);
    ::waitpid(worker->pid, nullptr, 0);
    worker->pid = -1;
  }
  if (!worker->socket_path.empty()) ::unlink(worker->socket_path.c_str());
  worker->alive = false;
  worker->pending_opens.clear();
}

void Cluster::KillAll() {
  for (WorkerConn& worker : workers_) DestroyWorkerProcess(&worker);
}

Cluster::~Cluster() {
  // Graceful first: Shutdown frame + close for everyone, then ONE bounded
  // WNOHANG sweep across all children in parallel (a stuck worker must not
  // serialize the others' grace period), then SIGKILL + a final blocking
  // waitpid for the stragglers. Never hangs, never leaks a child.
  const std::vector<uint8_t> empty;
  for (WorkerConn& worker : workers_) {
    if (worker.fd >= 0) {
      (void)WriteFrame(worker.fd, FrameType::kShutdown, empty, nullptr);
      ::close(worker.fd);
      worker.fd = -1;
    }
  }
  size_t live = 0;
  for (const WorkerConn& worker : workers_) {
    if (worker.pid > 0) live++;
  }
  for (int i = 0; i < 200 && live > 0; i++) {  // up to ~2s total
    for (WorkerConn& worker : workers_) {
      if (worker.pid <= 0) continue;
      pid_t r = ::waitpid(worker.pid, nullptr, WNOHANG);
      if (r > 0 || (r < 0 && errno == ECHILD)) {
        worker.pid = -1;
        live--;
      }
    }
    if (live == 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (WorkerConn& worker : workers_) {
    if (worker.pid <= 0) continue;
    ::kill(worker.pid, SIGKILL);
    ::waitpid(worker.pid, nullptr, 0);
    worker.pid = -1;
  }
  for (WorkerConn& worker : workers_) {
    if (!worker.socket_path.empty()) ::unlink(worker.socket_path.c_str());
  }
}

size_t Cluster::alive_workers() const {
  size_t n = 0;
  for (const WorkerConn& worker : workers_) {
    if (worker.alive) n++;
  }
  return n;
}

bool Cluster::RespawnWorker(size_t w, const exec::DistRetryPolicy& policy) {
  WorkerConn& worker = workers_[w];
  while (worker.respawns < policy.max_worker_respawns) {
    uint32_t backoff = policy.respawn_backoff_ms;
    for (uint32_t i = 0;
         i < worker.respawns && backoff < policy.respawn_backoff_cap_ms; i++) {
      backoff = std::min(backoff * 2, policy.respawn_backoff_cap_ms);
    }
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
    worker.respawns++;
    Status st = SpawnWorker(w, /*respawn=*/true);
    if (st.ok()) st = ConnectWorker(&worker);
    if (st.ok()) st = HandshakeWorker(w, worker.shards);
    if (st.ok()) {
      worker.alive = true;
      worker.last_activity = std::chrono::steady_clock::now();
      return true;
    }
    // Failed respawns are reaped here — a half-started child never outlives
    // the attempt that created it.
    DestroyWorkerProcess(&worker);
  }
  return false;
}

void Cluster::RecoverWorker(size_t w, const std::string& reason,
                            const exec::DistRetryPolicy& policy, QueryState* q,
                            exec::ExchangeStats* stats) {
  JSONTILES_TRACE_SPAN("dist.worker_recover");
  const auto t0 = std::chrono::steady_clock::now();
  WorkerConn& worker = workers_[w];
  DestroyWorkerProcess(&worker);

  // Requeue: every fragment in flight on this worker goes back to Pending
  // (the next dispatch bumps its epoch) and its staged results are dropped —
  // nothing of a superseded dispatch ever reaches the merge.
  for (Fragment& frag : q->fragments) {
    if (frag.phase != Fragment::Phase::kDispatched || frag.worker != w) {
      continue;
    }
    frag.staged_rows.clear();
    frag.staged_aggs.clear();
    q->dispatched--;
    q->outstanding[w]--;
    q->load[w] -= manifest_.num_rows[frag.shard];
    if (frag.attempts >= 1 + policy.max_fragment_retries) {
      frag.phase = Fragment::Phase::kDone;  // abandoned: budget exhausted
      if (q->fatal.ok()) {
        q->fatal = Status::Internal(
            "fragment " + std::to_string(frag.shard) + " failed " +
            std::to_string(frag.attempts) + " dispatch(es) (" + reason +
            " on " + WorkerName(w) + "): retry budget exhausted");
      }
    } else {
      frag.phase = Fragment::Phase::kPending;
      frag.worker = SIZE_MAX;
      q->pending++;
    }
  }

  if (RespawnWorker(w, policy)) {
    workers_respawned_++;
    stats->workers_respawned++;
    stats->workers[w].respawns++;
  } else {
    // Respawn budget exhausted: the slot is permanently dead. Migrate the
    // shards it owned to the survivors (LPT by manifest rows over what each
    // already owns); they are opened lazily at the next dispatch.
    std::vector<uint64_t> owned(workers_.size(), 0);
    bool any_alive = false;
    for (size_t i = 0; i < workers_.size(); i++) {
      if (workers_[i].alive) any_alive = true;
    }
    for (size_t s = 0; s < shard_owner_.size(); s++) {
      if (workers_[shard_owner_[s]].alive) {
        owned[shard_owner_[s]] += manifest_.num_rows[s];
      }
    }
    if (!any_alive) {
      no_workers_left_ = true;
      if (q->fatal.ok()) {
        q->fatal = Status::Internal("no usable workers left (" + reason +
                                    " on " + WorkerName(w) +
                                    ", respawn budget exhausted)");
      }
    } else {
      std::vector<size_t> orphans;
      for (size_t s = 0; s < shard_owner_.size(); s++) {
        if (!workers_[shard_owner_[s]].alive) orphans.push_back(s);
      }
      std::sort(orphans.begin(), orphans.end(), [&](size_t a, size_t b) {
        if (manifest_.num_rows[a] != manifest_.num_rows[b]) {
          return manifest_.num_rows[a] > manifest_.num_rows[b];
        }
        return a < b;
      });
      for (size_t s : orphans) {
        size_t best = SIZE_MAX;
        for (size_t i = 0; i < workers_.size(); i++) {
          if (!workers_[i].alive) continue;
          if (best == SIZE_MAX || owned[i] < owned[best]) best = i;
        }
        shard_owner_[s] = best;
        owned[best] += manifest_.num_rows[s];
      }
    }
  }
  const uint64_t nanos = ElapsedNanos(t0);
  recovery_nanos_ += nanos;
  stats->recovery_nanos += nanos;
}

Status Cluster::EnsureShardOpen(size_t w, size_t shard,
                                exec::ExchangeStats* stats) {
  WorkerConn& worker = workers_[w];
  if (std::find(worker.shards.begin(), worker.shards.end(), shard) !=
      worker.shards.end()) {
    return Status::OK();
  }
  WorkerConn::OpenAttempt attempt;
  attempt.prev = worker.shards;
  attempt.sent = worker.shards;
  attempt.sent.push_back(shard);
  std::sort(attempt.sent.begin(), attempt.sent.end());

  OpenMsg open;
  open.manifest_path = manifest_path_;
  open.num_threads = options_.worker_threads;
  for (size_t s : attempt.sent) open.shards.push_back(s);
  std::vector<uint8_t> payload;
  EncodeOpen(open, &payload);
  JSONTILES_RETURN_NOT_OK(WriteFrame(worker.fd, FrameType::kOpen, payload,
                                     &stats->workers[w].bytes));
  stats->workers[w].frames++;
  // Optimistic: the kOpenOk (or a rolling-back kError) is matched against
  // pending_opens in the collect loop.
  worker.shards = attempt.sent;
  worker.pending_opens.push_back(std::move(attempt));
  worker.last_activity = std::chrono::steady_clock::now();
  return Status::OK();
}

size_t Cluster::ChooseWorker(const Fragment& frag, const QueryState& q) const {
  // Initial dispatch goes to the shard's owner (it has the shard open).
  // Re-dispatches — and orphaned initial dispatches — go LPT over the work
  // still in flight among the survivors.
  if (frag.attempts == 0) {
    const size_t owner = shard_owner_[frag.shard];
    if (workers_[owner].alive) return owner;
  }
  size_t best = SIZE_MAX;
  for (size_t w = 0; w < workers_.size(); w++) {
    if (!workers_[w].alive) continue;
    if (best == SIZE_MAX || q.load[w] < q.load[best]) best = w;
  }
  return best;
}

void Cluster::DispatchFragment(size_t frag_index, const exec::ScanSpec& spec,
                               bool is_agg,
                               const std::vector<exec::ExprPtr>& group_by,
                               const std::vector<exec::AggSpec>& aggs,
                               exec::QueryContext& ctx, QueryState* q,
                               exec::ExchangeStats* stats) {
  Fragment& frag = q->fragments[frag_index];
  const size_t w = ChooseWorker(frag, *q);
  if (w == SIZE_MAX) {
    frag.phase = Fragment::Phase::kDone;  // abandoned: nowhere to run
    q->pending--;
    if (q->fatal.ok()) {
      q->fatal = Status::Internal(
          "no usable workers left to run fragment " +
          std::to_string(frag.shard));
    }
    return;
  }
  Status st = EnsureShardOpen(w, frag.shard, stats);
  if (st.ok()) {
    frag.attempts++;
    frag.epoch = frag.attempts;
    frag.worker = w;
    frag.phase = Fragment::Phase::kDispatched;
    q->pending--;
    q->dispatched++;
    q->outstanding[w]++;
    q->load[w] += manifest_.num_rows[frag.shard];
    if (frag.attempts > 1) {
      fragments_retried_++;
      stats->fragments_retried++;
    }

    FragmentMsg msg;
    msg.fragment_id = static_cast<uint32_t>(frag.shard);
    msg.epoch = frag.epoch;
    msg.shard_index = static_cast<uint32_t>(frag.shard);
    msg.enable_tile_skipping = ctx.options().enable_tile_skipping;
    msg.accesses = spec.accesses;
    msg.filter = spec.filter;
    msg.null_rejecting_paths = spec.null_rejecting_paths;
    msg.range_predicates = spec.range_predicates;
    msg.group_by = group_by;
    msg.aggs = aggs;
    std::vector<uint8_t> payload;
    EncodeFragment(msg, &payload);
    st = WriteFrame(workers_[w].fd,
                    is_agg ? FrameType::kAggFragment : FrameType::kScanFragment,
                    payload, &stats->workers[w].bytes);
    if (st.ok()) {
      stats->workers[w].frames++;
      workers_[w].last_activity = std::chrono::steady_clock::now();
    }
  }
  if (!st.ok()) {
    // Transport fault talking to this worker. Recovery requeues whatever was
    // marked Dispatched on it (including this fragment, budget-checked); a
    // fragment that never got marked just stays Pending for the next pass.
    RecoverWorker(w, "sending fragment failed: " + st.message(),
                  ctx.options().dist_retry, q, stats);
  }
}

Status Cluster::RunFragments(const exec::ScanSpec& spec,
                             const std::vector<exec::ExprPtr>& group_by,
                             const std::vector<exec::AggSpec>& aggs,
                             exec::QueryContext& ctx,
                             std::vector<exec::RowSet>* row_buckets,
                             exec::GroupTable* agg_merge,
                             exec::ExchangeStats* stats) {
  const std::vector<size_t> fragment_shards =
      exec::SurvivingShards(spec, ctx.options().enable_tile_skipping);
  stats->shards_scanned += fragment_shards.size();
  stats->shards_pruned += local_->shard_count() - fragment_shards.size();
  if (no_workers_left_) {
    return Status::Internal(
        "no usable workers: every worker slot exhausted its respawn budget");
  }
  const bool is_agg = agg_merge != nullptr;
  const exec::DistRetryPolicy& policy = ctx.options().dist_retry;
  stats->workers.resize(workers_.size());

  QueryState q;
  q.outstanding.assign(workers_.size(), 0);
  q.load.assign(workers_.size(), 0);
  q.fragments.reserve(fragment_shards.size());
  for (size_t s : fragment_shards) {
    Fragment frag;
    frag.shard = s;
    q.by_id[static_cast<uint32_t>(s)] = q.fragments.size();
    q.fragments.push_back(std::move(frag));
  }
  q.pending = q.fragments.size();

  Arena* arena = ctx.arena(0);

  // Resolve a result frame to the fragment dispatch it answers; anything
  // else — wrong epoch, wrong worker, already-finished fragment — is a stale
  // frame from a superseded dispatch and must not touch the merge.
  auto live_fragment = [&](uint32_t id, uint32_t epoch,
                           size_t w) -> Fragment* {
    auto it = q.by_id.find(id);
    if (it == q.by_id.end()) return nullptr;
    Fragment& frag = q.fragments[it->second];
    if (frag.phase != Fragment::Phase::kDispatched || frag.worker != w ||
        frag.epoch != epoch) {
      return nullptr;
    }
    return &frag;
  };
  auto reject_stale = [&]() {
    frames_rejected_stale_++;
    stats->frames_rejected_stale++;
  };

  // Read + apply one frame from worker `w`. A transport or framing failure
  // kills and recovers the worker; result frames stage under their fragment
  // and commit only on FragmentDone.
  auto handle_frame = [&](size_t w) {
    WorkerConn& worker = workers_[w];
    exec::ExchangeWorkerStats& wstats = stats->workers[w];
    FrameType type;
    std::vector<uint8_t> payload;
    Status st = ReadFrame(worker.fd, options_.recv_timeout_ms,
                          options_.recv_timeout_ms, &type, &payload,
                          &wstats.bytes);
    if (!st.ok()) {
      RecoverWorker(w,
                    st.code() == StatusCode::kOutOfRange
                        ? std::string("worker exited unexpectedly")
                        : st.message(),
                    policy, &q, stats);
      return;
    }
    worker.last_activity = std::chrono::steady_clock::now();
    wstats.frames++;
    switch (type) {
      case FrameType::kRowBatch: {
        uint32_t id = 0, epoch = 0;
        exec::RowSet batch;
        const auto decode_start = std::chrono::steady_clock::now();
        st = DecodeRowBatch(payload, arena, &id, &epoch, &batch);
        stats->decode_nanos += ElapsedNanos(decode_start);
        if (!st.ok()) break;
        Fragment* frag = live_fragment(id, epoch, w);
        if (frag == nullptr || is_agg) {
          reject_stale();
          break;
        }
        wstats.batches++;
        frag->staged_rows.Append(std::move(batch));
        break;
      }
      case FrameType::kAggResult: {
        AggPartial partial;
        const auto decode_start = std::chrono::steady_clock::now();
        st = DecodeAggPartial(payload, group_by.size(), aggs, arena,
                              &partial);
        stats->decode_nanos += ElapsedNanos(decode_start);
        if (!st.ok()) break;
        Fragment* frag = live_fragment(partial.fragment_id, partial.epoch, w);
        if (frag == nullptr || !is_agg) {
          reject_stale();
          break;
        }
        wstats.batches++;
        frag->staged_aggs.push_back(std::move(partial));
        break;
      }
      case FrameType::kFragmentDone: {
        FragmentDoneMsg done;
        st = DecodeFragmentDone(payload, &done);
        if (!st.ok()) break;
        Fragment* frag = live_fragment(done.fragment_id, done.epoch, w);
        if (frag == nullptr) {
          reject_stale();
          break;
        }
        // Commit: the staged results become visible to the merge exactly
        // once, at the dispatch that completed.
        if (is_agg) {
          for (AggPartial& part : frag->staged_aggs) {
            agg_merge->MergeFrom(part.groups);
          }
        } else {
          (*row_buckets)[frag->shard].Append(std::move(frag->staged_rows));
        }
        frag->staged_rows.clear();
        frag->staged_aggs.clear();
        frag->phase = Fragment::Phase::kDone;
        q.dispatched--;
        q.outstanding[w]--;
        q.load[w] -= manifest_.num_rows[frag->shard];
        wstats.rows += done.rows_out;
        wstats.wall_nanos += done.wall_nanos;
        stats->tiles_scanned += done.tiles_scanned;
        stats->tiles_skipped += done.tiles_skipped;
        break;
      }
      case FrameType::kFragmentError: {
        // The worker ran the fragment and it failed deterministically:
        // retrying cannot help, so the query fails cleanly. The worker
        // itself is healthy and keeps serving.
        FragmentErrorMsg err;
        st = DecodeFragmentError(payload, &err);
        if (!st.ok()) break;
        Fragment* frag = live_fragment(err.fragment_id, err.epoch, w);
        if (frag == nullptr) {
          reject_stale();
          break;
        }
        frag->staged_rows.clear();
        frag->staged_aggs.clear();
        frag->phase = Fragment::Phase::kDone;
        q.dispatched--;
        q.outstanding[w]--;
        q.load[w] -= manifest_.num_rows[frag->shard];
        if (q.fatal.ok()) {
          q.fatal = Status(err.error.code(), WorkerName(w) + " fragment " +
                                                 std::to_string(err.fragment_id) +
                                                 ": " + err.error.message());
        }
        break;
      }
      case FrameType::kError: {
        // Worker-reported open/protocol failure (e.g. a migration kOpen it
        // could not satisfy). The worker kept its previous shard set, so
        // roll back the optimistic update and fail the query cleanly — the
        // connection stays frame-aligned and usable.
        Status reported = Status::OK();
        st = DecodeStatus(payload, &reported);
        if (!st.ok()) break;
        if (!worker.pending_opens.empty()) {
          worker.shards = worker.pending_opens.front().prev;
          worker.pending_opens.pop_front();
        }
        if (q.fatal.ok()) {
          q.fatal =
              Status(reported.code(), WorkerName(w) + ": " + reported.message());
        }
        break;
      }
      case FrameType::kOpenOk: {
        if (worker.pending_opens.empty()) {
          st = Status::ParseError("unexpected OpenOk frame");
          break;
        }
        WorkerConn::OpenAttempt attempt =
            std::move(worker.pending_opens.front());
        worker.pending_opens.pop_front();
        OpenOkMsg ok_msg;
        st = DecodeOpenOk(payload, &ok_msg);
        if (!st.ok()) break;
        Status vst = Status::OK();
        if (ok_msg.shard_rows.size() != attempt.sent.size()) {
          vst = Status::Internal(WorkerName(w) +
                                 ": OpenOk shard count mismatch");
        }
        for (size_t i = 0; vst.ok() && i < attempt.sent.size(); i++) {
          if (ok_msg.shard_rows[i] != manifest_.num_rows[attempt.sent[i]]) {
            vst = Status::Internal(
                WorkerName(w) + ": shard " + std::to_string(attempt.sent[i]) +
                " row count does not match the manifest");
          }
        }
        if (!vst.ok() && q.fatal.ok()) q.fatal = std::move(vst);
        break;
      }
      default:
        st = Status::ParseError("unexpected frame type on exchange");
        break;
    }
    if (!st.ok()) {
      // Payload decode failure: the stream may be out of sync with the
      // coordinator's view — transport-class fault, recover the worker.
      RecoverWorker(w, st.message(), policy, &q, stats);
    }
  };

  while (true) {
    // Dispatch every pending fragment. Each DispatchFragment call either
    // dispatches, records a fatal status, or consumes recovery budget — all
    // finite — so this drains.
    while (q.fatal.ok() && q.pending > 0) {
      for (size_t i = 0; i < q.fragments.size() && q.fatal.ok(); i++) {
        if (q.fragments[i].phase == Fragment::Phase::kPending) {
          DispatchFragment(i, spec, is_agg, group_by, aggs, ctx, &q, stats);
        }
      }
    }
    if (!q.fatal.ok()) {
      // The query already failed: abandon what never ran, but keep draining
      // the in-flight fragments so surviving connections stay frame-aligned
      // for the next query.
      for (Fragment& frag : q.fragments) {
        if (frag.phase == Fragment::Phase::kPending) {
          frag.phase = Fragment::Phase::kDone;
          q.pending--;
        }
      }
    }
    if (q.dispatched == 0) break;

    // Poll everyone with work in flight, bounded by the earliest per-worker
    // idle-liveness deadline (last activity + recv_timeout_ms).
    std::vector<struct pollfd> pfds;
    std::vector<size_t> pfd_worker;
    auto now = std::chrono::steady_clock::now();
    int timeout_ms = options_.recv_timeout_ms;
    for (size_t w = 0; w < workers_.size(); w++) {
      if (!workers_[w].alive) continue;
      if (q.outstanding[w] == 0 && workers_[w].pending_opens.empty()) continue;
      pfds.push_back({workers_[w].fd, POLLIN, 0});
      pfd_worker.push_back(w);
      const auto deadline = workers_[w].last_activity +
                            std::chrono::milliseconds(options_.recv_timeout_ms);
      const auto remain = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - now)
                              .count();
      timeout_ms = std::min<int>(
          timeout_ms, static_cast<int>(std::max<int64_t>(remain, 0)));
    }
    if (pfds.empty()) {
      // Cannot happen: every Dispatched fragment sits on an alive worker
      // (recovery requeues on death). Guard against a hang regardless.
      return Status::Internal("in-flight fragments with no pollable worker");
    }
    int pr = ::poll(pfds.data(), pfds.size(), std::max(timeout_ms, 1));
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    if (pr > 0) {
      for (size_t p = 0; p < pfds.size(); p++) {
        if (pfds[p].revents == 0) continue;
        const size_t w = pfd_worker[p];
        // A recovery earlier in this round may have replaced the fd.
        if (!workers_[w].alive || workers_[w].fd != pfds[p].fd) continue;
        handle_frame(w);
      }
    }
    // Idle-liveness: a worker with work in flight that has gone silent past
    // the deadline is hung (or dead without EOF) — kill and recover it so a
    // stuck worker cannot stall the query forever.
    now = std::chrono::steady_clock::now();
    for (size_t w = 0; w < workers_.size(); w++) {
      if (!workers_[w].alive) continue;
      if (q.outstanding[w] == 0 && workers_[w].pending_opens.empty()) continue;
      if (now - workers_[w].last_activity >=
          std::chrono::milliseconds(options_.recv_timeout_ms)) {
        RecoverWorker(w, "idle-liveness deadline exceeded (worker hung)",
                      policy, &q, stats);
      }
    }
  }
  return q.fatal;
}

Status Cluster::Scan(const exec::ScanSpec& spec, exec::QueryContext& ctx,
                     exec::RowSet* out, exec::ExchangeStats* stats) {
  std::vector<exec::RowSet> buckets(manifest_.shard_count());
  JSONTILES_RETURN_NOT_OK(RunFragments(spec, /*group_by=*/{}, /*aggs=*/{},
                                       ctx, &buckets, /*agg_merge=*/nullptr,
                                       stats));
  // Ascending shard order = the local sharded scan's part order, so the
  // concatenation is bit-identical to local execution.
  out->AppendAll(std::move(buckets));
  return Status::OK();
}

Status Cluster::Aggregate(const exec::ScanSpec& spec,
                          const std::vector<exec::ExprPtr>& group_by,
                          const std::vector<exec::AggSpec>& aggs,
                          exec::QueryContext& ctx, exec::RowSet* out,
                          exec::ExchangeStats* stats) {
  exec::GroupTable merged(group_by.size(), aggs);
  JSONTILES_RETURN_NOT_OK(RunFragments(spec, group_by, aggs, ctx,
                                       /*row_buckets=*/nullptr, &merged,
                                       stats));
  if (group_by.empty() && merged.empty()) {
    out->push_back(exec::EmptyGlobalAggRow(aggs));
    return Status::OK();
  }
  merged.Finalize(out);
  return Status::OK();
}

}  // namespace jsontiles::dist
