// Failure injection for the distributed runtime (DESIGN.md §13, §14): every
// remote failure mode must surface as recovery or as a clean Status on the
// coordinator — never a hang, never a crash, never a wrong answer.
// Coordinator-side failpoints (dist.connect, dist.frame_write) are enabled
// in-process; worker-side ones (dist.worker_exec, dist.worker_crash,
// dist.worker_hang, dist.worker_stale_frame, dist.worker_ignore_shutdown)
// are forwarded on the workerd command line because failpoints are
// per-process.
//
// The failure model under test (the §14 decision matrix): a transport fault
// — worker death, EPIPE, a hung worker past the idle-liveness deadline —
// triggers recovery (kill, respawn with backoff, re-dispatch by epoch), and
// the query still returns bit-identical results; a worker that *reports* a
// deterministic failure (kFragmentError) fails only that query; exhausted
// retry budgets fail the query cleanly without poisoning later ones; and a
// cluster only refuses queries once every worker slot is permanently dead.

#include "util/failpoint.h"

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/cluster.h"
#include "storage/shard.h"
#include "util/logging.h"
#include "workload/tpch.h"
#include "workload/tpch_queries.h"

#ifndef JSONTILES_WORKERD_PATH
#error "dist tests require the JSONTILES_WORKERD_PATH compile definition"
#endif

namespace jsontiles::dist {
namespace {

using exec::ExecOptions;
using exec::QueryContext;
using exec::RowSet;

std::vector<std::string> Canon(const RowSet& rows) {
  std::vector<std::string> lines;
  for (const auto& row : rows) {
    std::string line;
    for (const auto& v : row) line += (v.is_null() ? "∅" : v.ToString()) + "|";
    lines.push_back(line);
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

class DistFailpointTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::TpchOptions options;
    options.scale_factor = 0.002;
    docs_ = new std::vector<std::string>(
        workload::GenerateTpch(options).combined);
    storage::LoadOptions load_options;
    load_options.num_threads = 2;
    storage::ShardOptions shard_options;
    shard_options.shard_count = 3;
    auto loaded = storage::ShardedRelation::Load(
                      *docs_, "tpch", storage::StorageMode::kTiles, {},
                      load_options, shard_options)
                      .MoveValueOrDie();
    // Per-process directory: ctest runs each TEST_F as its own process in
    // parallel, and every one of them saves this workload.
    dir_ = new std::string(::testing::TempDir() + "fp_" +
                           std::to_string(::getpid()));
    JSONTILES_CHECK(::mkdir(dir_->c_str(), 0755) == 0);
    JSONTILES_CHECK(storage::SaveSharded(*loaded, *dir_).ok());
    manifest_path_ =
        new std::string(storage::ShardManifestPath(*dir_, "tpch"));
    sharded_ = storage::OpenSharded(*manifest_path_).MoveValueOrDie().release();

    // Local (undistributed) Q6: the identity baseline for recovery tests.
    QueryContext ctx;
    q6_baseline_ = new std::vector<std::string>(
        Canon(workload::RunTpchQuery(6, *sharded_, ctx)));
    JSONTILES_CHECK(ctx.ConsumeStatus().ok());
  }

  static void TearDownTestSuite() {
    delete q6_baseline_;
    delete sharded_;
    for (size_t s = 0; s < 3; s++) {
      std::remove(
          (*dir_ + "/tpch.shard-" + std::to_string(s) + ".jtrl").c_str());
    }
    std::remove(manifest_path_->c_str());
    ::rmdir(dir_->c_str());
    delete manifest_path_;
    delete dir_;
    delete docs_;
  }

  void TearDown() override { failpoint::DisableAll(); }

  static ClusterOptions Options() {
    ClusterOptions options;
    options.num_workers = 2;
    options.workerd_path = JSONTILES_WORKERD_PATH;
    return options;
  }

  /// Fast recovery budgets so tests spend milliseconds, not seconds, in
  /// backoff.
  static ExecOptions FastRetry() {
    ExecOptions options;
    options.dist_retry.respawn_backoff_ms = 1;
    options.dist_retry.respawn_backoff_cap_ms = 10;
    return options;
  }

  /// Run TPC-H Q6 (single-table filtered aggregate — exercises the agg
  /// push-down) and return the context's failure status (OK on success).
  /// On success `rows_out` (optional) receives the canonicalized result.
  static Status RunQ6(Cluster* cluster, ExecOptions exec_options = {},
                      std::vector<std::string>* rows_out = nullptr) {
    QueryContext ctx(exec_options);
    ctx.dist = cluster;
    RowSet rows = workload::RunTpchQuery(6, *sharded_, ctx);
    Status st = ctx.ConsumeStatus();
    if (st.ok() && rows_out != nullptr) *rows_out = Canon(rows);
    return st;
  }

  /// Assert this process has no children at all — every worker ever spawned
  /// has been reaped (no zombies) and none is still running.
  static void ExpectNoChildren() {
    int wstatus = 0;
    errno = 0;
    pid_t r = ::waitpid(-1, &wstatus, WNOHANG);
    EXPECT_EQ(r, -1);
    EXPECT_EQ(errno, ECHILD);
  }

  static std::vector<std::string>* docs_;
  static std::string* dir_;
  static std::string* manifest_path_;
  static storage::ShardedRelation* sharded_;
  static std::vector<std::string>* q6_baseline_;
};

std::vector<std::string>* DistFailpointTest::docs_ = nullptr;
std::string* DistFailpointTest::dir_ = nullptr;
std::string* DistFailpointTest::manifest_path_ = nullptr;
storage::ShardedRelation* DistFailpointTest::sharded_ = nullptr;
std::vector<std::string>* DistFailpointTest::q6_baseline_ = nullptr;

// Every connect attempt fails: Start must give up at connect_timeout_ms with
// a clean Status (and reap the spawned workers — no orphans, no hang).
TEST_F(DistFailpointTest, ConnectTimeoutFailsCleanly) {
  failpoint::Enable("dist.connect", failpoint::Spec::Always());
  ClusterOptions options = Options();
  options.connect_timeout_ms = 300;
  auto cluster = Cluster::Start(*manifest_path_, sharded_, options);
  ASSERT_FALSE(cluster.ok());
  EXPECT_NE(cluster.status().ToString().find("connect"), std::string::npos)
      << cluster.status().ToString();
  // A failed Start leaves no children behind either.
  ExpectNoChildren();
}

// A frame write failure during the Start handshake (kOpen) surfaces cleanly.
TEST_F(DistFailpointTest, HandshakeWriteFailureFailsCleanly) {
  failpoint::Enable("dist.frame_write", failpoint::Spec::Always());
  auto cluster = Cluster::Start(*manifest_path_, sharded_, Options());
  ASSERT_FALSE(cluster.ok());
}

// The tentpole: a worker that crashes mid-query is respawned and its
// fragments re-dispatched — the query SUCCEEDS, bit-identical to local
// execution, with the recovery observable in the metrics.
TEST_F(DistFailpointTest, WorkerCrashRecovers) {
  ClusterOptions options = Options();
  // Every (initial) worker dies at its first fragment; respawned workers
  // are healthy.
  options.worker_failpoints = {"dist.worker_crash=nth:1"};
  auto cluster =
      Cluster::Start(*manifest_path_, sharded_, options).MoveValueOrDie();

  std::vector<std::string> rows;
  Status st = RunQ6(cluster.get(), FastRetry(), &rows);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(rows, *q6_baseline_);
  EXPECT_GE(cluster->fragments_retried(), 1u);
  EXPECT_GE(cluster->workers_respawned(), 1u);
  EXPECT_GT(cluster->recovery_nanos(), 0u);
  EXPECT_EQ(cluster->alive_workers(), 2u);

  // The respawned workers are healthy: the next query runs clean.
  EXPECT_TRUE(RunQ6(cluster.get()).ok());
}

// A crash at a result-frame boundary: the dead worker's partial output is
// staged, never committed, and the re-dispatch result is bit-identical.
TEST_F(DistFailpointTest, CrashAtFrameBoundaryDiscardsPartialOutput) {
  ClusterOptions options = Options();
  options.worker_failpoints = {"dist.worker_crash_frame=nth:2"};
  auto cluster =
      Cluster::Start(*manifest_path_, sharded_, options).MoveValueOrDie();

  std::vector<std::string> rows;
  Status st = RunQ6(cluster.get(), FastRetry(), &rows);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(rows, *q6_baseline_);
  EXPECT_GE(cluster->fragments_retried(), 1u);
  EXPECT_GE(cluster->workers_respawned(), 1u);
}

// A transient coordinator-side write failure (EPIPE-class) is a transport
// fault: the worker is recycled and the query still succeeds.
TEST_F(DistFailpointTest, TransientWriteFailureRecovers) {
  auto cluster = Cluster::Start(*manifest_path_, sharded_, Options())
                     .MoveValueOrDie();
  ASSERT_TRUE(RunQ6(cluster.get()).ok());

  failpoint::Enable("dist.frame_write", failpoint::Spec::Nth(1));
  std::vector<std::string> rows;
  Status st = RunQ6(cluster.get(), FastRetry(), &rows);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(rows, *q6_baseline_);
  EXPECT_GE(cluster->fragments_retried(), 1u);
  EXPECT_GE(cluster->workers_respawned(), 1u);
}

// A worker that hangs mid-fragment trips the idle-liveness deadline: it is
// killed and recovered like a death — a stuck worker cannot stall a query
// forever.
TEST_F(DistFailpointTest, HungWorkerRecovered) {
  ClusterOptions options = Options();
  options.worker_failpoints = {"dist.worker_hang=nth:1"};
  options.recv_timeout_ms = 500;
  auto cluster =
      Cluster::Start(*manifest_path_, sharded_, options).MoveValueOrDie();

  std::vector<std::string> rows;
  Status st = RunQ6(cluster.get(), FastRetry(), &rows);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(rows, *q6_baseline_);
  EXPECT_GE(cluster->workers_respawned(), 1u);
}

// A worker that emits result frames tagged with a superseded epoch: the
// coordinator rejects them (dist.frames_rejected_stale) and the results
// stay bit-identical.
TEST_F(DistFailpointTest, StaleEpochFramesRejected) {
  ClusterOptions options = Options();
  options.worker_failpoints = {"dist.worker_stale_frame=always"};
  auto cluster =
      Cluster::Start(*manifest_path_, sharded_, options).MoveValueOrDie();

  std::vector<std::string> rows;
  Status st = RunQ6(cluster.get(), {}, &rows);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(rows, *q6_baseline_);
  EXPECT_GE(cluster->frames_rejected_stale(), 1u);
  EXPECT_EQ(cluster->fragments_retried(), 0u);
}

// Retry-budget exhaustion fails the query cleanly — and does NOT poison the
// cluster: once the doomed initial workers are replaced, later queries
// succeed.
TEST_F(DistFailpointTest, RetryExhaustionFailsCleanlyWithoutPoisoning) {
  ClusterOptions options = Options();
  options.worker_failpoints = {"dist.worker_crash=always"};
  auto cluster =
      Cluster::Start(*manifest_path_, sharded_, options).MoveValueOrDie();

  // Zero fragment retries: the first crash exhausts the budget.
  ExecOptions no_retries = FastRetry();
  no_retries.dist_retry.max_fragment_retries = 0;
  Status st = RunQ6(cluster.get(), no_retries);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("retry budget exhausted"), std::string::npos)
      << st.ToString();

  // The failure replaced the crashed worker with a healthy respawn, so the
  // cluster is NOT poisoned: the same query now runs to completion (any
  // still-armed worker crashes once and is recovered under the default
  // budget).
  std::vector<std::string> rows;
  Status again = RunQ6(cluster.get(), FastRetry(), &rows);
  ASSERT_TRUE(again.ok()) << again.ToString();
  EXPECT_EQ(rows, *q6_baseline_);
}

// When workers keep dying — initial AND respawned — budgets run out, the
// query fails cleanly, and once every slot is permanently dead later
// queries fail fast with a clean capacity error (no hang, no crash).
TEST_F(DistFailpointTest, PersistentCrashesExhaustRespawnBudget) {
  ClusterOptions options = Options();
  options.worker_failpoints = {"dist.worker_crash=always"};
  options.respawn_failpoints = {"dist.worker_crash=always"};
  auto cluster =
      Cluster::Start(*manifest_path_, sharded_, options).MoveValueOrDie();

  ExecOptions tight = FastRetry();
  tight.dist_retry.max_fragment_retries = 1;
  tight.dist_retry.max_worker_respawns = 1;

  bool saw_fast_fail = false;
  for (int i = 0; i < 6; i++) {
    Status st = RunQ6(cluster.get(), tight);
    ASSERT_FALSE(st.ok()) << "query " << i << " unexpectedly succeeded";
    if (st.ToString().find("no usable workers") != std::string::npos) {
      saw_fast_fail = true;
      break;
    }
  }
  EXPECT_TRUE(saw_fast_fail);
  EXPECT_EQ(cluster->alive_workers(), 0u);
  // Teardown of the fully-dead cluster reaps everything.
  cluster.reset();
  ExpectNoChildren();
}

// A persistent coordinator-side write failure burns through every respawn
// handshake too: capacity is genuinely gone and later queries fail fast —
// but with a clean capacity error, not blanket poisoning.
TEST_F(DistFailpointTest, PersistentWriteFailureExhaustsWorkers) {
  auto cluster = Cluster::Start(*manifest_path_, sharded_, Options())
                     .MoveValueOrDie();
  ASSERT_TRUE(RunQ6(cluster.get()).ok());

  failpoint::Enable("dist.frame_write", failpoint::Spec::Always());
  ExecOptions tight = FastRetry();
  tight.dist_retry.max_worker_respawns = 1;
  Status st = RunQ6(cluster.get(), tight);
  EXPECT_FALSE(st.ok());

  failpoint::DisableAll();
  Status again = RunQ6(cluster.get());
  ASSERT_FALSE(again.ok());
  EXPECT_NE(again.ToString().find("no usable workers"), std::string::npos)
      << again.ToString();
}

// A worker that reports a deterministic fragment failure (kFragmentError)
// fails only that query: no retry (re-running a deterministic failure is
// futile), the stream stays aligned, and the cluster remains usable.
TEST_F(DistFailpointTest, WorkerExecErrorKeepsClusterUsable) {
  ClusterOptions options = Options();
  options.worker_failpoints = {"dist.worker_exec=nth:1"};
  auto cluster =
      Cluster::Start(*manifest_path_, sharded_, options).MoveValueOrDie();

  Status st = RunQ6(cluster.get());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("dist.worker_exec"), std::string::npos)
      << st.ToString();
  // Deterministic failure: reported, not retried, workers not recycled.
  EXPECT_EQ(cluster->fragments_retried(), 0u);
  EXPECT_EQ(cluster->workers_respawned(), 0u);

  // nth:1 fired once per worker; the cluster must still answer.
  EXPECT_TRUE(RunQ6(cluster.get()).ok());
}

// Workers that ignore the Shutdown frame are SIGKILLed and reaped by the
// destructor: a hostile worker cannot turn teardown into a hang or leave
// zombies behind.
TEST_F(DistFailpointTest, NoZombiesAfterTeardown) {
  {
    ClusterOptions options = Options();
    options.worker_failpoints = {"dist.worker_ignore_shutdown=always"};
    auto cluster =
        Cluster::Start(*manifest_path_, sharded_, options).MoveValueOrDie();
    ASSERT_TRUE(RunQ6(cluster.get()).ok());
  }
  ExpectNoChildren();
}

// Worker failpoint arguments are validated at spawn time on the worker side;
// a malformed spec makes workerd exit(2) and Start fail cleanly.
TEST_F(DistFailpointTest, MalformedWorkerFailpointRejected) {
  ClusterOptions options = Options();
  options.connect_timeout_ms = 2000;
  options.worker_failpoints = {"dist.worker_exec=sometimes"};
  auto cluster = Cluster::Start(*manifest_path_, sharded_, options);
  EXPECT_FALSE(cluster.ok());
}

}  // namespace
}  // namespace jsontiles::dist
