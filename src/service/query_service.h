// Multi-tenant query service: admission control, resource groups, runaway
// detection, and a shared spill-disk governor.
//
// Everything below the service executes one query at a time; serving many
// tenants concurrently over shared relations needs the Greenplum-style
// resource-group layer: each query is admitted into a named group that owns
// (a) concurrency slots with a bounded FIFO wait queue + timeout, and (b) a
// memory quota carved as a child of the service-wide MemoryBudget. The
// admitted query's own budget becomes a grandchild of the global budget
// (query -> group -> service), so when a group's tenants collectively reach
// the quota, operator charges are refused at the group level and the engine
// spills to disk — concurrency degrades to disk bandwidth instead of OOM. A
// monitor thread cancels runaway queries (wall-clock deadline, group memory
// watermark) through the existing QueryContext::Cancel plumbing, and one
// DiskBudget caps the aggregate temp-disk of all concurrently spilling
// queries.
//
// Thread model: queries execute on their *caller's* thread (closed-loop
// clients block in Submit, exactly like a backend process waiting on
// Greenplum's resgroup slot); the service only owns the monitor thread. One
// service-wide mutex guards the group map and every group's admission state —
// admission is cold-path (two lock acquisitions per query), the per-query
// hot path never touches it.
//
// Failpoints: "service.admit" (slot grant), "service.quota_charge" (carving
// the per-query budget / admission reserve), "service.spill_reserve" (inside
// DiskBudget::TryReserve). Each fault fails only the affected query with a
// clean Status; the group and the service stay usable.

#ifndef JSONTILES_SERVICE_QUERY_SERVICE_H_
#define JSONTILES_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exec/scan.h"
#include "util/resource_governor.h"
#include "util/status.h"

namespace jsontiles::service {

struct ResourceGroupConfig {
  /// Queries of this group that may run concurrently.
  size_t concurrency = 4;
  /// Admission requests allowed to wait for a slot; one more is rejected
  /// immediately with ResourceExhausted. 0 = never queue (reject when full).
  size_t max_queue = 16;
  /// How long an admission request may wait in the queue before it gives up
  /// with ResourceExhausted.
  uint64_t queue_timeout_ms = 10000;
  /// Memory quota of the group, carved as a child of the service budget.
  /// 0 = unlimited (the service-wide limit still applies).
  size_t mem_quota_bytes = 0;
  /// Memory charged against the quota for the lifetime of each admitted
  /// query — a guaranteed floor in the spirit of Greenplum's per-query
  /// memory slice. A refused reserve rejects the admission cleanly.
  /// 0 = admit without reserving.
  size_t admission_reserve_bytes = 0;
  /// Cancel a query running longer than this (0 = no wall-clock policy).
  uint64_t runaway_wall_ms = 0;
  /// When group memory use exceeds this fraction of the quota, cancel the
  /// group's largest consumer (0 = no memory watermark policy). Requires
  /// mem_quota_bytes > 0.
  double runaway_mem_fraction = 0.0;
};

struct ServiceConfig {
  /// Service-wide memory budget (root of every group quota). 0 = unlimited.
  size_t total_mem_bytes = 0;
  /// Aggregate temp-disk cap across all concurrently spilling queries.
  /// 0 = unlimited.
  uint64_t spill_disk_bytes = 0;
  /// Spill directory handed to admitted queries that did not set their own.
  std::string spill_dir;
};

/// Point-in-time view of one group (tests, SHOW RESOURCE GROUPS).
struct GroupSnapshot {
  size_t running = 0;
  size_t queued = 0;
  size_t concurrency = 0;
  size_t mem_quota_bytes = 0;
  size_t mem_used_bytes = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;   // queue full + reserve refused
  uint64_t timed_out = 0;  // gave up waiting
  uint64_t cancelled = 0;  // runaway / CancelGroup / DropGroup
  uint64_t clamped = 0;    // explicit per-query mem limit over-asked the quota
  uint64_t defaulted = 0;  // unlimited request defaulted to quota headroom
};

class QueryService;

/// One admitted query: a movable RAII slot in its resource group. Obtain via
/// QueryService::Admit, build a QueryContext from options(), Attach it so the
/// runaway monitor can see the query, and Release when execution finishes
/// (the destructor also releases). The attached context must stay alive
/// until Release/destruction; result rows referencing its arenas may outlive
/// the admission, but no further queries may execute on the context after
/// release — its budget parent points into the group, which may be dropped.
class Admission {
 public:
  Admission() = default;
  ~Admission() { Release(); }

  Admission(Admission&& other) noexcept { *this = std::move(other); }
  Admission& operator=(Admission&& other) noexcept;
  Admission(const Admission&) = delete;
  Admission& operator=(const Admission&) = delete;

  bool valid() const { return service_ != nullptr; }

  /// Execution options for the admitted query: the caller's options with the
  /// memory limit clamped to the group's remaining quota, the budget parent
  /// pointed at the group quota, and the shared spill governor attached.
  const exec::ExecOptions& options() const { return options_; }

  /// Queue wait endured by this admission.
  uint64_t queue_wait_nanos() const { return queue_wait_nanos_; }
  /// True when the caller's mem_limit_bytes exceeded the group's remaining
  /// quota and was clamped down (satellite: no over-admission).
  bool clamped() const { return clamped_; }

  /// Register the query's context for runaway detection and cancellation,
  /// and stamp its resource_group / queue_wait fields (EXPLAIN ANALYZE
  /// footer). Call at most once, before executing.
  void Attach(exec::QueryContext* ctx);

  /// Detach the context, return the admission reserve, free the slot and
  /// hand it to the next waiter. Idempotent.
  void Release();

 private:
  friend class QueryService;

  QueryService* service_ = nullptr;
  struct ActiveQuery* query_ = nullptr;  // owned by the service until Release
  exec::ExecOptions options_;
  uint64_t queue_wait_nanos_ = 0;
  bool clamped_ = false;
};

class QueryService {
 public:
  explicit QueryService(ServiceConfig config = {});
  /// Drops every group (cancelling running queries, aborting waiters) and
  /// stops the monitor. Blocks until all admitted queries released.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Register a group. InvalidArgument when the name already exists.
  Status CreateGroup(const std::string& name, ResourceGroupConfig config);

  /// Tear a group down: waiters abort with a clean Status, running queries
  /// are cancelled, and the call blocks until the group drains, then removes
  /// it. NotFound when absent or already being dropped. Queries admitted
  /// before the drop still return their (cancelled) Status normally.
  Status DropGroup(const std::string& name);

  bool HasGroup(const std::string& name) const;
  std::vector<std::string> GroupNames() const;
  Result<GroupSnapshot> Snapshot(const std::string& name) const;

  /// Admit one query into `group`: waits for a concurrency slot (bounded
  /// queue + timeout), clamps options.mem_limit_bytes to the group's
  /// remaining quota, points the budget parent at the quota and attaches the
  /// spill governor. Errors are clean per-query statuses: NotFound (unknown
  /// or dropping group), ResourceExhausted (queue full / timeout / reserve
  /// refused), Internal (failpoints).
  Result<Admission> Admit(const std::string& group, exec::ExecOptions options);

  /// Convenience closed-loop path: admit, build a QueryContext on the
  /// caller's stack, run `fn`, surface any cancellation Status, release.
  /// Row sets referencing the context die with it — canonicalize or copy
  /// results inside `fn`.
  using QueryFn = std::function<Status(exec::QueryContext&)>;
  Status Submit(const std::string& group, exec::ExecOptions options,
                const QueryFn& fn);

  /// Cancel every running query of `group` with `reason` (chaos testing,
  /// administrative kill). Queued admissions are not aborted — they will run
  /// later. No-op on unknown group.
  void CancelGroup(const std::string& group, Status reason);

  /// Service-wide memory budget (parent of every group quota).
  MemoryBudget* global_budget() { return &global_budget_; }
  /// Shared temp-disk governor attached to every admitted query.
  DiskBudget* disk_budget() { return &disk_budget_; }

  const ServiceConfig& config() const { return config_; }

 private:
  struct Group;

  friend class Admission;

  /// Admission::Release body. Safe against concurrent monitor scans: the
  /// query is unlinked from the group under the service mutex before the
  /// caller may destroy its context.
  void ReleaseQuery(Admission* admission);

  void MonitorLoop();
  /// Drop-group body; `lock` holds mu_.
  Status DropGroupLocked(const std::string& name,
                         std::unique_lock<std::mutex>& lock);

  ServiceConfig config_;
  MemoryBudget global_budget_;
  DiskBudget disk_budget_;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Group>> groups_;
  bool stopping_ = false;

  std::condition_variable monitor_cv_;
  std::thread monitor_;
};

}  // namespace jsontiles::service

#endif  // JSONTILES_SERVICE_QUERY_SERVICE_H_
