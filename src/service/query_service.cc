#include "service/query_service.h"

#include <algorithm>
#include <deque>

#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace jsontiles::service {

namespace {

using Clock = std::chrono::steady_clock;

// Runaway-monitor tick. The monitor only scans registered queries, so a short
// period is cheap.
constexpr std::chrono::milliseconds kMonitorPeriod{5};

uint64_t NanosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
          .count());
}

}  // namespace

/// One admitted, possibly-running query. Owned by the service (linked into
/// its group) from Admit until Release; the Admission handle only points at
/// it. All fields are guarded by the service mutex except `ctx`'s own
/// thread-safe Cancel.
struct ActiveQuery {
  exec::QueryContext* ctx = nullptr;  // null until Attach
  std::string group;                  // group name (group may die before us)
  size_t reserve_bytes = 0;           // admission reserve held on the quota
  Clock::time_point started;          // slot grant time (runaway wall clock)
  bool service_cancelled = false;     // monitor / CancelGroup / DropGroup
};

/// Admission request waiting for a concurrency slot. Lives on the waiting
/// thread's stack; the group's queue holds raw pointers. Guarded by the
/// service mutex.
struct QueryService::Group {
  struct Waiter {
    bool granted = false;
    bool aborted = false;  // group dropped / service stopping
  };

  explicit Group(std::string name_in, ResourceGroupConfig config_in,
                 MemoryBudget* parent)
      : name(std::move(name_in)),
        config(config_in),
        quota(config_in.mem_quota_bytes, parent) {}

  std::string name;
  ResourceGroupConfig config;
  MemoryBudget quota;  // child of the service budget; queries parent here

  size_t running = 0;  // granted slots (running <= config.concurrency)
  std::deque<Waiter*> queue;
  /// Threads inside Admit's queue-wait block. A granted or aborted waiter
  /// that has been woken but not yet reacquired mu_ is in neither `queue`
  /// nor `active`, yet still dereferences this group once it resumes —
  /// drains must not erase the group until this reaches zero.
  size_t waiting = 0;
  std::vector<ActiveQuery*> active;  // admitted queries (subset attached)
  bool dying = false;                // DropGroup in progress: admit nothing

  /// Waiters (slot grants, aborts) and drainers (DropGroup, ~QueryService)
  /// both sleep here.
  std::condition_variable cv;

  // Lifetime totals, mirrored into obs as "service.<name>.*".
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t timed_out = 0;
  uint64_t cancelled = 0;
  uint64_t clamped = 0;
  uint64_t defaulted = 0;

  void PublishGauges() const {
    obs::GroupGauge(name, "running")->Set(static_cast<double>(running));
    obs::GroupGauge(name, "queued")->Set(static_cast<double>(queue.size()));
    obs::GroupGauge(name, "mem_used_bytes")
        ->Set(static_cast<double>(quota.used()));
  }
};

Admission& Admission::operator=(Admission&& other) noexcept {
  if (this != &other) {
    Release();
    service_ = std::exchange(other.service_, nullptr);
    query_ = std::exchange(other.query_, nullptr);
    options_ = std::move(other.options_);
    queue_wait_nanos_ = other.queue_wait_nanos_;
    clamped_ = other.clamped_;
  }
  return *this;
}

void Admission::Attach(exec::QueryContext* ctx) {
  JSONTILES_DCHECK(valid());
  ctx->resource_group = query_->group;
  ctx->queue_wait_nanos = queue_wait_nanos_;
  std::lock_guard<std::mutex> lock(service_->mu_);
  JSONTILES_DCHECK(query_->ctx == nullptr);
  query_->ctx = ctx;
}

void Admission::Release() {
  if (service_ == nullptr) return;
  service_->ReleaseQuery(this);
  service_ = nullptr;
  query_ = nullptr;
}

QueryService::QueryService(ServiceConfig config)
    : config_(std::move(config)), global_budget_(config_.total_mem_bytes),
      disk_budget_(config_.spill_disk_bytes) {
  monitor_ = std::thread([this] { MonitorLoop(); });
}

QueryService::~QueryService() {
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  for (auto& [name, group] : groups_) {
    group->dying = true;
    for (Group::Waiter* w : group->queue) w->aborted = true;
    group->queue.clear();
    for (ActiveQuery* q : group->active) {
      if (q->ctx != nullptr && !q->service_cancelled) {
        q->service_cancelled = true;
        group->cancelled++;
        obs::GroupCounter(name, "cancelled")->Increment();
        q->ctx->Cancel(Status::Cancelled("query service shutting down"));
      }
    }
    group->cv.notify_all();
  }
  for (auto& [name, group] : groups_) {
    // Same drain predicate as DropGroupLocked: granted-but-not-yet-resumed
    // waiters still hold a slot and dereference the group once they wake.
    group->cv.wait(lock, [&g = *group] {
      return g.active.empty() && g.running == 0 && g.waiting == 0;
    });
  }
  lock.unlock();
  monitor_cv_.notify_all();
  monitor_.join();
}

Status QueryService::CreateGroup(const std::string& name,
                                 ResourceGroupConfig config) {
  if (name.empty()) {
    return Status::InvalidArgument("resource group name must not be empty");
  }
  if (config.concurrency == 0) {
    return Status::InvalidArgument(
        "resource group concurrency must be at least 1");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) return Status::Internal("query service shutting down");
  auto [it, inserted] = groups_.emplace(
      name, std::make_unique<Group>(name, config, &global_budget_));
  if (!inserted) {
    return Status::InvalidArgument("resource group '" + name +
                                   "' already exists");
  }
  it->second->PublishGauges();
  return Status::OK();
}

Status QueryService::DropGroup(const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  return DropGroupLocked(name, lock);
}

Status QueryService::DropGroupLocked(const std::string& name,
                                     std::unique_lock<std::mutex>& lock) {
  auto it = groups_.find(name);
  if (it == groups_.end() || it->second->dying) {
    return Status::NotFound("resource group '" + name + "' does not exist");
  }
  Group* group = it->second.get();
  group->dying = true;
  for (Group::Waiter* w : group->queue) w->aborted = true;
  group->queue.clear();
  for (ActiveQuery* q : group->active) {
    if (q->ctx != nullptr && !q->service_cancelled) {
      q->service_cancelled = true;
      group->cancelled++;
      obs::GroupCounter(name, "cancelled")->Increment();
      q->ctx->Cancel(
          Status::Cancelled("resource group '" + name + "' dropped"));
    }
  }
  group->cv.notify_all();
  // Admitted-but-unattached queries cannot be cancelled yet; their Attach
  // will run against a dying group (harmless — the context outlives us via
  // the admission contract) and Release drains them like any other. Drain
  // `running` and `waiting` too: a waiter that was just granted a slot (or
  // aborted) but has not yet reacquired mu_ is in neither `queue` nor
  // `active`, and erasing the group before it resumes would leave it
  // dereferencing freed memory.
  group->cv.wait(lock, [group] {
    return group->active.empty() && group->running == 0 &&
           group->waiting == 0;
  });
  group->PublishGauges();
  groups_.erase(name);  // `it` may be stale after unlocked waits
  return Status::OK();
}

bool QueryService::HasGroup(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = groups_.find(name);
  return it != groups_.end() && !it->second->dying;
}

std::vector<std::string> QueryService::GroupNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(groups_.size());
  for (const auto& [name, group] : groups_) {
    if (!group->dying) names.push_back(name);
  }
  return names;
}

Result<GroupSnapshot> QueryService::Snapshot(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = groups_.find(name);
  if (it == groups_.end()) {
    return Status::NotFound("resource group '" + name + "' does not exist");
  }
  const Group& g = *it->second;
  GroupSnapshot snap;
  snap.running = g.running;
  snap.queued = g.queue.size();
  snap.concurrency = g.config.concurrency;
  snap.mem_quota_bytes = g.config.mem_quota_bytes;
  snap.mem_used_bytes = g.quota.used();
  snap.admitted = g.admitted;
  snap.rejected = g.rejected;
  snap.timed_out = g.timed_out;
  snap.cancelled = g.cancelled;
  snap.clamped = g.clamped;
  snap.defaulted = g.defaulted;
  return snap;
}

Result<Admission> QueryService::Admit(const std::string& group_name,
                                      exec::ExecOptions options) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = groups_.find(group_name);
  if (it == groups_.end() || it->second->dying || stopping_) {
    return Status::NotFound("resource group '" + group_name +
                            "' does not exist");
  }
  Group* group = it->second.get();

  if (JSONTILES_FAILPOINT_FIRES("service.admit")) {
    group->rejected++;
    obs::GroupCounter(group_name, "rejected")->Increment();
    return Status::Internal("failpoint 'service.admit' fired");
  }

  // --- Concurrency slot: grab one, or wait in the bounded FIFO queue. ---
  uint64_t queue_wait_nanos = 0;
  if (group->running < group->config.concurrency && group->queue.empty()) {
    group->running++;
  } else {
    if (group->queue.size() >= group->config.max_queue) {
      group->rejected++;
      obs::GroupCounter(group_name, "rejected")->Increment();
      return Status::ResourceExhausted(
          "resource group '" + group_name + "' queue full (" +
          std::to_string(group->config.max_queue) + " waiting)");
    }
    Group::Waiter waiter;
    group->queue.push_back(&waiter);
    group->waiting++;
    group->PublishGauges();
    const Clock::time_point enqueued = Clock::now();
    const auto deadline = enqueued + std::chrono::milliseconds(
                                         group->config.queue_timeout_ms);
    group->cv.wait_until(lock, deadline, [&waiter] {
      return waiter.granted || waiter.aborted;
    });
    // From here we hold mu_ until Admit returns, so a drain (which needs
    // mu_ to evaluate its predicate) can no longer slip in between us
    // waking and us touching the group — drop the drain guard and tell
    // sleeping drainers to re-check.
    group->waiting--;
    group->cv.notify_all();
    queue_wait_nanos = NanosSince(enqueued);
    if (!waiter.granted) {
      // Timed out or aborted: unlink ourselves (grant may still race in
      // between the predicate check and re-lock — re-check afterwards).
      auto pos = std::find(group->queue.begin(), group->queue.end(), &waiter);
      if (pos != group->queue.end()) group->queue.erase(pos);
      if (!waiter.granted) {
        group->PublishGauges();
        if (waiter.aborted) {
          return Status::Cancelled("resource group '" + group_name +
                                   "' dropped while queued");
        }
        group->timed_out++;
        obs::GroupCounter(group_name, "timed_out")->Increment();
        return Status::ResourceExhausted(
            "admission into resource group '" + group_name +
            "' timed out after " +
            std::to_string(group->config.queue_timeout_ms) + " ms");
      }
    }
    // Granted: the releasing query already transferred its slot to us
    // (running stays constant across the hand-off).
    if (group->dying) {
      // Dropped between grant and wake. Give the slot back and bail.
      group->running--;
      group->cv.notify_all();
      return Status::Cancelled("resource group '" + group_name +
                               "' dropped while queued");
    }
  }

  // --- Admission reserve: a per-query memory floor held on the quota. ---
  const size_t reserve = group->config.admission_reserve_bytes;
  bool reserve_failed = JSONTILES_FAILPOINT_FIRES("service.quota_charge");
  if (!reserve_failed && reserve > 0 && !group->quota.TryCharge(reserve)) {
    reserve_failed = true;
  }
  if (reserve_failed) {
    // Undo the slot grant and hand the slot to the next waiter.
    if (!group->queue.empty()) {
      Group::Waiter* next = group->queue.front();
      group->queue.pop_front();
      next->granted = true;
      group->cv.notify_all();
    } else {
      group->running--;
    }
    group->rejected++;
    obs::GroupCounter(group_name, "rejected")->Increment();
    group->PublishGauges();
    return Status::ResourceExhausted(
        "admission reserve of " + std::to_string(reserve) +
        " bytes refused by resource group '" + group_name + "' quota");
  }

  // --- Clamp the per-query limit to the quota's remaining headroom, so the
  // sum of admitted per-query limits can never over-commit the group
  // (satellite: mem_limit/group-quota interaction). remaining() reflects the
  // reserves of every admitted query, including ours. A remaining of 0 under
  // a limited quota must not clamp to 0 — that means "unlimited" — so the
  // floor is one byte: the first operator charge then refuses and spills.
  Admission admission;
  admission.options_ = std::move(options);
  if (group->quota.limit() != MemoryBudget::kUnlimited) {
    const size_t headroom = std::max<size_t>(group->quota.remaining(), 1);
    size_t& requested = admission.options_.mem_limit_bytes;
    if (requested > headroom) {
      // Over-ask: the caller's explicit limit exceeded the quota headroom —
      // this is the over-admission regression the `clamped` counter tracks.
      requested = headroom;
      admission.clamped_ = true;
      group->clamped++;
      obs::GroupCounter(group_name, "mem_limit_clamped")->Increment();
    } else if (requested == 0) {
      // Unlimited request under a limited quota: default it to the headroom
      // so admitted limits stay within the group, but count it separately —
      // it is routine, not a caller over-ask.
      requested = headroom;
      group->defaulted++;
      obs::GroupCounter(group_name, "mem_limit_defaulted")->Increment();
    }
  }
  admission.options_.budget_parent = &group->quota;
  admission.options_.spill_disk = &disk_budget_;
  if (admission.options_.spill_dir.empty()) {
    admission.options_.spill_dir = config_.spill_dir;
  }

  auto* query = new ActiveQuery();
  query->group = group_name;
  query->reserve_bytes = reserve;
  query->started = Clock::now();
  group->active.push_back(query);
  group->admitted++;
  obs::GroupCounter(group_name, "admitted")->Increment();
  group->PublishGauges();

  admission.service_ = this;
  admission.query_ = query;
  admission.queue_wait_nanos_ = queue_wait_nanos;
  return admission;
}

void QueryService::ReleaseQuery(Admission* admission) {
  ActiveQuery* query = admission->query_;
  std::lock_guard<std::mutex> lock(mu_);
  if (query->ctx != nullptr) {
    obs::GroupCounter(query->group, "spilled_bytes")
        ->Add(static_cast<int64_t>(query->ctx->spilled_bytes));
  }
  auto it = groups_.find(query->group);
  // The group always outlives its admitted queries: DropGroup drains before
  // erasing, and the destructor does the same.
  JSONTILES_DCHECK(it != groups_.end());
  Group* group = it->second.get();
  if (query->reserve_bytes > 0) group->quota.Release(query->reserve_bytes);
  auto pos = std::find(group->active.begin(), group->active.end(), query);
  JSONTILES_DCHECK(pos != group->active.end());
  group->active.erase(pos);
  delete query;
  // Hand the slot to the next waiter, or free it.
  if (!group->dying && !group->queue.empty()) {
    Group::Waiter* next = group->queue.front();
    group->queue.pop_front();
    next->granted = true;
  } else {
    group->running--;
  }
  group->PublishGauges();
  group->cv.notify_all();  // waiters and drainers share the cv
}

Status QueryService::Submit(const std::string& group,
                            exec::ExecOptions options, const QueryFn& fn) {
  auto admitted = Admit(group, std::move(options));
  JSONTILES_RETURN_NOT_OK(admitted.status());
  Admission admission = admitted.MoveValueOrDie();
  exec::QueryContext ctx(admission.options());
  admission.Attach(&ctx);
  Status st = fn(ctx);
  Status cancel_st = ctx.ConsumeStatus();
  // Release (and thus detach from the monitor) strictly before `ctx` dies.
  admission.Release();
  if (!st.ok()) return st;
  return cancel_st;
}

void QueryService::CancelGroup(const std::string& group_name, Status reason) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = groups_.find(group_name);
  if (it == groups_.end()) return;
  Group* group = it->second.get();
  for (ActiveQuery* q : group->active) {
    if (q->ctx != nullptr && !q->service_cancelled) {
      q->service_cancelled = true;
      group->cancelled++;
      obs::GroupCounter(group_name, "cancelled")->Increment();
      q->ctx->Cancel(reason);
    }
  }
}

void QueryService::MonitorLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_) {
    monitor_cv_.wait_for(lock, kMonitorPeriod);
    if (stopping_) break;
    for (auto& [name, group] : groups_) {
      if (group->dying) continue;
      const auto& cfg = group->config;
      // Wall-clock runaways: cancel every attached over-deadline query.
      if (cfg.runaway_wall_ms > 0) {
        for (ActiveQuery* q : group->active) {
          if (q->ctx == nullptr || q->service_cancelled) continue;
          const uint64_t wall_ms = NanosSince(q->started) / 1000000;
          if (wall_ms < cfg.runaway_wall_ms) continue;
          q->service_cancelled = true;
          group->cancelled++;
          obs::GroupCounter(name, "cancelled")->Increment();
          q->ctx->Cancel(Status::Cancelled(
              "runaway query cancelled: ran " + std::to_string(wall_ms) +
              " ms, resource group '" + name + "' allows " +
              std::to_string(cfg.runaway_wall_ms) + " ms"));
        }
      }
      // Memory-watermark runaways: when the group is above the watermark,
      // cancel its single largest attached consumer — shedding one tenant
      // restores headroom for the rest.
      if (cfg.runaway_mem_fraction > 0 && cfg.mem_quota_bytes > 0 &&
          static_cast<double>(group->quota.used()) >
              cfg.runaway_mem_fraction *
                  static_cast<double>(cfg.mem_quota_bytes)) {
        ActiveQuery* biggest = nullptr;
        size_t biggest_used = 0;
        for (ActiveQuery* q : group->active) {
          if (q->ctx == nullptr || q->service_cancelled) continue;
          const size_t used = q->ctx->budget()->used();
          if (biggest == nullptr || used > biggest_used) {
            biggest = q;
            biggest_used = used;
          }
        }
        if (biggest != nullptr) {
          biggest->service_cancelled = true;
          group->cancelled++;
          obs::GroupCounter(name, "cancelled")->Increment();
          biggest->ctx->Cancel(Status::Cancelled(
              "runaway query cancelled: resource group '" + name +
              "' above memory watermark (" +
              std::to_string(group->quota.used()) + " of " +
              std::to_string(cfg.mem_quota_bytes) + " bytes used)"));
        }
      }
    }
  }
}

}  // namespace jsontiles::service
