// Thread pool with a parallel-for helper.
//
// Used for parallel bulk loading (each participant runs the loader's
// task-graph worker loop, paper §3.2, for plain and sharded loads alike),
// the hash-routing pass of sharded loads and morsel-style parallel scans in
// the query engine (Fig 8). ThreadPool(n) starts n threads; ParallelFor runs
// on those n and the calling thread, so n + 1 threads work on one call.

#ifndef JSONTILES_UTIL_THREAD_POOL_H_
#define JSONTILES_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.h"

namespace jsontiles {

class ThreadPool {
 public:
  /// `num_threads` == 0 means hardware concurrency.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Run fn(i) for i in [0, n). `fn` also receives the calling worker index
  /// in [0, num_threads]) so callers can keep per-thread state. Work is
  /// divided into contiguous chunks, one chunk claimed at a time
  /// (morsel-style). Blocks until done; the calling thread participates.
  void ParallelFor(size_t n, const std::function<void(size_t index, size_t worker)>& fn,
                   size_t chunk = 1);

  /// Fallible variant: `fn` returns Status. The first failing index's Status
  /// (first in wall-clock order) is captured and returned; after a failure no
  /// new morsels are claimed, though already-claimed chunks finish their
  /// current index. Always blocks until every participating worker has
  /// stopped, so the pool (and any state `fn` captures) may be destroyed the
  /// moment this returns — even on the error path.
  Status ParallelForStatus(
      size_t n, const std::function<Status(size_t index, size_t worker)>& fn,
      size_t chunk = 1);

 private:
  // Enqueue a task; returns immediately.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool shutdown_ = false;
};

}  // namespace jsontiles

#endif  // JSONTILES_UTIL_THREAD_POOL_H_
