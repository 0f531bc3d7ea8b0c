#include "util/thread_pool.h"

#include <algorithm>

#include "obs/obs.h"

namespace jsontiles {

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; i++) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  JSONTILES_COUNTER_ADD("thread_pool.tasks_submitted", 1);
  // Wrap the task so the dequeueing worker can report how long it sat queued.
  task = [submitted = obs::TraceCollector::Default().NowMicros(),
          inner = std::move(task)]() {
    JSONTILES_HIST_RECORD(
        "thread_pool.queue_wait_micros",
        static_cast<double>(obs::TraceCollector::Default().NowMicros() -
                            submitted));
    inner();
  };
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (shutdown_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn,
                             size_t chunk) {
  ParallelForStatus(
      n,
      [&fn](size_t i, size_t worker) {
        fn(i, worker);
        return Status::OK();
      },
      chunk);
}

Status ThreadPool::ParallelForStatus(
    size_t n, const std::function<Status(size_t, size_t)>& fn, size_t chunk) {
  if (n == 0) return Status::OK();
  if (chunk == 0) chunk = 1;
  JSONTILES_COUNTER_ADD("thread_pool.parallel_for_calls", 1);
  JSONTILES_COUNTER_ADD("thread_pool.parallel_for_items",
                        static_cast<int64_t>(n));
  // All shared state lives on this frame; the final cv wait below guarantees
  // no helper task touches it after ParallelForStatus returns, so the caller
  // may destroy the pool immediately — including while unwinding a failure.
  struct ForState {
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable done_cv;
    size_t done = 0;
    Status first_error;
  } st;
  auto work = [&](size_t worker) {
    while (!st.failed.load(std::memory_order_relaxed)) {
      size_t begin = st.next.fetch_add(chunk);
      if (begin >= n) break;
      size_t end = std::min(begin + chunk, n);
      for (size_t i = begin; i < end; i++) {
        Status s = fn(i, worker);
        if (!s.ok()) {
          std::lock_guard<std::mutex> lock(st.mutex);
          if (st.first_error.ok()) st.first_error = std::move(s);
          st.failed.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  };
  const size_t helpers = workers_.size();
  for (size_t w = 0; w < helpers; w++) {
    Submit([&st, &work, w] {
      work(w);
      // Notify under the lock: the waiter may destroy the state the moment
      // it observes done == helpers, so the cv must not be touched after.
      std::lock_guard<std::mutex> lock(st.mutex);
      st.done++;
      st.done_cv.notify_all();
    });
  }
  work(helpers);  // the calling thread participates as the last worker
  std::unique_lock<std::mutex> lock(st.mutex);
  st.done_cv.wait(lock, [&st, helpers] { return st.done == helpers; });
  return std::move(st.first_error);
}

}  // namespace jsontiles
