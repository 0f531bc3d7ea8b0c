// Tracing: RAII spans collected into per-thread buffers, exported as a
// chrome://tracing / Perfetto-compatible JSON file ("traceEvents" with "X"
// complete events).
//
// Tracing is off by default; TraceCollector::Default().set_enabled(true)
// turns it on (the bench binaries do this behind --trace-json). A disabled
// collector makes TraceSpan construction a single relaxed atomic load.
//
// ScopedTimer is the metrics sibling: it measures the enclosing scope and
// records microseconds into a Histogram and/or a double output.

#ifndef JSONTILES_OBS_TRACE_H_
#define JSONTILES_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace jsontiles::obs {

struct TraceEvent {
  std::string name;
  uint64_t ts_micros = 0;   // start, relative to the collector epoch
  uint64_t dur_micros = 0;  // duration
  uint32_t tid = 0;         // small per-thread id, stable per thread
};

class TraceCollector {
 public:
  static TraceCollector& Default();

  TraceCollector();
  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  /// Microseconds since the collector epoch.
  uint64_t NowMicros() const;

  /// Append one complete event to the calling thread's buffer.
  void Record(std::string name, uint64_t ts_micros, uint64_t dur_micros);

  /// All recorded events (merged across threads, in per-thread order).
  std::vector<TraceEvent> Snapshot() const;

  /// Drop all recorded events (buffers stay registered).
  void Clear();

  /// {"traceEvents":[...],"displayTimeUnit":"ms"} — loadable by
  /// chrome://tracing and https://ui.perfetto.dev.
  std::string ToChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    uint32_t tid;
    std::mutex mutex;  // contended only by Snapshot/Clear
    std::vector<TraceEvent> events;
  };
  ThreadBuffer* BufferForThisThread();

  // Process-unique, never reused: a collector built where a destroyed one
  // lived must not match that one's thread-local buffer cache.
  const uint64_t id_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards buffers_ registration
  std::vector<std::shared_ptr<ThreadBuffer>> buffers_;
};

/// RAII span: records [construction, destruction) into the collector when
/// tracing is enabled. `name` must outlive the span (string literals).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name,
                     TraceCollector& collector = TraceCollector::Default())
      : collector_(collector) {
    if (collector_.enabled()) {
      name_ = name;
      start_ = collector_.NowMicros();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) {
      collector_.Record(name_, start_, collector_.NowMicros() - start_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  TraceCollector& collector_;
  const char* name_ = nullptr;  // null when tracing was disabled at entry
  uint64_t start_ = 0;
};

/// Measures the enclosing scope; on destruction records elapsed microseconds
/// into the histogram (if any) and/or stores elapsed seconds into `out_secs`.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram, double* out_secs = nullptr)
      : histogram_(histogram), out_secs_(out_secs),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() {
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    if (histogram_ != nullptr) histogram_->Record(secs * 1e6);
    if (out_secs_ != nullptr) *out_secs_ = secs;
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  double* out_secs_;
  std::chrono::steady_clock::time_point start_;
};

/// Manual stopwatch for multi-phase timings (e.g. the two JSONB passes).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  /// Seconds since construction or the previous Lap().
  double Lap() {
    auto now = std::chrono::steady_clock::now();
    double secs = std::chrono::duration<double>(now - start_).count();
    start_ = now;
    return secs;
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace jsontiles::obs

#endif  // JSONTILES_OBS_TRACE_H_
