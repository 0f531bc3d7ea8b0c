#include "obs/trace.h"

#include "util/byte_codec.h"

namespace jsontiles::obs {

TraceCollector& TraceCollector::Default() {
  static TraceCollector* collector = new TraceCollector();  // never destroyed
  return *collector;
}

TraceCollector::TraceCollector()
    : id_([] {
        static std::atomic<uint64_t> next_id{1};
        return next_id.fetch_add(1, std::memory_order_relaxed);
      }()),
      epoch_(std::chrono::steady_clock::now()) {}

uint64_t TraceCollector::NowMicros() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

TraceCollector::ThreadBuffer* TraceCollector::BufferForThisThread() {
  // One buffer per (collector, thread). The thread_local caches the last
  // collector's buffer, keyed by collector id rather than address; tests
  // with private collectors re-resolve on mismatch.
  thread_local uint64_t cached_owner = 0;
  thread_local ThreadBuffer* cached_buffer = nullptr;
  if (cached_owner == id_ && cached_buffer != nullptr) return cached_buffer;
  std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_shared<ThreadBuffer>();
  buffer->tid = static_cast<uint32_t>(buffers_.size());
  buffers_.push_back(buffer);
  cached_owner = id_;
  cached_buffer = buffer.get();  // kept alive by buffers_
  return cached_buffer;
}

void TraceCollector::Record(std::string name, uint64_t ts_micros,
                            uint64_t dur_micros) {
  ThreadBuffer* buffer = BufferForThisThread();
  TraceEvent event;
  event.name = std::move(name);
  event.ts_micros = ts_micros;
  event.dur_micros = dur_micros;
  event.tid = buffer->tid;
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->events.push_back(std::move(event));
}

std::vector<TraceEvent> TraceCollector::Snapshot() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> out;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

void TraceCollector::Clear() {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers = buffers_;
  }
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::string TraceCollector::ToChromeTraceJson() const {
  std::vector<TraceEvent> events = Snapshot();
  std::string out = "{\"traceEvents\":[";
  for (size_t i = 0; i < events.size(); i++) {
    const TraceEvent& e = events[i];
    if (i > 0) out += ",";
    out += "{\"name\":";
    AppendJsonString(e.name, &out);
    out += ",\"cat\":\"jsontiles\",\"ph\":\"X\",\"pid\":1,\"tid\":" +
           std::to_string(e.tid) + ",\"ts\":" + std::to_string(e.ts_micros) +
           ",\"dur\":" + std::to_string(e.dur_micros) + "}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

Status TraceCollector::WriteChromeTrace(const std::string& path) const {
  const std::string json = ToChromeTraceJson();
  return WriteFile(path, json.data(), json.size());
}

}  // namespace jsontiles::obs
