// Shared helpers for the paper-reproduction benchmarks.
//
// Every binary regenerates one table/figure of the paper: it loads the
// workload under the relevant storage modes, measures with google-benchmark,
// and prints a paper-style summary table at the end. Environment knobs:
//   JSONTILES_SF       TPC-H scale factor (default 0.01)
//   JSONTILES_THREADS  worker threads for loading/scans (default 1)
//   JSONTILES_TWEETS   Twitter stream size (default 20000)
//   JSONTILES_YELP     Yelp businesses (default 300)

#ifndef JSONTILES_BENCH_BENCH_COMMON_H_
#define JSONTILES_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "exec/simd.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/loader.h"
#include "util/byte_codec.h"

namespace jsontiles::bench {

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : std::atof(v);
}
inline size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v == nullptr ? fallback : static_cast<size_t>(std::atoll(v));
}

inline double TpchScaleFactor() { return EnvDouble("JSONTILES_SF", 0.01); }
inline size_t BenchThreads() { return EnvSize("JSONTILES_THREADS", 1); }
inline size_t TwitterTweets() { return EnvSize("JSONTILES_TWEETS", 20000); }
inline size_t YelpBusinesses() { return EnvSize("JSONTILES_YELP", 300); }

inline const std::vector<storage::StorageMode>& AllModes() {
  static const std::vector<storage::StorageMode> kModes = {
      storage::StorageMode::kJsonText, storage::StorageMode::kJsonb,
      storage::StorageMode::kSinew, storage::StorageMode::kTiles};
  return kModes;
}

/// Load one document stream under every storage mode.
inline std::map<storage::StorageMode, std::unique_ptr<storage::Relation>>
LoadAllModes(const std::vector<std::string>& docs, const std::string& name,
             tiles::TileConfig config = {},
             storage::LoadOptions options = {}) {
  std::map<storage::StorageMode, std::unique_ptr<storage::Relation>> out;
  if (options.num_threads == 0) options.num_threads = BenchThreads();
  for (auto mode : AllModes()) {
    storage::Loader loader(mode, config, options);
    out[mode] = loader.Load(docs, name).MoveValueOrDie();
  }
  return out;
}

/// Wall-clock seconds of one invocation.
template <typename Fn>
double TimeOnce(Fn&& fn) {
  auto begin = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
      .count();
}

/// Best-of-n wall time (the paper reports per-query execution times).
template <typename Fn>
double TimeBest(Fn&& fn, int repetitions = 3) {
  double best = 1e300;
  for (int i = 0; i < repetitions; i++) {
    double t = TimeOnce(fn);
    if (t < best) best = t;
  }
  return best;
}

/// Median wall time of n invocations.
template <typename Fn>
double TimeMedian(Fn&& fn, int repetitions) {
  std::vector<double> times;
  for (int i = 0; i < repetitions; i++) times.push_back(TimeOnce(fn));
  std::nth_element(times.begin(), times.begin() + repetitions / 2,
                   times.end());
  return times[static_cast<size_t>(repetitions / 2)];
}

inline double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

/// Simple fixed-width table printer for the paper-style summaries.
class TablePrinter {
 public:
  explicit TablePrinter(std::string title) : title_(std::move(title)) {}

  void SetHeader(std::vector<std::string> header) { header_ = std::move(header); }
  void AddRow(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

  void Print() const {
    std::printf("\n=== %s ===\n", title_.c_str());
    std::vector<size_t> widths(header_.size(), 0);
    auto measure = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size() && i < widths.size(); i++) {
        widths[i] = std::max(widths[i], row[i].size());
      }
    };
    measure(header_);
    for (const auto& row : rows_) measure(row);
    auto print_row = [&](const std::vector<std::string>& row) {
      for (size_t i = 0; i < row.size(); i++) {
        std::printf("%-*s  ", static_cast<int>(widths[i]), row[i].c_str());
      }
      std::printf("\n");
    };
    print_row(header_);
    for (const auto& row : rows_) print_row(row);
    std::fflush(stdout);
  }

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string Fmt(double v, const char* fmt = "%.4f") {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

/// Observability flags shared by all bench binaries. Construct before
/// benchmark::Initialize so google-benchmark never sees our flags:
///
///   --metrics-json <path>   dump the MetricsRegistry as JSON on exit
///   --trace-json <path>     record trace spans, write a chrome://tracing file
///   --simd / --no-simd      toggle the SIMD kernel tier of the vectorized
///                           engine (default on; --no-simd runs the exact
///                           scalar-fallback code paths, the honest baseline)
class BenchObs {
 public:
  BenchObs(int* argc, char** argv) {
    int out = 1;
    for (int i = 1; i < *argc; i++) {
      std::string_view arg = argv[i];
      if (arg == "--simd" || arg == "--no-simd") {
        exec::simd::SetEnabled(arg == "--simd");
        continue;
      }
      std::string* target = nullptr;
      if (arg == "--metrics-json" || arg.rfind("--metrics-json=", 0) == 0) {
        target = &metrics_path_;
      } else if (arg == "--trace-json" || arg.rfind("--trace-json=", 0) == 0) {
        target = &trace_path_;
      }
      if (target == nullptr) {
        argv[out++] = argv[i];
        continue;
      }
      size_t eq = arg.find('=');
      if (eq != std::string_view::npos) {
        *target = std::string(arg.substr(eq + 1));
      } else if (i + 1 < *argc) {
        *target = argv[++i];
      } else {
        std::fprintf(stderr, "missing path after %s\n",
                     std::string(arg).c_str());
        std::exit(2);
      }
    }
    *argc = out;
    argv[out] = nullptr;
    // Fail before the (long) benchmark run, not in the dtor afterwards.
    for (const std::string& path : {metrics_path_, trace_path_}) {
      if (path.empty()) continue;
      std::FILE* f = std::fopen(path.c_str(), "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        std::exit(2);
      }
      std::fclose(f);
    }
    if (!trace_path_.empty()) {
      obs::TraceCollector::Default().set_enabled(true);
    }
  }

  ~BenchObs() {
    if (!metrics_path_.empty()) {
      const std::string json = obs::MetricsRegistry::Default().ToJson();
      Status st = WriteFile(metrics_path_, json.data(), json.size());
      if (!st.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", metrics_path_.c_str(),
                     st.ToString().c_str());
      } else {
        std::printf("\nmetrics written to %s\n", metrics_path_.c_str());
      }
    }
    if (!trace_path_.empty()) {
      Status st = obs::TraceCollector::Default().WriteChromeTrace(trace_path_);
      if (!st.ok()) {
        std::fprintf(stderr, "cannot write %s: %s\n", trace_path_.c_str(),
                     st.ToString().c_str());
      } else {
        std::printf("trace written to %s (load in chrome://tracing)\n",
                    trace_path_.c_str());
      }
    }
  }

  BenchObs(const BenchObs&) = delete;
  BenchObs& operator=(const BenchObs&) = delete;

 private:
  std::string metrics_path_;
  std::string trace_path_;
};

}  // namespace jsontiles::bench

#endif  // JSONTILES_BENCH_BENCH_COMMON_H_
