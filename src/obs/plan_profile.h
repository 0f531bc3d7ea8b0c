// Per-query operator profiling behind EXPLAIN ANALYZE.
//
// Unlike the global MetricsRegistry this is per-query state: the SQL layer
// attaches a PlanProfile to the QueryContext, every physical operator
// (scan.cc / operators.cc) appends one OperatorStats entry via the RAII
// OperatorProfiler, and the planner (opt/query.cc, sql/sql_parser.cc) wires
// the entries into a tree as it composes the plan. With a null profile the
// whole mechanism costs one branch per operator call.

#ifndef JSONTILES_OBS_PLAN_PROFILE_H_
#define JSONTILES_OBS_PLAN_PROFILE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace jsontiles::obs {

struct OperatorStats {
  std::string name;    // "Scan", "HashJoin", "Aggregate", ...
  std::string detail;  // e.g. table alias, join arity
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t wall_nanos = 0;
  /// Operator-specific extras, e.g. {"tiles", 6}, {"tiles_skipped", 2}.
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<int> children;  // ids within the owning PlanProfile
};

class PlanProfile {
 public:
  /// Append an entry; returns its id. Entries arrive in execution order, so
  /// ids are also a topological order of the finished tree (children first).
  int Add(OperatorStats stats) {
    ops_.push_back(std::move(stats));
    return static_cast<int>(ops_.size()) - 1;
  }

  int last_id() const { return static_cast<int>(ops_.size()) - 1; }
  size_t size() const { return ops_.size(); }

  OperatorStats& op(int id) { return ops_[static_cast<size_t>(id)]; }
  const OperatorStats& op(int id) const { return ops_[static_cast<size_t>(id)]; }

  /// Root of the (partially wired) plan; -1 until the first operator ran.
  int root() const { return root_; }
  void SetRoot(int id) { root_ = id; }

  /// Make `id` the new root with the previous root as its child (the common
  /// "pipeline grows upward" wiring step).
  void Chain(int id) {
    if (root_ >= 0) op(id).children.push_back(root_);
    root_ = id;
  }

  /// Annotated operator tree, one operator per line, children indented:
  ///   Aggregate  (rows in=6005, out=4, 1.23 ms)
  ///     -> Scan lineitem  (rows out=6005, 5.01 ms) [tiles=6 tiles_skipped=2]
  std::string FormatTree() const;

 private:
  std::vector<OperatorStats> ops_;
  int root_ = -1;
};

/// RAII collection of one OperatorStats entry. Construct before the operator
/// does any work; the destructor stamps the wall time and appends the entry.
/// With a null profile every method is a no-op.
class OperatorProfiler {
 public:
  OperatorProfiler(PlanProfile* profile, std::string name,
                   std::string detail = {})
      : profile_(profile) {
    if (profile_ != nullptr) {
      stats_.name = std::move(name);
      stats_.detail = std::move(detail);
      start_ = std::chrono::steady_clock::now();
    }
  }
  ~OperatorProfiler() {
    if (profile_ != nullptr) {
      stats_.wall_nanos = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - start_)
              .count());
      profile_->Add(std::move(stats_));
    }
  }
  OperatorProfiler(const OperatorProfiler&) = delete;
  OperatorProfiler& operator=(const OperatorProfiler&) = delete;

  bool active() const { return profile_ != nullptr; }
  void set_detail(std::string detail) {
    if (profile_ != nullptr) stats_.detail = std::move(detail);
  }
  void set_rows_in(uint64_t n) {
    if (profile_ != nullptr) stats_.rows_in = n;
  }
  void set_rows_out(uint64_t n) {
    if (profile_ != nullptr) stats_.rows_out = n;
  }
  void AddCounter(std::string name, int64_t value) {
    if (profile_ != nullptr) stats_.counters.emplace_back(std::move(name), value);
  }

 private:
  PlanProfile* profile_;
  OperatorStats stats_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace jsontiles::obs

#endif  // JSONTILES_OBS_PLAN_PROFILE_H_
