#include "opt/cardinality.h"

#include <algorithm>

#include "exec/expr_compile.h"
#include "exec/scan.h"
#include "storage/shard.h"

namespace jsontiles::opt {

using exec::ExprPtr;
using exec::Value;
using storage::Relation;
using storage::StorageMode;

namespace {

// True when `filter` is nothing but a conjunction of IS NOT NULL tests on
// slots whose accesses read null-rejecting paths: the presence counters then
// answer the whole filter, and sampling adds nothing.
bool OnlyPresenceTests(const exec::Expr& filter,
                       const std::vector<ExprPtr>& accesses,
                       const std::vector<std::string>& null_rejecting_paths) {
  if (filter.kind == exec::ExprKind::kBinary &&
      filter.bin_op == exec::BinOp::kAnd) {
    return OnlyPresenceTests(*filter.args[0], accesses, null_rejecting_paths) &&
           OnlyPresenceTests(*filter.args[1], accesses, null_rejecting_paths);
  }
  if (filter.kind != exec::ExprKind::kUnary ||
      filter.un_op != exec::UnOp::kIsNotNull ||
      filter.args[0]->kind != exec::ExprKind::kSlotRef) {
    return false;
  }
  const int slot = filter.args[0]->slot;
  if (slot < 0 || static_cast<size_t>(slot) >= accesses.size()) return false;
  const exec::Expr& access = *accesses[slot];
  return access.kind == exec::ExprKind::kAccess &&
         std::find(null_rejecting_paths.begin(), null_rejecting_paths.end(),
                   access.path) != null_rejecting_paths.end();
}

}  // namespace

ScanEstimate EstimateScanCardinality(
    const Relation& relation, const std::vector<ExprPtr>& accesses,
    const ExprPtr& filter, const std::vector<std::string>& null_rejecting_paths,
    size_t sample_size) {
  ScanEstimate est;
  const size_t n = relation.num_rows();
  if (n == 0) return est;

  // Base presence: how many tuples contain all required key paths.
  const bool stats_presence =
      relation.has_stats() && !null_rejecting_paths.empty();
  double presence_fraction = 1.0;
  if (stats_presence) {
    uint64_t smallest = n;
    for (const auto& path : null_rejecting_paths) {
      smallest = std::min(smallest,
                          relation.stats().EstimateKeyCardinalityAnyType(path));
    }
    presence_fraction = static_cast<double>(smallest) / static_cast<double>(n);
    if (filter == nullptr ||
        OnlyPresenceTests(*filter, accesses, null_rejecting_paths)) {
      est.cardinality = std::max(1.0, presence_fraction * static_cast<double>(n));
      return est;
    }
  }

  // §4.6: sample documents statically at plan time to estimate the filter
  // (and, for stats-less modes, the key presence too).
  size_t samples = std::min(sample_size, n);
  if (samples == 0) samples = 1;
  size_t stride = n / samples;
  if (stride == 0) stride = 1;

  // Only the slots the filter reads are evaluated per sampled document.
  std::vector<int> filter_slots;
  if (filter != nullptr) {
    exec::CollectSlotRefs(*filter, &filter_slots);
    std::sort(filter_slots.begin(), filter_slots.end());
    filter_slots.erase(std::unique(filter_slots.begin(), filter_slots.end()),
                       filter_slots.end());
  }

  Arena arena;
  json::JsonbBuilder builder;
  std::vector<uint8_t> buf;
  size_t present = 0;
  size_t passing = 0;
  std::vector<Value> slots(accesses.size());
  // One sampled document: counts it as present (all null-rejecting paths
  // found) and passing (the filter holds).
  auto sample_row = [&](size_t row) {
    const uint8_t* doc_bytes;
    if (relation.mode() == StorageMode::kJsonText) {
      if (!builder.Transform(relation.JsonText(row), &buf).ok()) return;
      doc_bytes = buf.data();
    } else {
      doc_bytes = relation.Jsonb(row).data();
    }
    json::JsonbValue doc(doc_bytes);
    for (const auto& path : null_rejecting_paths) {
      Value v = exec::EvalAccessOnJsonb(doc, path, exec::ValueType::kString,
                                        &arena);
      if (v.is_null()) return;
    }
    present++;
    if (filter == nullptr) {
      passing++;
      return;
    }
    for (int s : filter_slots) {
      if (s < 0 || static_cast<size_t>(s) >= accesses.size()) continue;
      slots[s] = exec::EvalScanExprOnJsonb(*accesses[s], doc,
                                           static_cast<int64_t>(row), &arena);
    }
    Value keep = exec::EvalExpr(*filter, slots.data(), &arena);
    if (!keep.is_null() && keep.bool_value()) passing++;
  };

  size_t sampled = 0;
  for (size_t row = 0; row < n && sampled < samples; row += stride, sampled++) {
    sample_row(row);
  }

  // A rare document kind can sit in a few tiles the stride never hits (a
  // 50-row table in one tile of many). Resample, with the same budget, only
  // the tiles whose path statistics admit every null-rejecting path; the
  // presence itself still comes from the relation statistics.
  if (present == 0 && stats_presence) {
    std::vector<const tiles::Tile*> candidates;
    size_t candidate_rows = 0;
    for (const tiles::Tile& tile : relation.tiles()) {
      bool may_contain = true;
      for (const auto& path : null_rejecting_paths) {
        if (path != exec::kRowIdPath && !tile.MayContainPath(path)) {
          may_contain = false;
          break;
        }
      }
      if (!may_contain) continue;
      candidates.push_back(&tile);
      candidate_rows += tile.row_count;
    }
    if (candidate_rows > 0 && candidate_rows < n) {
      const size_t tile_stride = std::max<size_t>(1, candidate_rows / samples);
      size_t offset = 0;  // position in the concatenated candidate rows
      size_t resampled = 0;
      for (const tiles::Tile* tile : candidates) {
        for (; offset < tile->row_count && resampled < samples;
             offset += tile_stride, resampled++) {
          sample_row(tile->row_begin + offset);
        }
        if (resampled == samples) break;
        offset -= tile->row_count;
      }
    }
  }

  double filter_fraction =
      present == 0 ? 0.1
                   : static_cast<double>(passing) / static_cast<double>(present);
  if (filter_fraction <= 0) filter_fraction = 0.5 / static_cast<double>(samples);

  if (stats_presence) {
    est.cardinality =
        presence_fraction * filter_fraction * static_cast<double>(n);
  } else {
    double sample_presence =
        sampled == 0 ? 1.0
                     : static_cast<double>(present) / static_cast<double>(sampled);
    if (sample_presence <= 0) sample_presence = 0.5 / static_cast<double>(samples);
    est.cardinality =
        sample_presence * filter_fraction * static_cast<double>(n);
  }
  if (est.cardinality < 1) est.cardinality = 1;
  return est;
}

double EstimateJoinKeyDistinct(const Relation& relation,
                               const std::string& encoded_path,
                               double scan_card) {
  if (relation.has_stats()) {
    auto distinct = relation.stats().EstimateDistinctAnyType(encoded_path);
    if (distinct.has_value() && *distinct >= 1) {
      return std::min(*distinct, scan_card < 1 ? 1.0 : scan_card);
    }
  }
  // Unique-key fallback: every row has its own key value.
  return scan_card < 1 ? 1.0 : scan_card;
}

ScanEstimate EstimateShardedScanCardinality(
    const storage::ShardedRelation& sharded,
    const std::vector<ExprPtr>& accesses, const ExprPtr& filter,
    const std::vector<std::string>& null_rejecting_paths, size_t sample_size) {
  ScanEstimate est;
  const size_t total = sharded.num_rows();
  if (total == 0) return est;
  for (size_t s = 0; s < sharded.shard_count(); s++) {
    const Relation& shard = sharded.shard(s);
    if (shard.num_rows() == 0) continue;
    // Proportional sample split, at least a handful per non-empty shard.
    size_t share = sample_size * shard.num_rows() / total;
    share = std::max<size_t>(share, std::min<size_t>(sample_size, 8));
    est.cardinality += EstimateScanCardinality(shard, accesses, filter,
                                               null_rejecting_paths, share)
                           .cardinality;
  }
  if (est.cardinality < 1) est.cardinality = 1;
  return est;
}

double EstimateShardedJoinKeyDistinct(const storage::ShardedRelation& sharded,
                                      const std::string& encoded_path,
                                      double scan_card) {
  const double card = scan_card < 1 ? 1.0 : scan_card;
  const bool disjoint_keys =
      sharded.shard_options().routing == storage::ShardRouting::kHashKey &&
      sharded.routing_path() == encoded_path;
  double sum = 0;
  double max_one = 0;
  for (size_t s = 0; s < sharded.shard_count(); s++) {
    const Relation& shard = sharded.shard(s);
    if (shard.num_rows() == 0) continue;
    // Per-shard estimate, scaled by the shard's weight in the scan output.
    double shard_card =
        card * static_cast<double>(shard.num_rows()) /
        static_cast<double>(sharded.num_rows() == 0 ? 1 : sharded.num_rows());
    double d = EstimateJoinKeyDistinct(shard, encoded_path, shard_card);
    sum += d;
    max_one = std::max(max_one, d);
  }
  double distinct = disjoint_keys ? sum : std::max(max_one, 1.0);
  return std::min(std::max(distinct, 1.0), card);
}

}  // namespace jsontiles::opt
