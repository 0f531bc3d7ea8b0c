#include "opt/cardinality.h"

#include <algorithm>

#include "exec/expr_compile.h"
#include "exec/operators.h"
#include "storage/shard.h"

namespace jsontiles::opt {

using exec::ExprPtr;
using exec::RowSubset;
using exec::ScanSpec;
using storage::Relation;

namespace {

// Documents sampled per relation at plan time (§4.6); a sharded scan splits
// the budget across its shards.
constexpr size_t kSampleSize = 512;

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

// `e` with every slot reference s replaced by slot `remap[s]`.
ExprPtr RemapSlots(const ExprPtr& e, const std::vector<int>& remap) {
  if (e->kind == exec::ExprKind::kSlotRef) return exec::Slot(remap[e->slot]);
  auto copy = std::make_shared<exec::Expr>(*e);
  for (ExprPtr& arg : copy->args) arg = RemapSlots(arg, remap);
  return copy;
}

// The row-subset scan that reads a sample of one relation for `spec`: the
// accesses its filter reads plus each null-rejecting path read as text,
// filtered by IS NOT NULL of those paths. Its output rows are the present
// documents; the filter over them gives the passing ones. The scans run in
// their own single-thread context: no distributed runtime, no profile, and
// no range predicates, since zone maps would drop documents that are present
// but fail the filter.
class SampleScan {
 public:
  explicit SampleScan(const ScanSpec& spec) {
    scan_.table_alias = spec.table_alias;
    scan_.null_rejecting_paths = spec.null_rejecting_paths;
    if (spec.filter != nullptr) {
      std::vector<int> read;
      exec::CollectSlotRefs(*spec.filter, &read);
      std::vector<int> remap(spec.accesses.size(), -1);
      for (int slot : read) {
        if (remap[slot] >= 0) continue;
        remap[slot] = static_cast<int>(scan_.accesses.size());
        scan_.accesses.push_back(spec.accesses[slot]);
      }
      filter_ = RemapSlots(spec.filter, remap);
    }
    std::vector<ExprPtr> present;
    for (const std::string& path : spec.null_rejecting_paths) {
      if (path == exec::kRowIdPath) continue;  // present in every row
      present.push_back(exec::IsNotNull(
          exec::Slot(static_cast<int>(scan_.accesses.size()))));
      scan_.accesses.push_back(
          exec::AccessPath(spec.table_alias, path, exec::ValueType::kString));
    }
    if (!present.empty()) scan_.filter = exec::And(std::move(present));
  }

  // Add the listed rows of `relation` that are present, and those of them
  // that pass the filter.
  Status Count(const Relation& relation, int64_t rowid_base,
               const RowSubset& rows, size_t* present, size_t* passing) {
    scan_.relation = &relation;
    scan_.rowid_base = rowid_base;
    scan_.row_subset = &rows;
    exec::RowSet found = exec::ScanExec(scan_, ctx_);
    JSONTILES_RETURN_NOT_OK(ctx_.ConsumeStatus());
    *present += found.size();
    *passing += exec::FilterExec(std::move(found), filter_, ctx_).size();
    return ctx_.ConsumeStatus();
  }

 private:
  ScanSpec scan_;
  ExprPtr filter_;
  exec::QueryContext ctx_;
};

// Estimated output rows of `spec` over one relation, sampling at most
// `sample_size` of its documents.
Status EstimateRelation(const ScanSpec& spec, SampleScan& sample,
                        const Relation& relation, int64_t rowid_base,
                        size_t sample_size, double* rows) {
  *rows = 0;
  const size_t n = relation.num_rows();
  if (n == 0) return Status::OK();
  const std::vector<std::string>& null_rejecting_paths =
      spec.null_rejecting_paths;

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
    if (spec.filter == nullptr ||
        OnlyPresenceTests(*spec.filter, spec.accesses, null_rejecting_paths)) {
      *rows = std::max(1.0, presence_fraction * static_cast<double>(n));
      return Status::OK();
    }
  }

  // §4.6: sample documents statically at plan time to estimate the filter
  // (and, for stats-less modes, the key presence too).
  const size_t samples = std::min(sample_size, n);
  const size_t stride = std::max<size_t>(1, n / samples);
  RowSubset strided(n);
  size_t sampled = 0;
  for (size_t row = 0; row < n && sampled < samples; row += stride, sampled++) {
    strided.Add(row);
  }
  size_t present = 0;
  size_t passing = 0;
  JSONTILES_RETURN_NOT_OK(
      sample.Count(relation, rowid_base, strided, &present, &passing));

  // A rare document kind can sit in a few tiles the stride never hits (a
  // 50-row table in one tile of many). Resample, with the same budget, only
  // the tiles whose path statistics admit every null-rejecting path; the
  // presence itself still comes from the relation statistics.
  if (present == 0 && stats_presence) {
    auto candidate = [&](const tiles::Tile& tile) {
      return std::all_of(
          null_rejecting_paths.begin(), null_rejecting_paths.end(),
          [&](const std::string& path) {
            return path == exec::kRowIdPath || tile.MayContainPath(path);
          });
    };
    size_t candidate_rows = 0;
    for (const tiles::Tile& tile : relation.tiles()) {
      if (candidate(tile)) candidate_rows += tile.row_count;
    }
    if (candidate_rows > 0 && candidate_rows < n) {
      const size_t tile_stride = std::max<size_t>(1, candidate_rows / samples);
      RowSubset resample(n);
      size_t offset = 0;  // position in the concatenated candidate rows
      size_t resampled = 0;
      for (const tiles::Tile& tile : relation.tiles()) {
        if (!candidate(tile)) continue;
        for (; offset < tile.row_count && resampled < samples;
             offset += tile_stride, resampled++) {
          resample.Add(tile.row_begin + offset);
        }
        if (resampled == samples) break;
        offset -= tile.row_count;
      }
      JSONTILES_RETURN_NOT_OK(
          sample.Count(relation, rowid_base, resample, &present, &passing));
    }
  }

  double filter_fraction =
      present == 0 ? 0.1
                   : static_cast<double>(passing) / static_cast<double>(present);
  if (filter_fraction <= 0) filter_fraction = 0.5 / static_cast<double>(samples);

  if (stats_presence) {
    *rows = presence_fraction * filter_fraction * static_cast<double>(n);
  } else {
    double sample_presence =
        static_cast<double>(present) / static_cast<double>(sampled);
    if (sample_presence <= 0) sample_presence = 0.5 / static_cast<double>(samples);
    *rows = sample_presence * filter_fraction * static_cast<double>(n);
  }
  if (*rows < 1) *rows = 1;
  return Status::OK();
}

// HLL distinct count of the key in `relation`, else the unique-key
// fallback; capped at the scan output.
double RelationKeyDistinct(const Relation& relation,
                           const std::string& encoded_path, double scan_card) {
  if (relation.has_stats()) {
    auto distinct = relation.stats().EstimateDistinctAnyType(encoded_path);
    if (distinct.has_value() && *distinct >= 1) {
      return std::min(*distinct, scan_card < 1 ? 1.0 : scan_card);
    }
  }
  // Unique-key fallback: every row has its own key value.
  return scan_card < 1 ? 1.0 : scan_card;
}

}  // namespace

Result<double> EstimateScanCardinality(const ScanSpec& spec) {
  SampleScan sample(spec);
  double rows = 0;
  if (spec.relation != nullptr) {
    JSONTILES_RETURN_NOT_OK(EstimateRelation(spec, sample, *spec.relation,
                                             spec.rowid_base, kSampleSize,
                                             &rows));
    return rows;
  }
  const storage::ShardedRelation& sharded = *spec.sharded;
  double part_rows = 0;
  // The sum of the per-shard estimates, with the sample budget split across
  // shards in proportion to their row counts (at least 8 per shard).
  const size_t total = sharded.num_rows();
  if (total == 0) return rows;
  for (size_t s = 0; s < sharded.shard_count(); s++) {
    const Relation& shard = sharded.shard(s);
    if (shard.num_rows() == 0) continue;
    const size_t share =
        std::max<size_t>(kSampleSize * shard.num_rows() / total, 8);
    JSONTILES_RETURN_NOT_OK(EstimateRelation(
        spec, sample, shard, storage::ShardedRelation::RowIdBase(s), share,
        &part_rows));
    rows += part_rows;
  }
  return std::max(rows, 1.0);
}

double EstimateJoinKeyDistinct(const ScanSpec& spec,
                               const std::string& encoded_path,
                               double scan_card) {
  if (spec.relation != nullptr) {
    return RelationKeyDistinct(*spec.relation, encoded_path, scan_card);
  }
  if (spec.sharded == nullptr) return scan_card;
  const storage::ShardedRelation& sharded = *spec.sharded;
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
    double d = RelationKeyDistinct(shard, encoded_path, shard_card);
    sum += d;
    max_one = std::max(max_one, d);
  }
  double distinct = disjoint_keys ? sum : std::max(max_one, 1.0);
  return std::min(std::max(distinct, 1.0), card);
}

}  // namespace jsontiles::opt
