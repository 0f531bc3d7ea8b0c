#include "storage/loader.h"

#include <atomic>
#include <chrono>
#include <mutex>

#include "json/ondemand.h"
#include "obs/obs.h"
#include "tiles/array_extract.h"
#include "tiles/keypath.h"
#include "tiles/reorder.h"
#include "tiles/tile_builder.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace jsontiles::storage {

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

// Every document of `relation`, in row order.
std::vector<json::JsonbValue> DocumentViews(const Relation& relation) {
  std::vector<json::JsonbValue> views;
  views.reserve(relation.num_rows());
  for (size_t r = 0; r < relation.num_rows(); r++) {
    views.push_back(relation.Jsonb(r));
  }
  return views;
}

// Work product of one partition, produced thread-locally and appended in
// partition order.
struct PartitionResult {
  std::vector<std::vector<uint8_t>> jsonb;  // permuted document order
  std::vector<tiles::Tile> tiles;           // row_begin relative to partition
  size_t moved_tuples = 0;
  // Phase seconds.
  double jsonb_secs = 0, mine_secs = 0, reorder_secs = 0, extract_secs = 0;
};

}  // namespace

Result<std::unique_ptr<Relation>> Loader::Load(
    const std::vector<std::string>& docs, const std::string& name,
    LoadBreakdown* breakdown) {
  return LoadDocs(&docs, nullptr, name, breakdown);
}

Result<std::unique_ptr<Relation>> Loader::LoadDocs(
    const std::vector<std::string>* text,
    std::vector<std::vector<uint8_t>>* jsonb, const std::string& name,
    LoadBreakdown* breakdown) {
  JSONTILES_DCHECK((text == nullptr) != (jsonb == nullptr));
  auto wall_begin = Clock::now();
  JSONTILES_TRACE_SPAN("loader.load");
  auto relation = std::make_unique<Relation>(name, mode_, config_);
  LoadBreakdown local_breakdown;
  LoadBreakdown* bd = breakdown != nullptr ? breakdown : &local_breakdown;
  *bd = LoadBreakdown{};
  const size_t num_docs = text != nullptr ? text->size() : jsonb->size();
  bd->tuples = num_docs;

  // ---------------------------------------------------------------- text --
  if (mode_ == StorageMode::kJsonText) {
    JSONTILES_DCHECK(text != nullptr);
    auto t0 = Clock::now();
    for (const auto& doc : *text) {
      relation->AppendDoc(reinterpret_cast<const uint8_t*>(doc.data()), doc.size());
    }
    bd->jsonb_secs += Seconds(t0, Clock::now());
    bd->total_wall_secs = Seconds(wall_begin, Clock::now());
    return relation;
  }

  // ------------------------------------------------ binary JSON pipeline --
  const size_t partition_docs =
      mode_ == StorageMode::kTiles ? config_.tile_size * config_.partition_size
                                   : std::max<size_t>(config_.tile_size * 8, 4096);
  const size_t num_partitions = (num_docs + partition_docs - 1) / partition_docs;
  std::vector<PartitionResult> results(num_partitions);

  // Malformed documents skipped by this load, shared across partitions. The
  // max_errors cap is checked against shared_skip_counter when set (sharded
  // loads enforce one global cap across concurrent shard loads), otherwise
  // against this load's own count; skipped_total always holds this load's
  // own skips for the breakdown.
  std::atomic<size_t> skipped_total{0};
  std::atomic<size_t>* cap_counter = options_.shared_skip_counter
                                         ? options_.shared_skip_counter
                                         : &skipped_total;

  auto process_partition = [&](size_t p) -> Status {
    JSONTILES_FAILPOINT_RETURN("loader.partition");
    JSONTILES_TRACE_SPAN("loader.partition");
    JSONTILES_COUNTER_ADD("loader.partitions_processed", 1);
    PartitionResult& result = results[p];
    size_t begin = p * partition_docs;
    size_t end = std::min(begin + partition_docs, num_docs);
    size_t count = end - begin;

    // Phase: text -> JSONB. A malformed document either aborts the load
    // (fail-fast default) or — under max_errors — is skipped and counted,
    // so one bad record cannot take down a billion-row bulk load. JSONB
    // input is stored as it is.
    //
    // Tiles: the emitter collects each document's scalar leaves during the
    // very walk that serializes it, and they are interned into the
    // partition's mining transactions right away (timed as mining), so
    // key-path collection and column materialization never re-navigate the
    // JSONB, and one reused directory holds one document's key paths at a
    // time. Items stay in original document order; after reordering each
    // tile projects them through the permutation.
    const bool tiles_mode = mode_ == StorageMode::kTiles;
    json::OndemandTransformer parser;
    json::OndemandIngest leaves;
    tiles::DocumentItems items;
    double intern_secs = 0;
    result.jsonb.reserve(count);
    auto t0 = Clock::now();
    for (size_t i = 0; i < count; i++) {
      std::vector<uint8_t> buf;
      Status st;
      if (jsonb != nullptr) {
        buf = std::move((*jsonb)[begin + i]);
        if (tiles_mode) {
          json::BuildIngestFromJsonb(json::JsonbValue(buf.data()), &leaves);
        }
      } else {
        st = parser.Transform((*text)[begin + i], &buf,
                              tiles_mode ? &leaves : nullptr);
      }
      if (!st.ok()) {
        const size_t so_far =
            cap_counter->fetch_add(1, std::memory_order_relaxed) + 1;
        if (so_far > options_.max_errors) return st;
        if (cap_counter != &skipped_total) {
          skipped_total.fetch_add(1, std::memory_order_relaxed);
        }
        JSONTILES_COUNTER_ADD("loader.docs_skipped", 1);
        continue;
      }
      result.jsonb.push_back(std::move(buf));
      if (tiles_mode) {
        auto c0 = Clock::now();
        items.AddDocument(leaves);
        intern_secs += Seconds(c0, Clock::now());
      }
    }
    count = result.jsonb.size();
    auto t1 = Clock::now();
    result.jsonb_secs += Seconds(t0, t1) - intern_secs;
    result.mine_secs += intern_secs;
    if (!tiles_mode) return Status::OK();

    // Phase: reordering within the partition (the identity when
    // partition_size is 1).
    tiles::ReorderResult reordered = tiles::ReorderPartition(items, config_);
    const std::vector<uint32_t>& permutation = reordered.permutation;
    result.moved_tuples = reordered.moved_tuples;
    if (result.moved_tuples > 0) {
      std::vector<std::vector<uint8_t>> permuted(count);
      for (size_t i = 0; i < count; i++) {
        permuted[i] = std::move(result.jsonb[permutation[i]]);
      }
      result.jsonb = std::move(permuted);
    }
    std::vector<json::JsonbValue> views;
    views.reserve(count);
    for (const auto& b : result.jsonb) views.emplace_back(b.data());
    result.reorder_secs += Seconds(t1, Clock::now());

    // Phases: per-tile mining + extraction.
    tiles::TileBuilder tile_builder(config_);
    size_t num_tiles = (count + config_.tile_size - 1) / config_.tile_size;
    for (size_t t = 0; t < num_tiles; t++) {
      size_t tile_begin = t * config_.tile_size;
      size_t tile_end = std::min(tile_begin + config_.tile_size, count);
      std::vector<uint32_t> indices;
      indices.reserve(tile_end - tile_begin);
      for (size_t i = tile_begin; i < tile_end; i++) {
        indices.push_back(permutation[i]);
      }
      auto m0 = Clock::now();
      tiles::DocumentItems tile_items = items.Project(indices);
      std::vector<mining::Itemset> itemsets = tile_builder.MineItemsets(
          tile_items, tiles::ExtractionSupport(indices.size()));
      auto m1 = Clock::now();
      result.mine_secs += Seconds(m0, m1);

      std::vector<json::JsonbValue> tile_views(views.begin() + static_cast<long>(tile_begin),
                                               views.begin() + static_cast<long>(tile_end));
      result.tiles.push_back(tile_builder.BuildFromItems(
          tile_views, tile_items, tile_begin, &itemsets));
      result.extract_secs += Seconds(m1, Clock::now());
    }
    return Status::OK();
  };

  JSONTILES_COUNTER_ADD("loader.morsels",
                        static_cast<int64_t>(num_partitions));
  if (options_.num_threads > 1 && num_partitions > 1) {
    JSONTILES_TRACE_SPAN("loader.parallel_for");
    ThreadPool pool(options_.num_threads);
    JSONTILES_RETURN_NOT_OK(pool.ParallelForStatus(
        num_partitions, [&](size_t p, size_t) { return process_partition(p); }));
  } else {
    for (size_t p = 0; p < num_partitions; p++) {
      JSONTILES_RETURN_NOT_OK(process_partition(p));
    }
  }

  // Serial phase: append in partition order; fix tile row offsets.
  for (size_t p = 0; p < num_partitions; p++) {
    PartitionResult& result = results[p];
    size_t partition_row_begin = relation->num_rows();
    auto t0 = Clock::now();
    for (const auto& buf : result.jsonb) {
      relation->AppendDoc(buf.data(), buf.size());
    }
    result.jsonb_secs += Seconds(t0, Clock::now());
    for (auto& tile : result.tiles) {
      tile.row_begin += partition_row_begin;
      relation->tiles().push_back(std::move(tile));
    }
    bd->jsonb_secs += result.jsonb_secs;
    bd->mine_secs += result.mine_secs;
    bd->reorder_secs += result.reorder_secs;
    bd->extract_secs += result.extract_secs;
    bd->moved_tuples += result.moved_tuples;
  }

  // Sinew: one global extraction over the entire table (single-threaded, as
  // in the original system).
  if (mode_ == StorageMode::kSinew && relation->num_rows() > 0) {
    auto t0 = Clock::now();
    tiles::TileConfig sinew_config = config_;
    sinew_config.enable_date_extraction = false;  // Sinew has no §4.9
    tiles::TileBuilder tile_builder(sinew_config);
    relation->tiles().push_back(
        tile_builder.Build(DocumentViews(*relation), 0));
    auto t1 = Clock::now();
    bd->mine_secs += Seconds(t0, t1) / 2;
    bd->extract_secs += Seconds(t0, t1) / 2;
  }

  // Tiles: aggregate relation statistics (§4.6).
  if (mode_ == StorageMode::kTiles) {
    for (size_t t = 0; t < relation->tiles().size(); t++) {
      const tiles::Tile& tile = relation->tiles()[t];
      std::vector<std::string> extracted;
      extracted.reserve(tile.columns.size());
      for (const auto& col : tile.columns) {
        extracted.push_back(tiles::MakeDictKey(
            col.path, static_cast<uint8_t>(col.source_type)));
      }
      relation->stats().MergeTile(static_cast<uint32_t>(t), tile.stats, extracted);
    }
    relation->stats().AddTuples(relation->num_rows());
  }

  // Tiles-*: one side relation per array path that meets the fixed rule
  // over all loaded rows (tiles/array_extract.h), exploded against the final
  // (reordered) row ids so `_rowid` names the parent row.
  if (mode_ == StorageMode::kTiles && options_.extract_arrays) {
    const std::vector<json::JsonbValue> views = DocumentViews(*relation);
    LoadOptions side_options = options_;
    side_options.extract_arrays = false;
    Loader side_loader(StorageMode::kTiles, config_, side_options);
    for (const auto& path : tiles::DetectHighCardinalityArrays(views)) {
      std::vector<std::vector<uint8_t>> side_docs;
      for (size_t r = 0; r < views.size(); r++) {
        tiles::ExplodeArray(views[r], path, static_cast<int64_t>(r), &side_docs);
      }
      auto side = side_loader.LoadDocs(
          nullptr, &side_docs, name + "$" + tiles::PathToDisplayString(path),
          nullptr);
      if (!side.ok()) return side.status();
      relation->AddSideRelation(path, side.MoveValueOrDie());
    }
  }

  bd->skipped_docs = skipped_total.load(std::memory_order_relaxed);
  bd->tuples = num_docs - bd->skipped_docs;
  bd->total_wall_secs = Seconds(wall_begin, Clock::now());
  JSONTILES_COUNTER_ADD("loader.tuples_loaded",
                        static_cast<int64_t>(bd->tuples));
  JSONTILES_HIST_RECORD("loader.load_wall_micros", bd->total_wall_secs * 1e6);
  return relation;
}

}  // namespace jsontiles::storage
