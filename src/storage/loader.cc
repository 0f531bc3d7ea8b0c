#include "storage/loader.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
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

// Seconds per load phase, summed by one worker over its tasks.
struct PhaseSecs {
  double jsonb = 0, mine = 0, reorder = 0, extract = 0;
};

// Documents copied, in row order, into one exactly sized block: the rows of
// one tile, or of a whole partition in the modes without tiles. The serial
// phase hands both to the relation (Relation::AdoptDocs) without copying.
struct StoredDocs {
  Arena block;
  std::vector<Relation::DocRef> refs;
};

// Copies the parse buffers `doc_at(0)`, ..., `doc_at(count - 1)` into one
// block in that order, freeing each buffer once it is copied.
template <typename DocAt>
StoredDocs StoreDocs(size_t count, DocAt doc_at) {
  size_t bytes = 0;
  for (size_t i = 0; i < count; i++) {
    bytes += Arena::AllocationSize(doc_at(i).size());
  }
  StoredDocs stored{Arena(bytes), {}};
  stored.refs.reserve(count);
  for (size_t i = 0; i < count; i++) {
    std::vector<uint8_t>& buf = doc_at(i);
    stored.refs.push_back(
        {stored.block.AllocateCopy(buf.data(), buf.size()), buf.size()});
    std::vector<uint8_t>().swap(buf);
  }
  return stored;
}

// One chunk of a partition's input documents, parsed and interned on its
// own: the chunk's JSONB in input order (skipped documents left out) and
// its items, ids local to the chunk.
struct Chunk {
  std::vector<std::vector<uint8_t>> jsonb;
  tiles::DocumentItems items;
};

// One partition: its chunks until they are merged, then its stored
// documents and its tiles.
struct Partition {
  size_t input = 0;            // the input (and relation) it belongs to
  size_t begin = 0, end = 0;   // its documents within the input
  std::vector<Chunk> chunks;
  std::vector<StoredDocs> stored;  // one per tile; one in all without tiles
  std::vector<tiles::Tile> tiles;  // row_begin relative to partition
  size_t moved_tuples = 0;
  // Read by the tile tasks, released after the last one. Each tile task
  // stores and frees its own rows' parse buffers.
  std::vector<std::vector<uint8_t>> jsonb;  // original document order
  tiles::DocumentItems items;               // original document order
  std::vector<uint32_t> permutation;
};

// The task graph of one load, over the partitions of every input in
// input-major, partition-major order. Each partition has three kinds of
// task: parse one of its chunks; reorder it, once every chunk is parsed
// (merge the chunks, tiles::ReorderPartition); store and build one of its
// tiles, once it is reordered. Workers take the first ready task in that
// order, so a partition's data stays hot in cache while idle workers help
// with its chunks and tiles. One worker alone runs the tasks in exactly the
// order of a serial load.
class TaskGraph {
 public:
  enum class Kind { kParse, kReorder, kTile, kDone };
  struct Task {
    Kind kind;
    size_t partition = 0;
    size_t index = 0;  // the chunk or tile within the partition
  };

  explicit TaskGraph(const std::vector<Partition>& partitions)
      : states_(partitions.size()) {
    for (size_t p = 0; p < partitions.size(); p++) {
      states_[p].num_chunks = partitions[p].chunks.size();
    }
  }

  // The first ready task. Blocks while every unclaimed task waits on one
  // that is running; kDone once none is left or after Fail.
  Task Next() {
    std::unique_lock<std::mutex> lock(mutex_);
    Task task{Kind::kDone};
    cv_.wait(lock, [&] { return Claim(&task); });
    return task;
  }

  // Records that `task` finished; a reorder task passes its partition's
  // tile count. True when this was the partition's last task.
  bool Finish(const Task& task, size_t num_tiles) {
    std::lock_guard<std::mutex> lock(mutex_);
    State& s = states_[task.partition];
    switch (task.kind) {
      case Kind::kParse:
        if (++s.chunks_done == s.num_chunks) cv_.notify_all();
        return false;
      case Kind::kReorder:
        s.reordered = true;
        s.num_tiles = num_tiles;
        cv_.notify_all();
        return num_tiles == 0;
      case Kind::kTile:
        return ++s.tiles_done == s.num_tiles;
      case Kind::kDone:
        break;
    }
    return false;
  }

  // Stops the load: every worker's next Next returns kDone. The first
  // failure's Status and partition are kept.
  void Fail(Status status, size_t partition) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!failed_) {
      failed_ = true;
      status_ = std::move(status);
      failed_partition_ = partition;
    }
    cv_.notify_all();
  }

  // The first failure, OK when none. Read once every worker has returned.
  Status status(size_t* partition) {
    std::lock_guard<std::mutex> lock(mutex_);
    *partition = failed_partition_;
    return status_;
  }

 private:
  // Claims the first ready task into `task`, or leaves it kDone when no task
  // is left or the load failed. False while every unclaimed task waits on a
  // running one. Called with mutex_ held.
  bool Claim(Task* task) {
    if (failed_) return true;
    bool blocked = false;
    for (size_t p = first_open_; p < states_.size(); p++) {
      State& s = states_[p];
      if (s.next_chunk < s.num_chunks) {
        *task = {Kind::kParse, p, s.next_chunk++};
        return true;
      }
      if (!s.reordered) {
        if (!s.reorder_claimed && s.chunks_done == s.num_chunks) {
          s.reorder_claimed = true;
          *task = {Kind::kReorder, p, 0};
          return true;
        }
        blocked = true;
      } else if (s.next_tile < s.num_tiles) {
        *task = {Kind::kTile, p, s.next_tile++};
        return true;
      } else if (p == first_open_) {
        first_open_++;  // every task of p is claimed
      }
    }
    return !blocked;
  }

  struct State {
    size_t num_chunks = 0, next_chunk = 0, chunks_done = 0;
    bool reorder_claimed = false, reordered = false;
    size_t num_tiles = 0, next_tile = 0, tiles_done = 0;
  };

  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<State> states_;
  size_t first_open_ = 0;  // every task of the partitions before it is claimed
  bool failed_ = false;
  Status status_;
  size_t failed_partition_ = 0;
};

}  // namespace

Result<std::unique_ptr<Relation>> Loader::Load(
    const std::vector<std::string>& docs, const std::string& name,
    LoadBreakdown* breakdown) {
  auto loaded = LoadDocs({Input{&docs, nullptr}}, name, breakdown);
  if (!loaded.ok()) return loaded.status();
  return std::move(loaded.ValueOrDie()[0]);
}

Result<std::vector<std::unique_ptr<Relation>>> Loader::LoadDocs(
    const std::vector<Input>& inputs, const std::string& name,
    LoadBreakdown* breakdown, size_t* failed_input) {
  auto wall_begin = Clock::now();
  JSONTILES_TRACE_SPAN("loader.load");
  size_t failed_scratch = 0;
  if (failed_input == nullptr) failed_input = &failed_scratch;
  std::vector<std::unique_ptr<Relation>> relations;
  relations.reserve(inputs.size());
  LoadBreakdown local_breakdown;
  LoadBreakdown* bd = breakdown != nullptr ? breakdown : &local_breakdown;
  *bd = LoadBreakdown{};
  size_t num_docs = 0;
  for (const Input& input : inputs) {
    JSONTILES_DCHECK((input.text == nullptr) != (input.jsonb == nullptr));
    num_docs += input.size();
    relations.push_back(std::make_unique<Relation>(name, mode_, config_));
  }
  bd->tuples = num_docs;

  // ---------------------------------------------------------------- text --
  if (mode_ == StorageMode::kJsonText) {
    auto t0 = Clock::now();
    for (size_t r = 0; r < inputs.size(); r++) {
      JSONTILES_DCHECK(inputs[r].text != nullptr);
      for (const auto& doc : *inputs[r].text) {
        relations[r]->AppendDoc(reinterpret_cast<const uint8_t*>(doc.data()),
                                doc.size());
      }
    }
    bd->jsonb_secs += Seconds(t0, Clock::now());
    bd->total_wall_secs = Seconds(wall_begin, Clock::now());
    return relations;
  }

  // ------------------------------------------------ binary JSON pipeline --
  // Chunks of tile_size input documents; a partition is a run of chunks
  // within one input.
  const bool tiles_mode = mode_ == StorageMode::kTiles;
  const size_t tile_size = config_.tile_size;
  const size_t partition_docs =
      tiles_mode ? tile_size * config_.partition_size
                 : std::max<size_t>(tile_size * 8, 4096);
  std::vector<Partition> partitions;
  size_t num_chunks = 0;
  for (size_t r = 0; r < inputs.size(); r++) {
    for (size_t begin = 0; begin < inputs[r].size(); begin += partition_docs) {
      Partition& part = partitions.emplace_back();
      part.input = r;
      part.begin = begin;
      part.end = std::min(begin + partition_docs, inputs[r].size());
      part.chunks.resize((part.end - begin + tile_size - 1) / tile_size);
      num_chunks += part.chunks.size();
    }
  }
  const size_t num_partitions = partitions.size();
  TaskGraph graph(partitions);

  // Malformed documents skipped so far, across every chunk of every input:
  // the one count the max_errors cap is checked against.
  std::atomic<size_t> skipped_total{0};

  // Task: text -> JSONB for one chunk. A malformed document either aborts
  // the load (fail-fast default) or — under max_errors — is skipped and
  // counted, so one bad record cannot take down a billion-row bulk load;
  // the skip shrinks its partition. JSONB input is stored as it is.
  //
  // Tiles: the emitter collects each document's scalar leaves during the
  // very walk that serializes it, and they are interned into the chunk's
  // mining transactions right away (timed as mining), so key-path
  // collection and column materialization never re-navigate the JSONB, and
  // the worker's one reused directory holds one document's key paths at a
  // time. Items stay in original document order; after reordering each
  // tile projects them through the permutation.
  auto parse_chunk = [&](size_t p, size_t c, json::OndemandTransformer* parser,
                         json::OndemandIngest* leaves,
                         PhaseSecs* secs) -> Status {
    JSONTILES_TRACE_SPAN("loader.parse_chunk");
    Partition& part = partitions[p];
    Chunk& chunk = part.chunks[c];
    const Input& input = inputs[part.input];
    const size_t begin = part.begin + c * tile_size;
    const size_t end = std::min(begin + tile_size, part.end);
    double intern_secs = 0;
    chunk.jsonb.reserve(end - begin);
    auto t0 = Clock::now();
    for (size_t i = begin; i < end; i++) {
      std::vector<uint8_t> buf;
      Status st;
      if (input.jsonb != nullptr) {
        buf = std::move((*input.jsonb)[i]);
        if (tiles_mode) {
          json::BuildIngestFromJsonb(json::JsonbValue(buf.data()), leaves);
        }
      } else {
        st = parser->Transform((*input.text)[i], &buf,
                               tiles_mode ? leaves : nullptr);
      }
      if (!st.ok()) {
        const size_t so_far =
            skipped_total.fetch_add(1, std::memory_order_relaxed) + 1;
        if (so_far > options_.max_errors) return st;
        JSONTILES_COUNTER_ADD("loader.docs_skipped", 1);
        continue;
      }
      chunk.jsonb.push_back(std::move(buf));
      if (tiles_mode) {
        auto c0 = Clock::now();
        chunk.items.AddDocument(*leaves);
        intern_secs += Seconds(c0, Clock::now());
      }
    }
    secs->jsonb += Seconds(t0, Clock::now()) - intern_secs;
    secs->mine += intern_secs;
    return Status::OK();
  };

  // Task: join a partition's chunks in order and, for tiles, reorder it
  // (the identity when partition_size is 1). The merged interner holds the
  // ids one pass over the partition would assign. Without tiles this task
  // fixes every row of the partition, so it stores them. Sets `num_tiles`.
  auto reorder_partition = [&](size_t p, PhaseSecs* secs,
                               size_t* num_tiles) -> Status {
    JSONTILES_FAILPOINT_RETURN("loader.partition");
    JSONTILES_TRACE_SPAN("loader.partition");
    JSONTILES_COUNTER_ADD("loader.partitions_processed", 1);
    Partition& part = partitions[p];
    auto t0 = Clock::now();
    size_t count = 0;
    for (const Chunk& chunk : part.chunks) count += chunk.jsonb.size();
    part.jsonb.reserve(count);
    for (Chunk& chunk : part.chunks) {
      for (auto& buf : chunk.jsonb) part.jsonb.push_back(std::move(buf));
      if (tiles_mode) part.items.Append(std::move(chunk.items));
    }
    std::vector<Chunk>().swap(part.chunks);
    if (!tiles_mode) {
      part.stored.push_back(
          StoreDocs(count, [&](size_t i) -> std::vector<uint8_t>& {
            return part.jsonb[i];
          }));
      std::vector<std::vector<uint8_t>>().swap(part.jsonb);
      secs->jsonb += Seconds(t0, Clock::now());
      *num_tiles = 0;
      return Status::OK();
    }

    tiles::ReorderResult reordered = tiles::ReorderPartition(part.items, config_);
    part.permutation = std::move(reordered.permutation);
    part.moved_tuples = reordered.moved_tuples;
    *num_tiles = (count + tile_size - 1) / tile_size;
    part.stored.resize(*num_tiles);
    part.tiles.resize(*num_tiles);
    secs->reorder += Seconds(t0, Clock::now());
    return Status::OK();
  };

  // Task: store, mine and extract one tile of a reordered partition. Its
  // rows are the documents the permutation puts there, copied into the
  // tile's own block; the tile is built over the copies.
  auto build_tile = [&](size_t p, size_t t, PhaseSecs* secs) {
    JSONTILES_TRACE_SPAN("loader.tile");
    Partition& part = partitions[p];
    const size_t tile_begin = t * tile_size;
    const size_t tile_end = std::min(tile_begin + tile_size, part.jsonb.size());
    const std::vector<uint32_t> indices(
        part.permutation.begin() + static_cast<long>(tile_begin),
        part.permutation.begin() + static_cast<long>(tile_end));
    auto s0 = Clock::now();
    StoredDocs& stored = part.stored[t] =
        StoreDocs(indices.size(), [&](size_t i) -> std::vector<uint8_t>& {
          return part.jsonb[indices[i]];
        });
    auto m0 = Clock::now();
    secs->jsonb += Seconds(s0, m0);
    tiles::TileBuilder tile_builder(config_);
    tiles::DocumentItems tile_items = part.items.Project(indices);
    std::vector<mining::Itemset> itemsets = tile_builder.MineItemsets(
        tile_items, tiles::ExtractionSupport(indices.size()));
    auto m1 = Clock::now();
    secs->mine += Seconds(m0, m1);
    std::vector<json::JsonbValue> tile_views;
    tile_views.reserve(stored.refs.size());
    for (const Relation::DocRef& ref : stored.refs) {
      tile_views.emplace_back(ref.data);
    }
    part.tiles[t] = tile_builder.BuildFromItems(tile_views, tile_items,
                                                tile_begin, &itemsets);
    secs->extract += Seconds(m1, Clock::now());
  };

  // The worker loop: every thread of the load, the caller included, runs it
  // until the graph is done. The first failing task stops the graph, so
  // waiting workers wake and return.
  const size_t helpers =
      options_.num_threads > 1 && num_chunks > 1 ? options_.num_threads : 0;
  std::vector<PhaseSecs> worker_secs(helpers + 1);
  auto run_worker = [&](size_t worker) {
    json::OndemandTransformer parser;
    json::OndemandIngest leaves;
    PhaseSecs* secs = &worker_secs[worker];
    for (TaskGraph::Task task = graph.Next();
         task.kind != TaskGraph::Kind::kDone; task = graph.Next()) {
      Status st;
      size_t num_tiles = 0;
      switch (task.kind) {
        case TaskGraph::Kind::kParse:
          st = parse_chunk(task.partition, task.index, &parser, &leaves, secs);
          break;
        case TaskGraph::Kind::kReorder:
          st = reorder_partition(task.partition, secs, &num_tiles);
          break;
        case TaskGraph::Kind::kTile:
          build_tile(task.partition, task.index, secs);
          break;
        case TaskGraph::Kind::kDone:
          break;
      }
      if (!st.ok()) {
        graph.Fail(std::move(st), task.partition);
        return;
      }
      if (graph.Finish(task, num_tiles)) {
        Partition& part = partitions[task.partition];
        std::vector<std::vector<uint8_t>>().swap(part.jsonb);
        part.items = tiles::DocumentItems{};
        std::vector<uint32_t>().swap(part.permutation);
      }
    }
  };

  if (helpers > 0) {
    JSONTILES_TRACE_SPAN("loader.parallel_for");
    // ThreadPool(n) runs n helpers beside the calling thread.
    ThreadPool pool(helpers);
    pool.ParallelFor(helpers + 1,
                     [&](size_t, size_t worker) { run_worker(worker); });
  } else {
    run_worker(0);
  }
  size_t failed_partition = 0;
  if (Status st = graph.status(&failed_partition); !st.ok()) {
    *failed_input = partitions[failed_partition].input;
    return st;
  }

  // Serial phase: append each partition to its input's relation in
  // partition order, handing over its stored blocks without copying a
  // document; fix tile row offsets.
  size_t num_tiles = 0;
  auto t0 = Clock::now();
  for (Partition& part : partitions) {
    Relation& relation = *relations[part.input];
    const size_t partition_row_begin = relation.num_rows();
    for (StoredDocs& stored : part.stored) {
      relation.AdoptDocs(std::move(stored.block), stored.refs);
    }
    for (auto& tile : part.tiles) {
      tile.row_begin += partition_row_begin;
      relation.tiles().push_back(std::move(tile));
    }
    num_tiles += part.tiles.size();
    bd->moved_tuples += part.moved_tuples;
  }
  bd->jsonb_secs += Seconds(t0, Clock::now());
  for (const PhaseSecs& secs : worker_secs) {
    bd->jsonb_secs += secs.jsonb;
    bd->mine_secs += secs.mine;
    bd->reorder_secs += secs.reorder;
    bd->extract_secs += secs.extract;
  }
  JSONTILES_COUNTER_ADD("loader.morsels",
                        static_cast<int64_t>(num_chunks + num_partitions + num_tiles));

  for (size_t r = 0; r < relations.size(); r++) {
    Relation& relation = *relations[r];

    // Sinew: one global extraction over the entire table (single-threaded,
    // as in the original system).
    if (mode_ == StorageMode::kSinew && relation.num_rows() > 0) {
      auto t0 = Clock::now();
      tiles::TileConfig sinew_config = config_;
      sinew_config.enable_date_extraction = false;  // Sinew has no §4.9
      tiles::TileBuilder tile_builder(sinew_config);
      relation.tiles().push_back(tile_builder.Build(DocumentViews(relation), 0));
      auto t1 = Clock::now();
      bd->mine_secs += Seconds(t0, t1) / 2;
      bd->extract_secs += Seconds(t0, t1) / 2;
    }

    // Tiles: aggregate relation statistics (§4.6).
    if (mode_ == StorageMode::kTiles) {
      for (size_t t = 0; t < relation.tiles().size(); t++) {
        const tiles::Tile& tile = relation.tiles()[t];
        std::vector<std::string> extracted;
        extracted.reserve(tile.columns.size());
        for (const auto& col : tile.columns) {
          extracted.push_back(tiles::MakeDictKey(
              col.path, static_cast<uint8_t>(col.source_type)));
        }
        relation.stats().MergeTile(static_cast<uint32_t>(t), tile.stats,
                                   extracted);
      }
      relation.stats().AddTuples(relation.num_rows());
    }

    // Tiles-*: one side relation per array path that meets the fixed rule
    // over all of the relation's rows (tiles/array_extract.h), exploded
    // against the final (reordered) row ids so `_rowid` names the parent row.
    if (mode_ == StorageMode::kTiles && options_.extract_arrays) {
      const std::vector<json::JsonbValue> views = DocumentViews(relation);
      LoadOptions side_options = options_;
      side_options.extract_arrays = false;
      Loader side_loader(StorageMode::kTiles, config_, side_options);
      for (const auto& path : tiles::DetectHighCardinalityArrays(views)) {
        std::vector<std::vector<uint8_t>> side_docs;
        for (size_t row = 0; row < views.size(); row++) {
          tiles::ExplodeArray(views[row], path, static_cast<int64_t>(row),
                              &side_docs);
        }
        auto side = side_loader.LoadDocs(
            {Input{nullptr, &side_docs}},
            name + "$" + tiles::PathToDisplayString(path), nullptr);
        if (!side.ok()) {
          *failed_input = r;
          return side.status();
        }
        relation.AddSideRelation(path, std::move(side.ValueOrDie()[0]));
      }
    }
  }

  bd->skipped_docs = skipped_total.load(std::memory_order_relaxed);
  bd->tuples = num_docs - bd->skipped_docs;
  bd->total_wall_secs = Seconds(wall_begin, Clock::now());
  JSONTILES_COUNTER_ADD("loader.tuples_loaded",
                        static_cast<int64_t>(bd->tuples));
  JSONTILES_HIST_RECORD("loader.load_wall_micros", bd->total_wall_secs * 1e6);
  return relations;
}

}  // namespace jsontiles::storage
