// Parallel bulk loading (paper §3.2 "the tile partitioning parallelizes
// well", §6.8 Figures 16/17).
//
// A load reads one or more inputs and builds one relation per input: a plain
// load has one input, a sharded load one per shard. Each input is split into
// partitions of partition_size * tile_size documents (a partition never
// spans inputs), and each partition into chunks of tile_size documents. A
// load is one task graph over the partitions of every input, with three
// kinds of task: parse a chunk (text to binary JSON while collecting and
// interning each document's key paths), reorder a partition once all its
// chunks are parsed (merge the chunks' items, reorder the tuples within the
// partition), and store, mine and materialize one tile of a reordered
// partition. Workers take the first ready task in input-major,
// partition-major order, so a partition with more tiles than there are
// other partitions still keeps every worker busy. The task that fixes a
// document's row stores it: a tile task copies its rows into one block of
// its own and frees their parse buffers (JSONB and Sinew, which have no
// tile tasks, store a whole partition in its reorder task). A short serial
// phase then hands each partition's blocks to its input's relation in
// partition order, copying no document, so every loaded relation is
// byte-identical for every thread count and schedule.

#ifndef JSONTILES_STORAGE_LOADER_H_
#define JSONTILES_STORAGE_LOADER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/relation.h"
#include "util/status.h"

namespace jsontiles::storage {

/// Per-phase insertion time breakdown (Figure 16). With multiple threads the
/// phase times are summed CPU seconds across workers.
struct LoadBreakdown {
  double jsonb_secs = 0;    // text -> JSONB transformation + storing
  double mine_secs = 0;     // key-path collection + per-tile itemset mining
  double reorder_secs = 0;  // partition reordering (§3.2)
  double extract_secs = 0;  // column materialization + statistics
  double total_wall_secs = 0;
  size_t tuples = 0;
  size_t moved_tuples = 0;
  /// Malformed documents skipped under LoadOptions::max_errors.
  size_t skipped_docs = 0;

  double TuplesPerSecond() const {
    return total_wall_secs > 0 ? static_cast<double>(tuples) / total_wall_secs : 0;
  }
};

/// Bulk-load knobs. Every load parses text with the on-demand parser
/// (json/ondemand.h: a SIMD structural-index scan, then direct JSONB
/// emission), which falls back per document to the streaming JsonbBuilder on
/// any anomaly. The streaming parser therefore decides which documents are
/// rejected and with what Status, and accepted documents come out
/// byte-identical to its output; tests/storage/loader_ondemand_test.cc holds
/// whole loaded relations to that.
struct LoadOptions {
  /// Threads beside the caller: a load with num_threads > 1 runs on a
  /// ThreadPool of num_threads helpers plus the calling thread, so
  /// num_threads + 1 threads in all; 0 and 1 load on the caller alone.
  /// (Query contexts count differently: ExecOptions::num_threads is the
  /// total, ThreadPool(workers - 1) plus the caller.)
  size_t num_threads = 1;
  /// Degraded-mode loading: skip (and count, across all partitions and, in a
  /// sharded load, all shards) up to this many malformed documents instead
  /// of failing the whole load. The default 0 keeps fail-fast behavior: the
  /// first parse error aborts. Skipped documents are reported in
  /// LoadBreakdown::skipped_docs.
  size_t max_errors = 0;
  /// Tiles-*: extract high-cardinality arrays into side relations (§3.5).
  /// Which arrays qualify is a fixed rule (tiles/array_extract.h: the
  /// documents holding the array average at least 1.0 elements, and at
  /// least 30% of documents hold it), applied to every loaded row after the
  /// parse, so no document is parsed twice. A side document's `_rowid` is
  /// its parent's row in the relation this load returns; a shard's side rows
  /// therefore use the shard's own row space, not the global ids of
  /// ShardedRelation::RowIdBase. A side relation that fails to load fails
  /// the load.
  bool extract_arrays = false;
};

class ShardedRelation;

class Loader {
 public:
  Loader(StorageMode mode, tiles::TileConfig config, LoadOptions options = {})
      : mode_(mode), config_(config), options_(options) {}

  /// Bulk load JSON documents (one per element). On success the returned
  /// relation is fully materialized per the storage mode.
  Result<std::unique_ptr<Relation>> Load(const std::vector<std::string>& docs,
                                         const std::string& name,
                                         LoadBreakdown* breakdown = nullptr);

 private:
  friend class ShardedRelation;

  // One input of LoadDocs, loaded into its own relation. Exactly one of
  // `text` and `jsonb` is set. `jsonb` holds Tiles-* side documents
  // (tiles::ExplodeArray output): each buffer is moved into the relation as
  // it is, and its ingest directory is derived with
  // json::BuildIngestFromJsonb instead of a parse.
  struct Input {
    const std::vector<std::string>* text = nullptr;
    std::vector<std::vector<uint8_t>>* jsonb = nullptr;

    size_t size() const { return text != nullptr ? text->size() : jsonb->size(); }
  };

  // The pipeline behind Load and ShardedRelation::Load: one task graph over
  // the partitions of every input, then one relation per input, in input
  // order, each named `name`. The breakdown covers all inputs. On failure
  // `*failed_input`, when given, is the index of the input whose task or
  // relation failed.
  Result<std::vector<std::unique_ptr<Relation>>> LoadDocs(
      const std::vector<Input>& inputs, const std::string& name,
      LoadBreakdown* breakdown, size_t* failed_input = nullptr);

  StorageMode mode_;
  tiles::TileConfig config_;
  LoadOptions options_;
};

}  // namespace jsontiles::storage

#endif  // JSONTILES_STORAGE_LOADER_H_
