// Tile construction: key-path collection, frequent itemset mining, column
// extraction and statistics gathering (paper §3.1, §3.3, §3.4, §4.6, §4.9).

#ifndef JSONTILES_TILES_TILE_BUILDER_H_
#define JSONTILES_TILES_TILE_BUILDER_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "json/jsonb.h"
#include "json/ondemand.h"
#include "mining/fpgrowth.h"
#include "tiles/keypath.h"
#include "tiles/tile.h"
#include "tiles/tile_config.h"

namespace jsontiles::tiles {

/// Dictionary-encoded key-path items for a chunk of documents: the database
/// that itemset mining runs on (§3.3) and the raw material of reordering
/// (§3.2). Item ids are dense and local to the chunk, assigned in first-seen
/// order.
struct DocumentItems {
  std::vector<std::string> dict;  // item id -> dict key (path + type byte)
  std::unordered_map<std::string, mining::Item, StringKeyHash, std::equal_to<>>
      ids;
  std::vector<mining::Transaction> transactions;  // one per document
  std::vector<uint32_t> item_counts;              // item id -> frequency
  /// Where each transaction item's value starts within its document's JSONB:
  /// document d's offsets begin at value_offsets[value_begin[d]], parallel to
  /// transactions[d]. Column materialization reads values there instead of
  /// re-navigating the document per extracted path.
  std::vector<uint32_t> value_offsets;
  std::vector<size_t> value_begin;
  /// Interner memo: successors[i + 1] is the item that last followed item i
  /// within a document, successors[0] the item a document last began with.
  std::vector<mining::Item> successors;
  static constexpr mining::Item kNoItem = 0xFFFFFFFF;

  /// The interner: append one document's scalar leaves (in the order the
  /// on-demand emitter or json::BuildIngestFromJsonb collect them) as the
  /// next transaction. Only the leaves' value offsets are kept,
  /// so the caller can reuse `leaves` for the next document.
  void AddDocument(const json::OndemandIngest& leaves);

  /// Append another interner's documents as the next transactions, with
  /// exactly the ids, counts and offsets that passing each of them to
  /// AddDocument here would give: `chunk`'s items are taken in its own id
  /// (first-seen) order, and each one new to this interner gets the next
  /// id. This lets a bulk load intern chunks of a partition concurrently and
  /// join them in order. The merged interner may take further AddDocument
  /// calls: `successors` is resized to the merged dictionary, and a stale
  /// guess there only costs the hash probe it would have saved.
  void Append(DocumentItems&& chunk);

  const uint32_t* ValueOffsets(size_t doc) const {
    return value_offsets.data() + value_begin[doc];
  }

  /// Restrict to a subset of the documents (used per tile after reordering).
  /// The projection shares the dictionary but not `ids`: it is mined and
  /// extracted, never interned into.
  DocumentItems Project(const std::vector<uint32_t>& doc_indices) const;
};

/// Intern already-serialized documents: each one's leaves are derived from
/// its JSONB (json::BuildIngestFromJsonb) and fed to AddDocument.
DocumentItems ItemsFromJsonb(const std::vector<json::JsonbValue>& docs);

/// Builds one tile from `tile_size` (or fewer) documents.
class TileBuilder {
 public:
  explicit TileBuilder(const TileConfig& config) : config_(config) {}

  /// Full pipeline: collect, mine, extract, materialize.
  Tile Build(const std::vector<json::JsonbValue>& docs, size_t row_begin) const;

  /// Same but with pre-collected items (avoids re-collection after
  /// reordering). `items.transactions` must be parallel to `docs`, and the
  /// value offsets must point into those documents. When `premined` is
  /// non-null it is used instead of mining again (the loader times the
  /// mining phase separately, Fig 16).
  Tile BuildFromItems(const std::vector<json::JsonbValue>& docs,
                      const DocumentItems& items, size_t row_begin,
                      const std::vector<mining::Itemset>* premined = nullptr) const;

  /// The set of frequent itemsets for a chunk, at an explicit support count
  /// (used by reordering with the reduced threshold).
  std::vector<mining::Itemset> MineItemsets(const DocumentItems& items,
                                            uint32_t min_support) const;

 private:
  TileConfig config_;
};

/// Map a JSON leaf type to its relational storage type.
ColumnType StorageTypeFor(json::JsonType type);

}  // namespace jsontiles::tiles

#endif  // JSONTILES_TILES_TILE_BUILDER_H_
