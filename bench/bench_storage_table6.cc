// Reproduces paper Table 6: storage consumption in MB for the JSON text, the
// binary JSONB, the additionally-materialized JSON tiles, and LZ4-compressed
// tiles (columnar chunks compress well because values of one key path are
// contiguous), plus the size of the relation file and a breakdown of the
// tile bytes by component.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "storage/serialize.h"
#include "util/lz4.h"
#include "workload/tpch.h"
#include "workload/twitter.h"
#include "workload/yelp.h"

namespace {

using namespace jsontiles;         // NOLINT
using namespace jsontiles::bench;  // NOLINT

size_t Lz4Bytes(const void* data, size_t size) {
  if (size == 0) return 0;
  return lz4::Compress(static_cast<const uint8_t*>(data), size).size();
}

template <typename T>
size_t Lz4Bytes(const std::vector<T>& v) {
  return Lz4Bytes(v.data(), v.size() * sizeof(T));
}

// Bytes of the tiles by component. Column buffers are counted as held in
// memory (and written to relation files); the stats count path frequencies
// and the in-memory HLL registers.
struct TileBreakdown {
  size_t values = 0;       // ints, floats, bools, scales
  size_t string_refs = 0;  // offsets and lengths into the documents
  size_t validity = 0;
  size_t stats = 0;
  size_t bloom = 0;
  size_t lz4 = 0;  // every column buffer compressed on its own
};

TileBreakdown Breakdown(const storage::Relation& rel) {
  TileBreakdown b;
  for (const auto& tile : rel.tiles()) {
    for (const auto& col : tile.columns) {
      const tiles::Column::Parts& p = col.column.parts();
      const size_t ints = p.ints.deltas.size() + p.lens.deltas.size();
      if (col.storage_type == tiles::ColumnType::kString) {
        b.string_refs += ints;
      } else {
        b.values += ints + p.floats.size() * sizeof(double) +
                    p.bools.size() * sizeof(uint64_t) + p.scales.size();
      }
      b.validity += p.validity.size() * sizeof(uint64_t);
      b.lz4 += Lz4Bytes(p.ints.deltas) + Lz4Bytes(p.lens.deltas) +
               Lz4Bytes(p.floats) + Lz4Bytes(p.bools) + Lz4Bytes(p.scales) +
               Lz4Bytes(p.validity);
    }
    for (const auto& [key, count] : tile.stats.path_frequencies) {
      b.stats += key.size() + sizeof(count);
    }
    for (const auto& hll : tile.stats.column_sketches) {
      b.stats += hll.SizeBytes();
    }
    b.bloom += tile.seen_paths().words().size() * sizeof(uint64_t);
  }
  return b;
}

double Mb(size_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

}  // namespace

int main(int argc, char** argv) {
  BenchObs obs(&argc, argv);
  benchmark::Initialize(&argc, argv);

  struct Workload {
    std::string name;
    std::vector<std::string> docs;
  };
  std::vector<Workload> workloads;
  {
    workload::TpchOptions options;
    options.scale_factor = TpchScaleFactor();
    workloads.push_back({"TPC-H", workload::GenerateTpch(options).combined});
  }
  {
    workload::YelpOptions options;
    options.num_business = YelpBusinesses();
    workloads.push_back({"Yelp", workload::GenerateYelp(options)});
  }
  {
    workload::TwitterOptions options;
    options.num_tweets = TwitterTweets();
    workloads.push_back({"Twitter", workload::GenerateTwitter(options)});
  }

  TablePrinter table("Table 6: storage size in MB (tiles as % of JSONB)");
  table.SetHeader({"Workload", "JSON", "JSONB", "+Tiles", "+LZ4-Tiles",
                   "JTRL file"});
  TablePrinter parts("Table 6 breakdown: tile bytes by component in MB");
  parts.SetHeader({"Workload", "Documents", "Values", "String refs",
                   "Validity", "Stats", "Bloom"});
  storage::LoadOptions load_options;
  load_options.num_threads = BenchThreads();
  for (const auto& w : workloads) {
    size_t json_bytes = 0;
    for (const auto& d : w.docs) json_bytes += d.size();

    storage::Loader jsonb_loader(storage::StorageMode::kJsonb, {}, load_options);
    auto jsonb_rel = jsonb_loader.Load(w.docs, w.name).MoveValueOrDie();
    size_t jsonb_bytes = jsonb_rel->DocumentBytes();

    storage::Loader tiles_loader(storage::StorageMode::kTiles, {}, load_options);
    auto tiles_rel = tiles_loader.Load(w.docs, w.name).MoveValueOrDie();
    size_t tile_bytes = tiles_rel->TileBytes();
    const TileBreakdown b = Breakdown(*tiles_rel);
    std::vector<uint8_t> file;
    JSONTILES_CHECK(storage::SerializeRelation(*tiles_rel, &file).ok());

    auto pct = [&](size_t bytes) {
      return Fmt(Mb(bytes), "%.1f") + " (" +
             Fmt(100.0 * static_cast<double>(bytes) /
                     static_cast<double>(jsonb_bytes),
                 "%.0f%%") +
             ")";
    };
    table.AddRow({w.name, Fmt(Mb(json_bytes), "%.1f"), Fmt(Mb(jsonb_bytes), "%.1f"),
                  pct(tile_bytes), pct(b.lz4), pct(file.size())});
    parts.AddRow({w.name, Fmt(Mb(tiles_rel->DocumentBytes()), "%.2f"),
                  Fmt(Mb(b.values), "%.2f"), Fmt(Mb(b.string_refs), "%.2f"),
                  Fmt(Mb(b.validity), "%.2f"), Fmt(Mb(b.stats), "%.2f"),
                  Fmt(Mb(b.bloom), "%.2f")});
  }
  table.Print();
  parts.Print();
  return 0;
}
