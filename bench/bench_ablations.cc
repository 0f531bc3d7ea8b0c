// Ablation benchmarks beyond the paper's figures (DESIGN.md §5):
//   A. FP-Growth vs Apriori mining cost (validates the §3.3 choice)
//   B. Itemset budget sweep (Eq. 1): mining time vs extraction coverage
//   C. Reordering on Figure-3-style type-interleaved data: extraction
//      coverage and query speed before/after
//   D. JSONB O(log n) object lookup vs BSON linear scan as objects widen;
//      the scan's batch fallback (ExtractJsonbPathBatch) over the
//      combined-TPC-H tile with the fewest extracted columns
//   F. Exchange frame cost per row: row-batch encode, framing, frame decode
//      and row-batch decode over one lineitem-shard scan, with LZ4 of the
//      same payloads as the reference the dist wire no longer pays

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "dist/wire.h"
#include "exec/operators.h"
#include "exec/scan.h"
#include "exec/vector_batch.h"
#include "json/bson.h"
#include "json/jsonb.h"
#include "mining/apriori.h"
#include "mining/fpgrowth.h"
#include "opt/query.h"
#include "storage/shard.h"
#include "tiles/keypath.h"
#include "tiles/tile_builder.h"
#include "util/lz4.h"
#include "util/random.h"
#include "util/rle.h"
#include "workload/hackernews.h"
#include "workload/tpch.h"

namespace {

using namespace jsontiles;         // NOLINT
using namespace jsontiles::bench;  // NOLINT

std::vector<mining::Transaction> MakeTransactions(size_t n, int num_items,
                                                  uint64_t seed) {
  Random rng(seed);
  std::vector<mining::Transaction> txs;
  for (size_t i = 0; i < n; i++) {
    mining::Transaction tx;
    for (int item = 0; item < num_items; item++) {
      double p = item < num_items / 2 ? 0.8 : 0.3;
      if (rng.Chance(p)) tx.push_back(static_cast<mining::Item>(item));
    }
    txs.push_back(std::move(tx));
  }
  return txs;
}

}  // namespace

int main(int argc, char** argv) {
  BenchObs obs(&argc, argv);
  benchmark::Initialize(&argc, argv);

  // --- A: FP-Growth vs Apriori -------------------------------------------
  {
    TablePrinter t("Ablation A: miner runtime [ms], 1024 transactions");
    t.SetHeader({"Items", "FP-Growth", "Apriori", "speedup"});
    for (int items : {8, 12, 16, 20}) {
      auto txs = MakeTransactions(1024, items, 7);
      uint32_t min_support = 614;  // 60%
      mining::FpGrowthMiner fp;
      mining::MinerOptions options;
      options.min_support = min_support;
      options.budget = 1 << 20;
      double fp_secs = TimeBest([&] {
        benchmark::DoNotOptimize(fp.Mine(txs, options));
      });
      mining::AprioriMiner ap;
      double ap_secs = TimeBest([&] {
        benchmark::DoNotOptimize(ap.Mine(txs, min_support, items));
      });
      t.AddRow({std::to_string(items), Fmt(fp_secs * 1000, "%.3f"),
                Fmt(ap_secs * 1000, "%.3f"), Fmt(ap_secs / fp_secs, "%.1fx")});
    }
    t.Print();
  }

  // --- B: itemset budget sweep (Eq. 1) ------------------------------------
  {
    TablePrinter t("Ablation B: budget u vs max itemset size k and mining time");
    t.SetHeader({"Budget", "k (n=20)", "itemsets", "time [ms]"});
    auto txs = MakeTransactions(1024, 20, 9);
    for (uint64_t budget : {16ULL, 256ULL, 4096ULL, 65536ULL, 1048576ULL}) {
      mining::FpGrowthMiner fp;
      mining::MinerOptions options;
      options.min_support = 300;
      options.budget = budget;
      auto result = fp.Mine(txs, options);
      double secs = TimeBest([&] { benchmark::DoNotOptimize(fp.Mine(txs, options)); });
      t.AddRow({std::to_string(budget),
                std::to_string(mining::MaxItemsetSize(20, budget)),
                std::to_string(result.size()), Fmt(secs * 1000, "%.3f")});
    }
    t.Print();
  }

  // --- C: reordering on type-interleaved news items ------------------------
  {
    workload::HackerNewsOptions options;
    options.num_items = 32768;
    auto docs = workload::GenerateHackerNews(options);
    TablePrinter t("Ablation C: reordering on interleaved news items (Fig 3/4)");
    t.SetHeader({"Reordering", "columns extracted", "load [s]", "geo-mean query [s]"});
    for (bool reorder : {false, true}) {
      tiles::TileConfig config;
      if (!reorder) config.partition_size = 1;
      storage::LoadOptions load_options;
      load_options.num_threads = BenchThreads();
      storage::Loader loader(storage::StorageMode::kTiles, config, load_options);
      storage::LoadBreakdown b;
      auto rel = loader.Load(docs, "hn", &b).MoveValueOrDie();
      size_t columns = 0;
      for (const auto& tile : rel->tiles()) columns += tile.columns.size();
      // Queries: per-type aggregates (score by type; comment count by parent).
      exec::ExecOptions exec_options;
      exec_options.num_threads = BenchThreads();
      std::vector<double> times;
      times.push_back(TimeBest([&] {
        exec::QueryContext ctx(exec_options);
        opt::QueryBlock q;
        q.AddTable(opt::TableRef::Rel(
            "s", rel.get(),
            exec::IsNotNull(exec::Access("s", {"url"}, exec::ValueType::kString))));
        q.GroupBy({exec::Access("s", {"type"}, exec::ValueType::kString)});
        q.Aggregate(exec::AggSpec::Avg(
            exec::Access("s", {"score"}, exec::ValueType::kInt)));
        benchmark::DoNotOptimize(q.Execute(ctx));
      }, 3));
      times.push_back(TimeBest([&] {
        exec::QueryContext ctx(exec_options);
        opt::QueryBlock q;
        q.AddTable(opt::TableRef::Rel(
            "c", rel.get(),
            exec::IsNotNull(exec::Access("c", {"parent"}, exec::ValueType::kInt))));
        q.GroupBy({});
        q.Aggregate(exec::AggSpec::CountStar());
        q.Aggregate(exec::AggSpec::CountDistinct(
            exec::Access("c", {"parent"}, exec::ValueType::kInt)));
        benchmark::DoNotOptimize(q.Execute(ctx));
      }, 3));
      t.AddRow({reorder ? "on" : "off", std::to_string(columns),
                Fmt(b.total_wall_secs, "%.2f"), Fmt(GeoMean(times))});
    }
    t.Print();
  }

  // --- E: reordering improves RLE compression (§3.3) -----------------------
  {
    workload::HackerNewsOptions options;
    options.num_items = 32768;
    auto docs = workload::GenerateHackerNews(options);
    TablePrinter t("Ablation E: RLE on int columns, with/without reordering");
    t.SetHeader(
        {"Reordering", "runs", "RLE bytes", "raw bytes", "packed bytes"});
    for (bool reorder : {false, true}) {
      tiles::TileConfig config;
      if (!reorder) config.partition_size = 1;
      storage::Loader loader(storage::StorageMode::kTiles, config);
      auto rel = loader.Load(docs, "hn").MoveValueOrDie();
      size_t runs = 0, rle_bytes = 0, raw_bytes = 0, packed_bytes = 0;
      std::vector<int64_t> data;
      for (const auto& tile : rel->tiles()) {
        for (const auto& col : tile.columns) {
          if (col.storage_type != tiles::ColumnType::kInt64 &&
              col.storage_type != tiles::ColumnType::kTimestamp) {
            continue;
          }
          data.resize(col.column.size());
          col.column.ReadInts(0, data.size(), data.data());
          runs += rle::CountRuns(data.data(), data.size());
          rle_bytes += rle::EncodedSizeInt64(data.data(), data.size());
          raw_bytes += data.size() * sizeof(int64_t);
          packed_bytes += col.column.parts().ints.deltas.size();
        }
      }
      t.AddRow({reorder ? "on" : "off", std::to_string(runs),
                std::to_string(rle_bytes), std::to_string(raw_bytes),
                std::to_string(packed_bytes)});
    }
    t.Print();
  }

  // --- D: object lookup complexity ------------------------------------------
  {
    TablePrinter t("Ablation D: member lookup [ns] vs object width");
    t.SetHeader({"Members", "JSONB O(log n)", "BSON O(n)"});
    Random rng(3);
    for (size_t width : {4, 16, 64, 256, 1024}) {
      std::string text = "{";
      std::vector<std::string> keys;
      for (size_t i = 0; i < width; i++) {
        keys.push_back("key_" + std::to_string(i) + "_" + rng.NextString(4, 8));
        if (i) text += ",";
        text += "\"" + keys.back() + "\":" + std::to_string(i);
      }
      text += "}";
      auto jsonb = json::JsonbFromText(text).MoveValueOrDie();
      json::JsonValue dom = json::ParseJson(text).ValueOrDie();
      std::vector<uint8_t> bson;
      (void)json::bson::Encode(dom, &bson);
      const int kLookups = 2000;
      double jsonb_secs = TimeBest([&] {
        json::JsonbValue v(jsonb.data());
        for (int i = 0; i < kLookups; i++) {
          benchmark::DoNotOptimize(v.FindKey(keys[static_cast<size_t>(i) % width]));
        }
      });
      double bson_secs = TimeBest([&] {
        for (int i = 0; i < kLookups; i++) {
          uint8_t type;
          const uint8_t* payload;
          size_t payload_size;
          benchmark::DoNotOptimize(
              json::bson::FindField(bson.data(), bson.size(),
                                    keys[static_cast<size_t>(i) % width], &type,
                                    &payload, &payload_size));
        }
      });
      t.AddRow({std::to_string(width), Fmt(jsonb_secs / kLookups * 1e9, "%.0f"),
                Fmt(bson_secs / kLookups * 1e9, "%.0f")});
    }

    // The scan's batch fallback over the tile of combined TPC-H (SF 0.005,
    // the e2e benchmark's data) with the fewest extracted columns: reordering
    // leaves such tiles mixing lineitem and orders rows. ns per lane over
    // three paths the TPC-H queries read.
    workload::TpchOptions tpch;
    tpch.scale_factor = 0.005;
    tpch.seed += 1;
    auto rel = storage::Loader(storage::StorageMode::kTiles, {})
                   .Load(workload::GenerateTpch(tpch).combined, "tpch")
                   .MoveValueOrDie();
    const tiles::Tile* mixed = &rel->tiles().front();
    for (const tiles::Tile& tile : rel->tiles()) {
      if (tile.columns.size() < mixed->columns.size() ||
          (tile.columns.size() == mixed->columns.size() &&
           tile.row_count > mixed->row_count)) {
        mixed = &tile;
      }
    }
    struct BatchPath {
      const char* key;
      exec::ValueType type;
    };
    const BatchPath batch_paths[] = {{"l_shipmode", exec::ValueType::kString},
                                     {"o_orderpriority", exec::ValueType::kString},
                                     {"l_quantity", exec::ValueType::kInt}};
    std::vector<const uint8_t*> docs(exec::kVectorSize);
    std::vector<uint16_t> lanes(exec::kVectorSize);
    for (size_t i = 0; i < lanes.size(); i++) lanes[i] = static_cast<uint16_t>(i);
    Arena arena;
    exec::ColumnVector vec;
    constexpr int kPasses = 20;
    double batch_secs = TimeBest([&] {
      for (int pass = 0; pass < kPasses; pass++) {
        for (const BatchPath& bp : batch_paths) {
          std::string path;
          tiles::AppendKeySegment(&path, bp.key);
          const std::vector<json::PathStep> steps = tiles::DecodePathSteps(path);
          for (size_t b = 0; b < mixed->row_count; b += exec::kVectorSize) {
            const size_t n = std::min(exec::kVectorSize, mixed->row_count - b);
            for (size_t k = 0; k < n; k++) {
              docs[k] = rel->Jsonb(mixed->row_begin + b + k).data();
            }
            vec.Reset(bp.type);
            exec::ExtractJsonbPathBatch(docs.data(), lanes.data(), n,
                                        steps.data(), steps.size(), bp.type,
                                        &arena, &vec);
            benchmark::DoNotOptimize(vec.nulls());
            benchmark::ClobberMemory();
          }
        }
      }
    });
    const double batch_lanes =
        static_cast<double>(kPasses * std::size(batch_paths) * mixed->row_count);
    t.AddRow({"TPC-H tile, " + std::to_string(mixed->row_count) + " rows, " +
                  std::to_string(mixed->columns.size()) + " cols (batch)",
              Fmt(batch_secs / batch_lanes * 1e9, "%.1f"), "-"});
    t.Print();
  }

  // --- F: exchange frame cost ------------------------------------------------
  {
    // One dist worker's scan fragment: shard 0 of 4 of combined TPC-H (SF
    // 0.005, the e2e benchmark's data), lineitem rows with Q9's lineitem
    // accesses. Batches are cut at the worker's ~256 KiB of payload.
    workload::TpchOptions tpch;
    tpch.scale_factor = 0.005;
    tpch.seed += 1;
    storage::ShardOptions shard_options;
    shard_options.shard_count = 4;
    auto sharded = storage::ShardedRelation::Load(
                       workload::GenerateTpch(tpch).combined, "tpch",
                       storage::StorageMode::kTiles, {}, {}, shard_options)
                       .MoveValueOrDie();
    exec::ScanSpec spec;
    spec.relation = &sharded->shard(0);
    spec.table_alias = "l";
    for (const char* key : {"l_orderkey", "l_partkey", "l_suppkey",
                            "l_quantity"}) {
      spec.accesses.push_back(exec::Access("l", {key}, exec::ValueType::kInt));
    }
    for (const char* key : {"l_extendedprice", "l_discount"}) {
      spec.accesses.push_back(
          exec::Access("l", {key}, exec::ValueType::kFloat));
    }
    spec.filter = exec::IsNotNull(exec::Slot(0));
    exec::QueryContext scan_ctx;
    const exec::RowSet rows = exec::ScanExec(spec, scan_ctx);

    std::vector<uint8_t> whole;
    dist::EncodeRowBatch(0, 0, rows, 0, rows.size(), &whole);
    const size_t rows_per_batch =
        std::max<size_t>(1, (size_t{256} << 10) * rows.size() /
                                std::max<size_t>(1, whole.size()));
    auto batch_end = [&](size_t b) {
      return std::min(rows.size(), b + rows_per_batch);
    };
    std::vector<std::vector<uint8_t>> payloads, frames, comps;
    for (size_t b = 0; b < rows.size(); b += rows_per_batch) {
      payloads.emplace_back();
      dist::EncodeRowBatch(0, 0, rows, b, batch_end(b), &payloads.back());
      frames.emplace_back();
      dist::AppendFrame(dist::FrameType::kRowBatch, payloads.back(),
                        &frames.back());
      comps.push_back(lz4::Compress(payloads.back().data(),
                                    payloads.back().size()));
    }
    size_t payload_bytes = 0, comp_bytes = 0;
    for (size_t i = 0; i < payloads.size(); i++) {
      payload_bytes += payloads[i].size();
      comp_bytes += comps[i].size();
    }

    constexpr int kRuns = 51;
    std::vector<uint8_t> scratch;
    const double encode = TimeMedian([&] {
      for (size_t b = 0; b < rows.size(); b += rows_per_batch) {
        scratch.clear();
        dist::EncodeRowBatch(0, 0, rows, b, batch_end(b), &scratch);
        benchmark::DoNotOptimize(scratch.data());
      }
    }, kRuns);
    const double append = TimeMedian([&] {
      for (const auto& payload : payloads) {
        scratch.clear();
        dist::AppendFrame(dist::FrameType::kRowBatch, payload, &scratch);
        benchmark::DoNotOptimize(scratch.data());
      }
    }, kRuns);
    const double decode_frame = TimeMedian([&] {
      for (const auto& frame : frames) {
        size_t consumed;
        dist::FrameType type;
        JSONTILES_CHECK(dist::DecodeFrame(frame.data(), frame.size(),
                                          &consumed, &type, &scratch)
                            .ok());
        benchmark::DoNotOptimize(scratch.data());
      }
    }, kRuns);
    const double decode_rows = TimeMedian([&] {
      Arena arena;
      for (const auto& payload : payloads) {
        uint32_t id, epoch;
        exec::RowSet batch;
        JSONTILES_CHECK(
            dist::DecodeRowBatch(payload, &arena, &id, &epoch, &batch).ok());
        benchmark::DoNotOptimize(batch.size());
      }
    }, kRuns);
    const double compress = TimeMedian([&] {
      for (const auto& payload : payloads) {
        benchmark::DoNotOptimize(
            lz4::Compress(payload.data(), payload.size()).data());
      }
    }, kRuns);
    const double decompress = TimeMedian([&] {
      for (size_t i = 0; i < payloads.size(); i++) {
        scratch.resize(payloads[i].size());
        JSONTILES_CHECK(lz4::Decompress(comps[i].data(), comps[i].size(),
                                        scratch.data(), scratch.size()));
        benchmark::DoNotOptimize(scratch.data());
      }
    }, kRuns);

    TablePrinter t("Ablation F: exchange frame cost [ns/row]");
    t.SetHeader({"Stage", "ns/row", "us/frame"});
    const double n_rows = static_cast<double>(std::max<size_t>(1, rows.size()));
    const double n_frames =
        static_cast<double>(std::max<size_t>(1, frames.size()));
    auto add = [&](const char* stage, double secs) {
      t.AddRow({stage, Fmt(secs / n_rows * 1e9, "%.1f"),
                Fmt(secs / n_frames * 1e6, "%.1f")});
    };
    add("EncodeRowBatch (worker)", encode);
    add("AppendFrame (worker)", append);
    add("DecodeFrame (coordinator)", decode_frame);
    add("DecodeRowBatch (coordinator)", decode_rows);
    add("lz4::Compress (reference)", compress);
    add("lz4::Decompress (reference)", decompress);
    t.Print();
    std::printf("%zu rows, %zu frames, %.1f bytes/row, LZ4 ratio %.2fx\n",
                rows.size(), frames.size(),
                static_cast<double>(payload_bytes) / n_rows,
                static_cast<double>(payload_bytes) /
                    static_cast<double>(std::max<size_t>(1, comp_bytes)));
  }
  return 0;
}
