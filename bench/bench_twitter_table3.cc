// Reproduces paper Table 3 (Twitter query times, including Tiles-* with
// high-cardinality array extraction) and Table 4 (geo-mean on the standard
// vs the "Changing" schema-evolution data set).

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "tiles/keypath.h"
#include "workload/twitter.h"

namespace {

using namespace jsontiles;         // NOLINT
using namespace jsontiles::bench;  // NOLINT

struct Loaded {
  std::map<storage::StorageMode, std::unique_ptr<storage::Relation>> modes;
  std::unique_ptr<storage::Relation> tiles_star;
};

Loaded LoadTwitter(const std::vector<std::string>& docs) {
  Loaded out;
  tiles::TileConfig config;
  storage::LoadOptions load_options;
  load_options.num_threads = BenchThreads();
  out.modes = LoadAllModes(docs, "twitter", config, load_options);
  storage::LoadOptions star_options = load_options;
  star_options.extract_arrays = true;
  storage::Loader star_loader(storage::StorageMode::kTiles, config, star_options);
  out.tiles_star = star_loader.Load(docs, "twitter").MoveValueOrDie();
  return out;
}

std::map<std::string, std::vector<double>> RunAll(const Loaded& loaded,
                                                  TablePrinter* table) {
  std::map<std::string, std::vector<double>> per_mode;
  exec::ExecOptions exec_options;
  exec_options.num_threads = BenchThreads();
  for (int q = 1; q <= 5; q++) {
    std::vector<std::string> row = {workload::TwitterQueryName(q)};
    for (auto mode : AllModes()) {
      double secs = TimeBest(
          [&] {
            exec::QueryContext ctx(exec_options);
            benchmark::DoNotOptimize(
                workload::RunTwitterQuery(q, *loaded.modes.at(mode), ctx));
          },
          mode == storage::StorageMode::kJsonText ? 1 : 3);
      per_mode[storage::StorageModeName(mode)].push_back(secs);
      row.push_back(Fmt(secs));
    }
    double star_secs = TimeBest(
        [&] {
          exec::QueryContext ctx(exec_options);
          benchmark::DoNotOptimize(
              workload::RunTwitterQuery(q, *loaded.tiles_star, ctx));
        },
        3);
    per_mode["Tiles-*"].push_back(star_secs);
    row.push_back(Fmt(star_secs));
    if (table != nullptr) table->AddRow(std::move(row));
  }
  return per_mode;
}

// What the Tiles-* column measured: the side relations of one data set,
// sorted by path.
void PrintSideRelations(const char* dataset, const storage::Relation& rel) {
  std::map<std::string, size_t> sides;
  for (const auto& [path, side] : rel.side_relations()) {
    sides[tiles::PathToDisplayString(path)] = side->num_rows();
  }
  std::printf("Tiles-* side relations (%s):%s\n", dataset,
              sides.empty() ? " none" : "");
  for (const auto& [path, rows] : sides) {
    std::printf("  %-24s %zu rows\n", path.c_str(), rows);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchObs obs(&argc, argv);
  benchmark::Initialize(&argc, argv);

  workload::TwitterOptions options;
  options.num_tweets = TwitterTweets();
  auto docs = workload::GenerateTwitter(options);
  std::printf("Twitter stream records: %zu\n", docs.size());
  Loaded loaded = LoadTwitter(docs);

  TablePrinter table("Table 3: Twitter query execution times [s]");
  table.SetHeader({"Query", "JSON", "JSONB", "Sinew", "Tiles", "Tiles-*"});
  auto standard = RunAll(loaded, &table);
  table.Print();
  PrintSideRelations("Twitter", *loaded.tiles_star);

  // Table 4: geo-means on the standard and the changing-schema stream.
  workload::TwitterOptions changing = options;
  changing.changing_schema = true;
  auto changing_docs = workload::GenerateTwitter(changing);
  Loaded changing_loaded = LoadTwitter(changing_docs);
  auto changed = RunAll(changing_loaded, nullptr);

  TablePrinter table4("Table 4: Twitter geo-mean [s], standard vs changing schema");
  table4.SetHeader({"Dataset", "JSON", "JSONB", "Sinew", "Tiles", "Tiles-*"});
  auto row_for = [&](const char* label,
                     std::map<std::string, std::vector<double>>& data) {
    std::vector<std::string> row = {label};
    for (const char* mode : {"JSON", "JSONB", "Sinew", "Tiles", "Tiles-*"}) {
      row.push_back(Fmt(GeoMean(data[mode])));
    }
    return row;
  };
  table4.AddRow(row_for("Twitter", standard));
  table4.AddRow(row_for("Changing", changed));
  table4.Print();
  PrintSideRelations("Changing", *changing_loaded.tiles_star);
  return 0;
}
