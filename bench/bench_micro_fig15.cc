// Reproduces paper Figure 15 and Table 5: the micro benchmark that sums the
// lineitem `l_linenumber` field — the best case for a global extractor — on
// the original lineitem table ("Only") and on combined TPC-H ("Comb."),
// plus a native relational baseline (a plain int64 column), with per-tuple
// hardware counters where the kernel permits perf_event_open.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "exec/operators.h"
#include "opt/query.h"
#include "tiles/keypath.h"
#include "util/perf_counters.h"
#include "workload/tpch.h"

namespace {

using namespace jsontiles;         // NOLINT
using namespace jsontiles::bench;  // NOLINT

int64_t RunSum(const storage::Relation& rel) {
  exec::QueryContext ctx;
  opt::QueryBlock q;
  q.AddTable(opt::TableRef::Rel(
      "l", &rel, nullptr));  // SUM ignores non-lineitem rows (null field)
  q.GroupBy({});
  q.Aggregate(exec::AggSpec::Sum(
      exec::Access("l", {"l_linenumber"}, exec::ValueType::kInt)));
  return opt::ScalarResult(q.Execute(ctx)).int_value();
}

}  // namespace

int main(int argc, char** argv) {
  BenchObs obs(&argc, argv);
  benchmark::Initialize(&argc, argv);

  workload::TpchOptions options;
  options.scale_factor = TpchScaleFactor();
  workload::TpchData data = workload::GenerateTpch(options);
  const double tuples = static_cast<double>(data.num_lineitem);

  tiles::TileConfig config;
  storage::LoadOptions load_options;
  load_options.num_threads = BenchThreads();
  auto combined = LoadAllModes(data.combined, "comb", config, load_options);
  std::map<storage::StorageMode, std::unique_ptr<storage::Relation>> only;
  for (auto mode :
       {storage::StorageMode::kSinew, storage::StorageMode::kTiles}) {
    storage::Loader loader(mode, config, load_options);
    only[mode] = loader.Load(data.lineitem_only, "only").MoveValueOrDie();
  }

  // Native relational baseline: the extracted column as a plain vector.
  std::vector<int64_t> relational_column;
  relational_column.reserve(data.num_lineitem);
  {
    const auto& rel = *only[storage::StorageMode::kTiles];
    for (const auto& tile : rel.tiles()) {
      std::string path;
      tiles::AppendKeySegment(&path, "l_linenumber");
      const auto* col = tile.FindColumn(path);
      const size_t begin = relational_column.size();
      relational_column.resize(begin + tile.row_count);
      col->column.ReadInts(0, tile.row_count, relational_column.data() + begin);
    }
  }
  auto relational_sum = [&]() {
    int64_t sum = 0;
    for (int64_t v : relational_column) sum += v;
    return sum;
  };

  struct Variant {
    std::string name;
    std::function<int64_t()> run;
  };
  std::vector<Variant> variants = {
      {"Relational", [&] { return relational_sum(); }},
      {"JSON Comb.",
       [&] { return RunSum(*combined[storage::StorageMode::kJsonText]); }},
      {"JSONB Comb.",
       [&] { return RunSum(*combined[storage::StorageMode::kJsonb]); }},
      {"Sinew Only",
       [&] { return RunSum(*only[storage::StorageMode::kSinew]); }},
      {"Sinew Comb.",
       [&] { return RunSum(*combined[storage::StorageMode::kSinew]); }},
      {"Tiles Only",
       [&] { return RunSum(*only[storage::StorageMode::kTiles]); }},
      {"Tiles Comb.",
       [&] { return RunSum(*combined[storage::StorageMode::kTiles]); }},
  };

  // Correctness cross-check before timing.
  int64_t expected = variants[0].run();
  for (auto& v : variants) {
    int64_t got = v.run();
    if (got != expected) {
      std::fprintf(stderr, "MISMATCH %s: %lld vs %lld\n", v.name.c_str(),
                   static_cast<long long>(got), static_cast<long long>(expected));
      return 1;
    }
  }

  TablePrinter fig("Figure 15: summation query throughput [queries/sec]");
  fig.SetHeader({"Variant", "queries/sec", "sec/query"});
  TablePrinter tbl("Table 5: per-tuple performance counters (summation query)");
  tbl.SetHeader({"System", "Cycles", "Instr.", "Branch-M", "L1-Miss", "Sec/All"});

  PerfCounters counters;
  if (!counters.available()) {
    std::printf("(perf_event_open unavailable: hardware counters reported as n/a)\n");
  }
  for (auto& v : variants) {
    int reps = v.name == "JSON Comb." ? 1 : 5;
    double secs = TimeBest([&] { benchmark::DoNotOptimize(v.run()); }, reps);
    fig.AddRow({v.name, Fmt(1.0 / secs, "%.1f"), Fmt(secs, "%.6f")});

    counters.Start();
    benchmark::DoNotOptimize(v.run());
    PerfSample sample = counters.Stop();
    if (sample.valid) {
      tbl.AddRow({v.name, Fmt(static_cast<double>(sample.cycles) / tuples, "%.2f"),
                  Fmt(static_cast<double>(sample.instructions) / tuples, "%.2f"),
                  Fmt(static_cast<double>(sample.branch_misses) / tuples, "%.3f"),
                  Fmt(static_cast<double>(sample.l1d_misses) / tuples, "%.3f"),
                  Fmt(secs, "%.6f")});
    } else {
      tbl.AddRow({v.name, "n/a", "n/a", "n/a", "n/a", Fmt(secs, "%.6f")});
    }
  }
  fig.Print();
  tbl.Print();
  return 0;
}
