// Micro benchmark of the vectorized engine's SIMD kernels against the scalar
// code production runs without them. Each row times one production path
// twice, with the SIMD switch on and then off (simd::SetEnabled), so the
// scalar column is exactly what a CPU without AVX2, or --no-simd, runs:
//   compare / arith        CompiledExpr::Run over a dense batch; off runs
//                          the gather loops of expr_kernels.cc
//   hash join keys         the batched hash kernels against the per-Value
//                          HashCombine chain of BatchedExprs::HashKeys
//   intersect selection    IntersectSelection at 1%, 50% and 99% of lanes
//                          passing
//   jsonb path extract     the batched binary-JSON path accessor against its
//                          per-document predecessor (no switch involved)
// On a CPU without AVX2 the simd column of the switch rows is not measured.

#include <benchmark/benchmark.h>

#include <random>

#include "bench_common.h"
#include "exec/batched_exprs.h"
#include "exec/expr_compile.h"
#include "exec/scan.h"
#include "exec/simd.h"
#include "exec/vector_batch.h"
#include "json/jsonb.h"
#include "tiles/keypath.h"
#include "util/hash.h"

namespace {

using namespace jsontiles;         // NOLINT
using namespace jsontiles::bench;  // NOLINT

constexpr size_t kLanes = exec::kVectorSize;
constexpr size_t kBatches = 4000;  // lanes measured per run = kLanes * kBatches

struct KernelRow {
  std::string name;
  double scalar_ns = 0;  // ns per lane, SIMD disabled
  double simd_ns = 0;    // ns per lane, SIMD enabled (0: no AVX2)
};

/// Best-of-5 ns/lane of `fn` run kBatches times per measurement.
template <typename Fn>
double NsPerLane(Fn&& fn) {
  const double secs = TimeBest(
      [&] {
        for (size_t i = 0; i < kBatches; i++) fn();
      },
      5);
  return secs / static_cast<double>(kBatches * kLanes) * 1e9;
}

/// `fn` timed with the SIMD switch on (when the CPU has AVX2), then off.
template <typename Fn>
KernelRow Measure(std::string name, Fn&& fn) {
  KernelRow row;
  row.name = std::move(name);
  exec::simd::SetEnabled(true);
  if (exec::simd::UseSimd()) row.simd_ns = NsPerLane(fn);
  exec::simd::SetEnabled(false);
  row.scalar_ns = NsPerLane(fn);
  exec::simd::SetEnabled(true);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  BenchObs obs(&argc, argv);
  benchmark::Initialize(&argc, argv);

  std::printf("simd: active_isa=%s\n", exec::simd::ActiveIsa());

  // Shared inputs: full batches with ~10% nulls, like a permissive filter.
  std::mt19937_64 rng(20260805);
  std::vector<int64_t> a(kLanes), b(kLanes);
  std::vector<double> fa(kLanes), fb(kLanes);
  std::vector<uint8_t> an(kLanes), bn(kLanes);
  for (size_t i = 0; i < kLanes; i++) {
    a[i] = static_cast<int64_t>(rng() % 100000);
    b[i] = static_cast<int64_t>(rng() % 100000);
    fa[i] = static_cast<double>(a[i]) * 0.25;
    fb[i] = static_cast<double>(b[i]) * 0.5;
    an[i] = rng() % 10 == 0;
    bn[i] = rng() % 10 == 0;
  }
  std::vector<uint64_t> hashes(kLanes), acc(kLanes);

  std::vector<KernelRow> rows;

  // Compare and arith rows: one compiled program over a dense batch of
  // int (slots 0, 1) and float (slots 2, 3) lanes.
  const std::vector<exec::ValueType> slot_types = {
      exec::ValueType::kInt, exec::ValueType::kInt, exec::ValueType::kFloat,
      exec::ValueType::kFloat};
  std::vector<exec::ColumnVector> slots(slot_types.size());
  for (size_t s = 0; s < slots.size(); s++) slots[s].Reset(slot_types[s]);
  for (size_t i = 0; i < kLanes; i++) {
    slots[0].SetValue(i, an[i] ? exec::Value::Null() : exec::Value::Int(a[i]));
    slots[1].SetValue(i, bn[i] ? exec::Value::Null() : exec::Value::Int(b[i]));
    slots[2].SetValue(i,
                      an[i] ? exec::Value::Null() : exec::Value::Float(fa[i]));
    slots[3].SetValue(i,
                      bn[i] ? exec::Value::Null() : exec::Value::Float(fb[i]));
  }
  exec::SelectionVector dense;
  dense.SetAll(kLanes);
  Arena arena;
  const struct {
    const char* name;
    exec::ExprPtr expr;
  } programs[] = {
      {"compare i64<i64", exec::Lt(exec::Slot(0), exec::Slot(1))},
      {"compare f64<=f64", exec::Le(exec::Slot(2), exec::Slot(3))},
      {"arith i64*i64", exec::Mul(exec::Slot(0), exec::Slot(1))},
      {"arith f64/f64", exec::Div(exec::Slot(2), exec::Slot(3))},
  };
  for (const auto& p : programs) {
    exec::CompiledExpr program;
    if (!exec::CompiledExpr::Compile(*p.expr, slot_types, &program)) {
      std::fprintf(stderr, "%s does not compile\n", p.name);
      return 1;
    }
    rows.push_back(Measure(p.name, [&] {
      benchmark::DoNotOptimize(&program.Run(slots.data(), dense, &arena));
    }));
  }

  // Join-build key hashing: the batched kernels against the per-Value path
  // HashKeys runs without them (materialize a Value, Hash, fold).
  constexpr uint64_t kSeed = exec::kKeyHashSeed;
  exec::ColumnVector key_vec;
  key_vec.Reset(exec::ValueType::kInt);
  for (size_t i = 0; i < kLanes; i++) {
    key_vec.SetValue(i, an[i] ? exec::Value::Null() : exec::Value::Int(a[i]));
  }
  {
    KernelRow row;
    row.name = "hash join keys";
    exec::simd::SetEnabled(true);
    if (exec::simd::UseSimd()) {
      row.simd_ns = NsPerLane([&] {
        exec::simd::HashI64Batch(key_vec.i64(), key_vec.nulls(),
                                 exec::Value::Null().Hash(), hashes.data(),
                                 kLanes);
        for (size_t i = 0; i < kLanes; i++) acc[i] = kSeed;
        exec::simd::HashCombineBatch(acc.data(), hashes.data(), kLanes);
        benchmark::DoNotOptimize(acc.data());
      });
    }
    // HashKeys' per-lane chain: materialize the key Value and fold its hash
    // into the row hash.
    row.scalar_ns = NsPerLane([&] {
      for (size_t i = 0; i < kLanes; i++) {
        exec::Value v = key_vec.GetValue(i);
        acc[i] = HashCombine(kSeed, v.Hash());
      }
      benchmark::DoNotOptimize(acc.data());
    });
    rows.push_back(row);
  }

  // Selection intersection: dense selection consuming a boolean conjunct
  // result - the first-conjunct step of every compiled filter - at three
  // selectivities (share of lanes passing).
  exec::ColumnVector pred;
  pred.Reset(exec::ValueType::kBool);
  exec::SelectionVector sel;
  for (int pass_pct : {1, 50, 99}) {
    for (size_t i = 0; i < kLanes; i++) {
      pred.nulls()[i] = 0;
      pred.i64()[i] = static_cast<int64_t>(rng() % 100) < pass_pct ? 1 : 0;
    }
    rows.push_back(Measure(
        "intersect selection " + std::to_string(pass_pct) + "%", [&] {
          sel.SetAll(kLanes);
          exec::IntersectSelection(pred, &sel);
          benchmark::DoNotOptimize(&sel);
        }));
  }

  // Batched binary-JSON path access against the per-document accessor it
  // replaces in the scan's fallback route (both on the same nested docs).
  std::vector<std::vector<uint8_t>> doc_storage;
  std::vector<const uint8_t*> docs;
  for (size_t i = 0; i < kLanes; i++) {
    std::string text = "{\"user\": {\"id\": " + std::to_string(i * 7) +
                       ", \"name\": \"u" + std::to_string(i) +
                       "\"}, \"score\": " + std::to_string(i % 100) + "}";
    doc_storage.push_back(json::JsonbFromText(text).MoveValueOrDie());
    docs.push_back(doc_storage.back().data());
  }
  std::string id_path;
  tiles::AppendKeySegment(&id_path, "user");
  tiles::AppendKeySegment(&id_path, "id");
  const std::vector<json::PathStep> steps = tiles::DecodePathSteps(id_path);
  std::vector<uint16_t> lanes(kLanes);
  for (size_t i = 0; i < kLanes; i++) lanes[i] = static_cast<uint16_t>(i);
  exec::ColumnVector jsonb_vec;
  jsonb_vec.Reset(exec::ValueType::kInt);
  {
    // Smaller doc count per batch, so scale iteration differently: reuse the
    // same ns/lane machinery — each call covers kLanes documents.
    KernelRow row;
    row.name = "jsonb path extract";
    row.simd_ns = NsPerLane([&] {
      exec::ExtractJsonbPathBatch(docs.data(), lanes.data(), kLanes,
                                  steps.data(), steps.size(),
                                  exec::ValueType::kInt, &arena, &jsonb_vec);
      benchmark::DoNotOptimize(jsonb_vec.i64());
    });
    row.scalar_ns = NsPerLane([&] {
      for (size_t i = 0; i < kLanes; i++) {
        jsonb_vec.SetValue(
            i, exec::EvalAccessOnJsonb(json::JsonbValue(docs[i]), id_path,
                                       exec::ValueType::kInt, &arena));
      }
      benchmark::DoNotOptimize(jsonb_vec.i64());
    });
    rows.push_back(row);
  }

  TablePrinter table("SIMD kernels vs the scalar fallback (ns per lane)");
  table.SetHeader({"Kernel", "scalar", "simd", "speedup"});
  for (const auto& row : rows) {
    const bool measured = row.simd_ns > 0;
    table.AddRow({row.name, Fmt(row.scalar_ns, "%.3f"),
                  measured ? Fmt(row.simd_ns, "%.3f") : "-",
                  measured ? Fmt(row.scalar_ns / row.simd_ns, "%.2f") + "x"
                           : "-"});
  }
  table.Print();
  return 0;
}
