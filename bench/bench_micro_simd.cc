// Micro benchmark of the SIMD kernel tier against the scalar-fallback tier
// of the vectorized engine: the compare / arithmetic / selection kernels at
// the RunInstr level, batched key hashing for the join build, and the
// batched binary-JSON path accessor against its per-document predecessor.
// Both tiers run through the same entry points (exec/simd.h dispatches), so
// the deltas measure exactly what the AVX2 tier buys; on a CPU without AVX2
// both columns time the scalar tier.

#include <benchmark/benchmark.h>

#include <random>

#include "bench_common.h"
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
  double simd_ns = 0;    // ns per lane, SIMD enabled
  double speedup() const { return simd_ns > 0 ? scalar_ns / simd_ns : 0; }
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

template <typename Fn>
KernelRow Measure(std::string name, Fn&& fn) {
  KernelRow row;
  row.name = std::move(name);
  exec::simd::SetEnabled(true);
  row.simd_ns = NsPerLane(fn);
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
  std::vector<int64_t> out_i(kLanes);
  std::vector<double> out_d(kLanes);
  std::vector<uint8_t> out_n(kLanes);
  std::vector<uint64_t> hashes(kLanes), acc(kLanes);

  std::vector<KernelRow> rows;

  rows.push_back(Measure("compare i64<i64", [&] {
    exec::simd::CompareI64ViaDouble(exec::BinOp::kLt, a.data(), b.data(),
                                    an.data(), bn.data(), out_i.data(),
                                    out_n.data(), kLanes);
    benchmark::DoNotOptimize(out_i.data());
  }));
  rows.push_back(Measure("compare f64<=f64", [&] {
    exec::simd::CompareF64(exec::BinOp::kLe, fa.data(), fb.data(), an.data(),
                           bn.data(), out_i.data(), out_n.data(), kLanes);
    benchmark::DoNotOptimize(out_i.data());
  }));
  rows.push_back(Measure("arith i64*i64", [&] {
    exec::simd::ArithI64(exec::BinOp::kMul, a.data(), b.data(), an.data(),
                         bn.data(), out_i.data(), out_n.data(), kLanes);
    benchmark::DoNotOptimize(out_i.data());
  }));
  rows.push_back(Measure("arith f64/f64", [&] {
    exec::simd::ArithF64(exec::BinOp::kDiv, fa.data(), fb.data(), an.data(),
                         bn.data(), out_d.data(), out_n.data(), kLanes);
    benchmark::DoNotOptimize(out_d.data());
  }));

  // Join-build key hashing: the batched kernels against the per-Value path
  // the scalar build loop runs (materialize a Value, virtual-ish Hash, fold).
  constexpr uint64_t kSeed = 0x2545F4914F6CDD1DULL;
  exec::ColumnVector key_vec;
  key_vec.Reset(exec::ValueType::kInt);
  for (size_t i = 0; i < kLanes; i++) {
    key_vec.SetValue(i, an[i] ? exec::Value::Null() : exec::Value::Int(a[i]));
  }
  {
    KernelRow row;
    row.name = "hash join keys";
    exec::simd::SetEnabled(true);
    row.simd_ns = NsPerLane([&] {
      exec::simd::HashI64Batch(key_vec.i64(), key_vec.nulls(),
                               exec::Value::Null().Hash(), hashes.data(),
                               kLanes);
      for (size_t i = 0; i < kLanes; i++) acc[i] = kSeed;
      exec::simd::HashCombineBatch(acc.data(), hashes.data(), kLanes);
      benchmark::DoNotOptimize(acc.data());
    });
    // PR-2 build loop shape: per row, materialize the key Value and fold its
    // hash into the row hash.
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
  // result — the first-conjunct step of every compiled filter.
  exec::ColumnVector pred;
  pred.Reset(exec::ValueType::kBool);
  for (size_t i = 0; i < kLanes; i++) {
    pred.nulls()[i] = an[i];
    pred.i64()[i] = static_cast<int64_t>(rng() % 2);
  }
  exec::SelectionVector sel;
  rows.push_back(Measure("intersect selection", [&] {
    sel.SetAll(kLanes);
    exec::IntersectSelection(pred, &sel);
    benchmark::DoNotOptimize(&sel);
  }));

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
    Arena arena;
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

  TablePrinter table("SIMD kernel tier vs scalar fallback (ns per lane)");
  table.SetHeader({"Kernel", "scalar", "simd", "speedup"});
  for (const auto& row : rows) {
    table.AddRow({row.name, Fmt(row.scalar_ns, "%.3f"), Fmt(row.simd_ns, "%.3f"),
                  Fmt(row.speedup(), "%.2f") + "x"});
  }
  table.Print();
  return 0;
}
