#include "exec/scan.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>

#include "exec/exchange.h"
#include "exec/expr_compile.h"
#include "exec/vector_batch.h"
#include "obs/obs.h"
#include "storage/shard.h"
#include "tiles/array_extract.h"
#include "tiles/keypath.h"
#include "tiles/tile.h"
#include "util/bit_util.h"
#include "util/failpoint.h"

namespace jsontiles::exec {

QueryContext::QueryContext(ExecOptions options)
    : options_(std::move(options)),
      budget_(options_.mem_limit_bytes, options_.budget_parent) {
  size_t workers = std::max<size_t>(1, options_.num_threads);
  for (size_t i = 0; i < workers; i++) {
    arenas_.push_back(std::make_unique<Arena>());
  }
  if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers - 1);
}

void QueryContext::Cancel(Status status) {
  JSONTILES_DCHECK(!status.ok());
  {
    std::lock_guard<std::mutex> lock(cancel_mutex_);
    if (cancel_status_.ok()) cancel_status_ = std::move(status);
  }
  cancelled_.store(true, std::memory_order_relaxed);
}

Status QueryContext::ConsumeStatus() {
  std::lock_guard<std::mutex> lock(cancel_mutex_);
  Status s = std::move(cancel_status_);
  cancel_status_ = Status::OK();
  cancelled_.store(false, std::memory_order_relaxed);
  return s;
}

uint64_t RowSubset::MaskedWord(size_t w, size_t begin, size_t end) const {
  const size_t base = w << 6;
  uint64_t bits = words_[w];
  if (base < begin) bits &= ~uint64_t{0} << (begin - base);
  if (end - base < 64) bits &= (uint64_t{1} << (end - base)) - 1;
  return bits;
}

bool RowSubset::Any(size_t begin, size_t count) const {
  const size_t end = begin + count;
  for (size_t w = begin >> 6; w < words_.size() && (w << 6) < end; w++) {
    if (MaskedWord(w, begin, end) != 0) return true;
  }
  return false;
}

size_t RowSubset::Lanes(size_t begin, size_t count, uint16_t* lanes) const {
  const size_t end = begin + count;
  size_t n = 0;
  for (size_t w = begin >> 6; w < words_.size() && (w << 6) < end; w++) {
    for (uint64_t bits = MaskedWord(w, begin, end); bits != 0;
         bits &= bits - 1) {
      lanes[n++] =
          static_cast<uint16_t>((w << 6) + std::countr_zero(bits) - begin);
    }
  }
  return n;
}

namespace {

using storage::Relation;
using storage::StorageMode;
using tiles::ColumnType;
using tiles::ExtractedColumn;
using tiles::Tile;

// Convert a JSONB scalar into an engine value of the requested type.
Value JsonbScalarToValue(const json::JsonbValue& v, ValueType requested,
                         Arena* arena) {
  Value raw;
  switch (v.type()) {
    case json::JsonType::kNull:
      return Value::Null();
    case json::JsonType::kBool:
      raw = Value::Bool(v.GetBool());
      break;
    case json::JsonType::kInt:
      raw = Value::Int(v.GetInt());
      break;
    case json::JsonType::kFloat:
      raw = Value::Float(v.GetDouble());
      break;
    case json::JsonType::kString:
      raw = Value::String(v.GetString());
      break;
    case json::JsonType::kNumericString:
      raw = Value::Num(v.GetNumeric());
      break;
    case json::JsonType::kObject:
    case json::JsonType::kArray: {
      // ->> of a container returns its JSON text; other casts yield null,
      // and so does a text too long for a string Value (escapes can make it
      // longer than the document).
      if (requested != ValueType::kString) return Value::Null();
      const std::string text = v.ToJsonText();
      if (text.size() > kMaxStringBytes) return Value::Null();
      return Value::String(arena->CopyString(text));
    }
  }
  if (raw.type == requested) return raw;
  return CastValue(raw, requested, arena);
}

}  // namespace

Value EvalAccessOnJsonb(json::JsonbValue doc, const std::string& path,
                        ValueType requested, Arena* arena) {
  auto found = tiles::LookupPath(doc, path);
  if (!found.has_value()) return Value::Null();
  return JsonbScalarToValue(*found, requested, arena);
}

void ExtractJsonbPathBatch(const uint8_t* const* docs, const uint16_t* lanes,
                           size_t num_lanes, const json::PathStep* steps,
                           size_t num_steps, ValueType requested, Arena* arena,
                           ColumnVector* vec) {
  // The lookup itself takes a few probes, so the loop waits on memory: it
  // prefetches the first 256 bytes (header, offsets and the leading slots)
  // of the document kPrefetchLanes lanes ahead.
  constexpr size_t kPrefetchLanes = 16;
  uint8_t* nulls = vec->nulls();
  for (size_t k = 0; k < num_lanes; k++) {
    const size_t r = lanes[k];
    if (k + kPrefetchLanes < num_lanes) {
      const uint8_t* ahead = docs[lanes[k + kPrefetchLanes]];
      for (size_t line = 0; line < 256; line += 64) {
        __builtin_prefetch(ahead + line);
      }
    }
    const auto found =
        json::LookupSteps(json::JsonbValue(docs[r]), steps, num_steps);
    if (!found.has_value()) {
      nulls[r] = 1;
      continue;
    }
    const json::JsonbValue& v = *found;
    // Exact type matches write the lane directly; everything else (casts,
    // numerics, containers, JSON nulls) goes through the same conversion as
    // the per-row evaluator, so results stay bit-identical.
    switch (v.type()) {
      case json::JsonType::kInt:
        if (requested == ValueType::kInt) {
          nulls[r] = 0;
          vec->i64()[r] = v.GetInt();
          continue;
        }
        break;
      case json::JsonType::kFloat:
        if (requested == ValueType::kFloat) {
          nulls[r] = 0;
          vec->f64()[r] = v.GetDouble();
          continue;
        }
        break;
      case json::JsonType::kBool:
        if (requested == ValueType::kBool) {
          nulls[r] = 0;
          vec->i64()[r] = v.GetBool() ? 1 : 0;
          continue;
        }
        break;
      case json::JsonType::kString:
        if (requested == ValueType::kString) {
          nulls[r] = 0;
          vec->str()[r] = v.GetString();
          continue;
        }
        break;
      default:
        break;
    }
    vec->SetValue(r, JsonbScalarToValue(v, requested, arena));
  }
}

namespace {

// The element-match rule of CONTAINS, shared by both routes: a JSON string
// equal to the needle (a number or a numeric string never matches).
bool IsNeedle(const json::JsonbValue& value, std::string_view needle) {
  return value.type() == json::JsonType::kString && value.GetString() == needle;
}

// CONTAINS on a document (the document route): the array at `access.path`
// holds the needle, or with a member key, an object element whose member
// is the needle.
bool DocContains(const Expr& access, json::JsonbValue doc) {
  auto array = tiles::LookupPath(doc, access.path);
  if (!array.has_value() || array->type() != json::JsonType::kArray) {
    return false;
  }
  const std::string_view needle = access.const_storage;
  const size_t count = array->Count();
  for (size_t i = 0; i < count; i++) {
    json::JsonbValue element = array->ArrayElement(i);
    if (access.pattern.empty()) {
      if (IsNeedle(element, needle)) return true;
      continue;
    }
    if (element.type() != json::JsonType::kObject) continue;
    auto member = element.FindKey(access.pattern);
    if (member.has_value() && IsNeedle(*member, needle)) return true;
  }
  return false;
}

// Evaluate a scan-level access expression (kAccess, kArrayContains) against
// a document. Virtual row-id accesses yield `row_id`.
Value EvalScanExprOnJsonb(const Expr& access, json::JsonbValue doc,
                          int64_t row_id, Arena* arena) {
  if (access.kind == ExprKind::kArrayContains) {
    return Value::Bool(DocContains(access, doc));
  }
  if (access.path == kRowIdPath) return Value::Int(row_id);
  return EvalAccessOnJsonb(doc, access.path, access.access_type, arena);
}

// The side relation (§3.5) that answers `access` for `rel`, or null when
// the documents must. ExplodeArray turns an object element into a side
// document with the element's members plus `_rowid`, and wraps any other
// element under `value`, so side documents cannot answer member keys "",
// `value` and `_rowid`.
const Relation* SideRelationFor(const Relation& rel, const Expr& access) {
  if (access.kind != ExprKind::kArrayContains || access.pattern.empty() ||
      access.pattern == tiles::kScalarValueKey ||
      access.pattern == tiles::kParentRowIdKey) {
    return nullptr;
  }
  return rel.FindSideRelation(access.path);
}

// The side route: set the bit of every row of `base` whose array holds the
// needle, reading the side relation once. A side document's `_rowid` is its
// parent's row in `base`; one whose member is the needle marks that row;
// string members come from the tile's column when every value at the path
// is a string there. An object element with its own `_rowid` member sits
// wrapped under `value` like a scalar, and cannot be told from an element
// whose `value` member is an object, so for a side document whose `value`
// is an object the parent document decides by the document rule. A tile
// whose bloom filter rules out `value` + member holds no such wrapper.
// False when a `_rowid` is not an integer row of `base` (a corrupt or
// foreign file, such as a shard saved with global row ids): the documents
// answer instead.
bool ReadSideRelation(const Relation& side, const Expr& access,
                      const Relation& base, RowSubset* out) {
  std::string member_path, wrapped_path;
  tiles::AppendKeySegment(&member_path, access.pattern);
  tiles::AppendKeySegment(&wrapped_path, tiles::kScalarValueKey);
  wrapped_path += member_path;
  const std::string_view needle = access.const_storage;
  for (const Tile& tile : side.tiles()) {
    const ExtractedColumn* member = tile.FindColumn(member_path);
    const bool string_column = member != nullptr &&
                               member->source_type == json::JsonType::kString &&
                               member->storage_type == ColumnType::kString &&
                               !member->has_type_outliers;
    const bool may_wrap = tile.MayContainPath(wrapped_path);
    for (size_t k = 0; k < tile.row_count; k++) {
      const json::JsonbValue doc = side.Jsonb(tile.row_begin + k);
      bool hit;
      if (string_column) {
        hit = !member->column.IsNull(k) &&
              member->column.GetString(k, doc.data()) == needle;
      } else {
        auto value = doc.FindKey(access.pattern);
        hit = value.has_value() && IsNeedle(*value, needle);
      }
      bool wrapped = false;
      if (!hit && may_wrap) {
        auto value = doc.FindKey(tiles::kScalarValueKey);
        wrapped = value.has_value() && value->type() == json::JsonType::kObject;
      }
      if (!hit && !wrapped) continue;
      auto parent = doc.FindKey(tiles::kParentRowIdKey);
      if (!parent.has_value() || parent->type() != json::JsonType::kInt) {
        return false;
      }
      // Unsigned: a negative id wraps to a huge row.
      const uint64_t row = static_cast<uint64_t>(parent->GetInt());
      if (row >= base.num_rows()) return false;
      if (hit || DocContains(access, base.Jsonb(row))) out->Add(row);
    }
  }
  return true;
}

// Per-tile resolution of one access (§4.5), cached for all tuples.
struct ResolvedAccess {
  enum class Route : uint8_t { kColumn, kColumnCast, kFallback };
  Route route = Route::kFallback;
  const ExtractedColumn* column = nullptr;
  bool fallback_on_null = false;  // §3.4: outliers live in the binary JSON
  ValueType requested;
  // CONTAINS on the side route: the part's rows it holds for.
  const RowSubset* side = nullptr;
};

ValueType ColumnValueType(ColumnType type) {
  switch (type) {
    case ColumnType::kBool: return ValueType::kBool;
    case ColumnType::kInt64: return ValueType::kInt;
    case ColumnType::kFloat64: return ValueType::kFloat;
    case ColumnType::kString: return ValueType::kString;
    case ColumnType::kTimestamp: return ValueType::kTimestamp;
    case ColumnType::kNumeric: return ValueType::kNumeric;
  }
  return ValueType::kNull;
}

ResolvedAccess ResolveAccess(const Tile& tile, const Expr& access) {
  ResolvedAccess resolved;
  resolved.requested = access.access_type;
  // Array containment and row ids never come from materialized columns.
  if (access.kind != ExprKind::kAccess || access.path == kRowIdPath) {
    return resolved;
  }
  const ExtractedColumn* col = tile.FindColumn(access.path);
  if (col == nullptr) return resolved;  // fallback
  // §4.9: a Timestamp extract must not serve a Text request — the exact
  // string representation lives only in the binary JSON.
  if (col->is_timestamp && access.access_type == ValueType::kString) {
    return resolved;
  }
  resolved.column = col;
  resolved.fallback_on_null =
      col->has_type_outliers || (col->is_timestamp && col->nullable);
  resolved.route = ColumnValueType(col->storage_type) == access.access_type
                       ? ResolvedAccess::Route::kColumn
                       : ResolvedAccess::Route::kColumnCast;
  return resolved;
}

Value ReadColumnValue(const ExtractedColumn& col, size_t row,
                      const uint8_t* doc) {
  switch (col.storage_type) {
    case ColumnType::kBool: return Value::Bool(col.column.GetBool(row));
    case ColumnType::kInt64: return Value::Int(col.column.GetInt(row));
    case ColumnType::kFloat64: return Value::Float(col.column.GetFloat(row));
    case ColumnType::kString:
      return Value::String(col.column.GetString(row, doc));
    case ColumnType::kTimestamp: return Value::Ts(col.column.GetTimestamp(row));
    case ColumnType::kNumeric: return Value::Num(col.column.GetNumeric(row));
  }
  return Value::Null();
}

// Zone-map skip decision shared by tile-level and shard-level pruning: can a
// range [min, max] of `storage_type` values be proven to contain no value
// satisfying `access OP constant`? Rows where the access is null are
// rejected by the comparison anyway, so the non-null range is decisive.
bool ZoneMapCanSkip(ColumnType storage_type, int64_t min_i, int64_t max_i,
                    double min_d, double max_d, const RangePredicate& rp) {
  // The cast from the stored type to the requested type must preserve order
  // exactly; float->int truncation does not (negatives round toward zero).
  switch (storage_type) {
    case ColumnType::kInt64:
      if (rp.access_type != ValueType::kInt && rp.access_type != ValueType::kFloat) {
        return false;
      }
      break;
    case ColumnType::kFloat64:
      if (rp.access_type != ValueType::kFloat) return false;
      break;
    case ColumnType::kTimestamp:
      if (rp.access_type != ValueType::kTimestamp) return false;
      break;
    default:
      return false;
  }
  double lo, hi;
  if (storage_type == ColumnType::kFloat64) {
    lo = min_d;
    hi = max_d;
  } else {
    lo = static_cast<double>(min_i);
    hi = static_cast<double>(max_i);
  }
  // Guard against double rounding at the extremes of huge int64 domains.
  if (storage_type != ColumnType::kFloat64 &&
      (std::abs(lo) > 9e15 || std::abs(hi) > 9e15)) {
    return false;
  }
  double c = rp.constant.AsDouble();
  switch (rp.op) {
    case BinOp::kLt: return lo >= c;
    case BinOp::kLe: return lo > c;
    case BinOp::kGt: return hi <= c;
    case BinOp::kGe: return hi < c;
    case BinOp::kEq: return c < lo || c > hi;
    default: return false;
  }
}

// Tile zone-map skipping: only when the column is extracted, carries a
// min/max and has no type outliers (outlier values live in the binary JSON,
// outside the map).
bool CanSkipByZoneMap(const Tile& tile, const RangePredicate& rp) {
  const ExtractedColumn* col = tile.FindColumn(rp.path);
  if (col == nullptr || !col->has_minmax || col->has_type_outliers) return false;
  return ZoneMapCanSkip(col->storage_type, col->min_i, col->max_i, col->min_d,
                        col->max_d, rp);
}

// One contiguous piece of one scan source relation. Sharded scans have one
// part per surviving shard; `rowid_base` is added to part-local row indices
// wherever a row id becomes visible, so ids stay globally unique and
// shard-count independent.
struct ScanPart {
  const Relation* rel;
  int64_t rowid_base;
  // Per slot, the side route's bitmap of a CONTAINS access (null: the
  // documents answer it); empty when no slot takes the side route.
  std::vector<std::unique_ptr<RowSubset>> side;
  // The only rows to read (null = all): a sample's, or the bitmap of a
  // CONTAINS that is a top-level filter conjunct (only its rows can pass).
  const RowSubset* rows;
};

// The unit of scan work: a tile for tiled modes, a fixed row range
// otherwise. `row_begin` is local to the part's relation.
struct Chunk {
  const ScanPart* part;
  size_t row_begin;
  size_t row_count;
  const Tile* tile;  // null for non-tiled modes
};

// Batch-at-a-time scan of one chunk, the scan's only row producer.
// Pushed-down conjuncts that compile run as programs over column vectors
// read in bulk from the tile; the rest are interpreter residuals, evaluated
// per surviving row. Slot vectors materialize lazily, so later conjuncts and
// binary-JSON fallback accesses only touch rows surviving the earlier
// selection. JSON-text relations transform a batch's documents into per-lane
// buffers on first use; rows copy their strings out of them into the arena.
// One instance per worker; buffers are reused across chunks.
class VectorizedChunkScan {
 public:
  VectorizedChunkScan(const ScanSpec& spec, CompiledPredicate& pred,
                      Arena* arena)
      : spec_(spec),
        pred_(pred),
        arena_(arena),
        num_slots_(spec.accesses.size()),
        slot_vecs_(num_slots_),
        ready_(num_slots_, 0),
        steps_(num_slots_),
        steps_ready_(num_slots_, 0) {}

  void Run(const Chunk& chunk, const std::vector<ResolvedAccess>& resolved,
           RowSet* out) {
    rel_ = chunk.part->rel;
    rowid_base_ = chunk.part->rowid_base;
    rows_listed_ = chunk.part->rows;
    whole_batches_ = rows_listed_ == nullptr;
    json_text_ = rel_->mode() == StorageMode::kJsonText;
    if (json_text_ && text_docs_.empty()) text_docs_.resize(kVectorSize);
    for (size_t b = 0; b < chunk.row_count; b += kVectorSize) {
      ScanBatch(chunk, resolved, b, std::min(kVectorSize, chunk.row_count - b),
                out);
    }
  }

  size_t batches() const { return batches_; }
  size_t rows() const { return rows_; }
  size_t jsonb_lanes() const { return jsonb_lanes_; }

 private:
  void ScanBatch(const Chunk& chunk, const std::vector<ResolvedAccess>& resolved,
                 size_t batch_begin, size_t n, RowSet* out) {
    row0_ = chunk.row_begin + batch_begin;
    n_ = n;
    if (whole_batches_) {
      sel_.SetAll(n);
    } else {
      sel_.count = rows_listed_->Lanes(row0_, n, sel_.idx);
      if (sel_.empty()) return;
    }
    batches_++;
    rows_ += sel_.count;
    std::fill(ready_.begin(), ready_.end(), 0);
    docs_ready_ = false;
    for (auto& conjunct : pred_.conjuncts()) {
      for (int s : conjunct.slots) {
        MaterializeSlot(static_cast<size_t>(s), resolved, batch_begin);
      }
      IntersectSelection(conjunct.program.Run(slot_vecs_.data(), sel_, arena_),
                         &sel_);
      if (sel_.empty()) return;
    }
    for (size_t i = 0; i < num_slots_; i++) {
      MaterializeSlot(i, resolved, batch_begin);
    }
    // Survivors go straight into the flat tail of `out`, grown once for the
    // batch; the rows a residual rejects are compacted away afterwards.
    const size_t first = out->size();
    out->resize(first + sel_.count);
    for (size_t k = 0; k < sel_.count; k++) {
      const size_t r = sel_.idx[k];
      RowRef row = (*out)[first + k];
      for (size_t i = 0; i < num_slots_; i++) {
        Value v = slot_vecs_[i].GetValue(r);
        // The next batch overwrites the transformed JSON-text documents.
        if (json_text_ && v.type == ValueType::kString) {
          v.set_s(arena_->CopyString(v.s()));
        }
        row[i] = v;
      }
    }
    pred_.CompactResiduals(out, first, arena_);
  }

  void FillFromDoc(ColumnVector& vec, const Expr& access, size_t r,
                   const uint8_t* doc) {
    vec.SetValue(r, EvalScanExprOnJsonb(
                        access, json::JsonbValue(doc),
                        rowid_base_ + static_cast<int64_t>(row0_ + r),
                        arena_));
  }

  // Decode the access path once per query (the views point into the Expr's
  // own path storage, which outlives the scan).
  const std::vector<json::PathStep>& StepsFor(size_t i, const Expr& access) {
    if (!steps_ready_[i]) {
      steps_ready_[i] = 1;
      steps_[i] = tiles::DecodePathSteps(access.path);
    }
    return steps_[i];
  }

  // Binary-JSON fallback over a set of lanes: one shared pre-decoded path
  // lookup across all documents of the batch. Array containment keeps the
  // per-row evaluator (it scans elements, not a single path). A JSON text
  // that failed to transform gives a null lane.
  void FillFromDocBatch(ColumnVector& vec, size_t i, const Expr& access,
                        const uint16_t* lanes, size_t num_lanes) {
    if (json_text_) {
      const uint8_t* const* docs = BatchDocs();
      size_t cnt = 0;
      for (size_t k = 0; k < num_lanes; k++) {
        const size_t r = lanes[k];
        if (docs[r] == nullptr) {
          vec.nulls()[r] = 1;
        } else {
          lane_buf_[cnt++] = static_cast<uint16_t>(r);
        }
      }
      lanes = lane_buf_;
      num_lanes = cnt;
    } else {
      for (size_t k = 0; k < num_lanes; k++) {
        const size_t r = lanes[k];
        doc_ptrs_[r] = rel_->Jsonb(row0_ + r).data();
      }
    }
    jsonb_lanes_ += num_lanes;
    if (access.kind != ExprKind::kAccess) {
      for (size_t k = 0; k < num_lanes; k++) {
        FillFromDoc(vec, access, lanes[k], doc_ptrs_[lanes[k]]);
      }
      return;
    }
    const auto& steps = StepsFor(i, access);
    ExtractJsonbPathBatch(doc_ptrs_, lanes, num_lanes, steps.data(),
                          steps.size(), access.access_type, arena_, &vec);
  }

  // Documents of the batch: string columns read their values from them, and
  // a JSON-text batch transforms its documents here, once. A full scan takes
  // every lane; a row-subset scan only the selected ones (the selection only
  // shrinks within a batch, so every later reader finds its lanes filled).
  const uint8_t* const* BatchDocs() {
    if (docs_ready_) return doc_ptrs_;
    docs_ready_ = true;
    const size_t count = whole_batches_ ? n_ : sel_.count;
    for (size_t k = 0; k < count; k++) {
      const size_t r = whole_batches_ ? k : sel_.idx[k];
      if (!json_text_) {
        doc_ptrs_[r] = rel_->Jsonb(row0_ + r).data();
        continue;
      }
      std::vector<uint8_t>& buf = text_docs_[r];
      doc_ptrs_[r] = text_builder_.Transform(rel_->JsonText(row0_ + r), &buf)
                             .ok()
                         ? buf.data()
                         : nullptr;
    }
    return doc_ptrs_;
  }

  // Materialize slot i for the current batch, honoring the current
  // selection: a column route of a full scan bulk-reads the whole batch
  // (cheap, branchless); casts, binary-JSON fallback and every read of a
  // row-subset scan touch only the selected lanes.
  void MaterializeSlot(size_t i, const std::vector<ResolvedAccess>& resolved,
                       size_t batch_begin) {
    if (ready_[i]) return;
    ready_[i] = 1;
    const ResolvedAccess& ra = resolved[i];
    const Expr& access = *spec_.accesses[i];
    ColumnVector& vec = slot_vecs_[i];
    vec.Reset(ra.requested);
    const size_t col_row0 = batch_begin;  // row offset inside the tile
    const size_t n = n_;

    if (access.kind == ExprKind::kAccess && access.path == kRowIdPath) {
      uint8_t* nulls = vec.nulls();
      int64_t* out = vec.i64();
      for (size_t k = 0; k < n; k++) {
        nulls[k] = 0;
        out[k] = rowid_base_ + static_cast<int64_t>(row0_ + k);
      }
      return;
    }
    if (ra.side != nullptr) {
      uint8_t* nulls = vec.nulls();
      int64_t* out = vec.i64();
      for (size_t k = 0; k < n; k++) {
        nulls[k] = 0;
        out[k] = ra.side->Contains(row0_ + k) ? 1 : 0;
      }
      return;
    }
    if (ra.route == ResolvedAccess::Route::kColumn && whole_batches_) {
      const tiles::Column& col = ra.column->column;
      col.ReadNulls(col_row0, n, vec.nulls());
      switch (ra.column->storage_type) {
        case ColumnType::kBool:
          col.ReadBools(col_row0, n, vec.i64());
          break;
        case ColumnType::kInt64:
        case ColumnType::kTimestamp:
          col.ReadInts(col_row0, n, vec.i64());
          break;
        case ColumnType::kFloat64:
          col.ReadFloats(col_row0, n, vec.f64());
          break;
        case ColumnType::kString:
          col.ReadStrings(col_row0, n, BatchDocs(), vec.str());
          break;
        case ColumnType::kNumeric:
          col.ReadNumerics(col_row0, n, vec.i64(), vec.scale());
          break;
      }
      if (ra.fallback_on_null && col.null_count() > 0) {
        // §3.4: a null lane may hide a type outlier in the binary JSON.
        size_t cnt = 0;
        for (size_t k = 0; k < sel_.count; k++) {
          const size_t r = sel_.idx[k];
          if (vec.IsNull(r)) lane_buf_[cnt++] = static_cast<uint16_t>(r);
        }
        if (cnt > 0) FillFromDocBatch(vec, i, access, lane_buf_, cnt);
      }
      return;
    }
    if (ra.route != ResolvedAccess::Route::kFallback) {
      // Casts, and every column of a row-subset scan: selected lanes only.
      const tiles::Column& col = ra.column->column;
      size_t doc_lanes = 0;
      for (size_t k = 0; k < sel_.count; k++) {
        const size_t r = sel_.idx[k];
        if (col.IsNull(col_row0 + r)) {
          if (ra.fallback_on_null) {
            FillFromDoc(vec, access, r, rel_->Jsonb(row0_ + r).data());
            doc_lanes++;
          } else {
            vec.nulls()[r] = 1;
          }
          continue;
        }
        const uint8_t* doc = ra.column->storage_type == ColumnType::kString
                                 ? BatchDocs()[r]
                                 : nullptr;
        const Value v = ReadColumnValue(*ra.column, col_row0 + r, doc);
        vec.SetValue(r, ra.route == ResolvedAccess::Route::kColumnCast
                            ? CastValue(v, ra.requested, arena_)
                            : v);
      }
      jsonb_lanes_ += doc_lanes;
      return;
    }
    // Binary-JSON fallback: batched over the surviving selection.
    FillFromDocBatch(vec, i, access, sel_.idx, sel_.count);
  }

  const ScanSpec& spec_;
  // Current chunk's source relation, row-id offset and listed rows (set per
  // Run; sharded scans feed chunks of different shards through one scanner
  // instance).
  const Relation* rel_ = nullptr;
  int64_t rowid_base_ = 0;
  const RowSubset* rows_listed_ = nullptr;
  // False when the chunk lists its rows, so an unlisted lane is never read.
  bool whole_batches_ = true;
  bool json_text_ = false;
  // Current batch: relation row of lane 0 and lane count.
  size_t row0_ = 0;
  size_t n_ = 0;
  CompiledPredicate& pred_;
  Arena* arena_;
  const size_t num_slots_;
  std::vector<ColumnVector> slot_vecs_;
  std::vector<uint8_t> ready_;
  SelectionVector sel_;
  // Batched fallback state: per-access pre-decoded paths plus per-batch
  // document pointers / lane scratch (indexed by lane).
  std::vector<std::vector<json::PathStep>> steps_;
  std::vector<uint8_t> steps_ready_;
  const uint8_t* doc_ptrs_[kVectorSize];
  bool docs_ready_ = false;
  uint16_t lane_buf_[kVectorSize];
  // JSON-text mode: the batch's transformed documents, one buffer per lane.
  json::JsonbBuilder text_builder_;
  std::vector<std::vector<uint8_t>> text_docs_;
  size_t batches_ = 0;
  size_t rows_ = 0;
  // Lanes the document route served (the fallback and JSONB/JSON-text
  // storage).
  size_t jsonb_lanes_ = 0;
};

// Routing-key equality pruning: when the sharded relation was hash-routed
// on `path` and every routed value hashed as one kind (int or string), an
// equality predicate on that path can only match rows in the shard its
// constant hashes to. Returns the target shard, or -1 when no predicate
// pins one. Null/missing routing values were position-routed, but a SQL
// equality never matches NULL, so skipping their shards stays sound.
int64_t RoutingEqTarget(const storage::ShardedRelation& sharded,
                        const std::vector<RangePredicate>& range_predicates) {
  using storage::RoutingValueKind;
  const RoutingValueKind kind = sharded.routing_kind();
  if (kind != RoutingValueKind::kIntOnly &&
      kind != RoutingValueKind::kStringOnly) {
    return -1;
  }
  for (const RangePredicate& rp : range_predicates) {
    if (rp.op != BinOp::kEq || rp.path != sharded.routing_path()) continue;
    uint64_t hash;
    int64_t integral = 0;
    if (kind == RoutingValueKind::kIntOnly) {
      if (rp.constant.type == ValueType::kInt) {
        hash = storage::ShardKeyHashInt(rp.constant.i);
      } else if (rp.constant.type == ValueType::kFloat &&
                 std::floor(rp.constant.d) == rp.constant.d &&
                 bit_util::TruncToInt64(rp.constant.d, &integral)) {
        hash = storage::ShardKeyHashInt(integral);
      } else {
        continue;
      }
    } else {
      if (rp.constant.type != ValueType::kString) continue;
      hash = storage::ShardKeyHashString(rp.constant.s());
    }
    return static_cast<int64_t>(hash % sharded.shard_count());
  }
  return -1;
}

// Shard-level pruning (before any tile of the shard is considered): routing
// key (handled by the caller), shard bloom over null-rejecting paths, shard
// zone maps over range predicates.
bool ShardCanBeSkipped(const storage::ShardStats& stats, const ScanSpec& spec) {
  for (const std::string& path : spec.null_rejecting_paths) {
    if (path == kRowIdPath) continue;  // present in every row
    if (!stats.MayContainPath(path)) return true;
  }
  for (const RangePredicate& rp : spec.range_predicates) {
    const storage::ShardZoneEntry* zone = stats.FindZone(rp.path);
    if (zone == nullptr) continue;
    if (ZoneMapCanSkip(zone->storage_type, zone->min_i, zone->max_i,
                       zone->min_d, zone->max_d, rp)) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<size_t> SurvivingShards(const ScanSpec& spec,
                                    bool enable_pruning) {
  const storage::ShardedRelation& sharded = *spec.sharded;
  std::vector<size_t> out;
  out.reserve(sharded.shard_count());
  const int64_t eq_target =
      enable_pruning ? RoutingEqTarget(sharded, spec.range_predicates) : -1;
  for (size_t s = 0; s < sharded.shard_count(); s++) {
    if (enable_pruning &&
        ((eq_target >= 0 && static_cast<int64_t>(s) != eq_target) ||
         ShardCanBeSkipped(sharded.shard_stats(s), spec))) {
      continue;
    }
    out.push_back(s);
  }
  return out;
}

RowSet ScanExec(const ScanSpec& spec, QueryContext& ctx) {
  JSONTILES_TRACE_SPAN("exec.scan");
  // Distributed execution: when a runtime serves this sharded relation, the
  // scan becomes per-shard fragments on worker processes. Workers run with
  // ctx.dist unset, so their single-shard scans take the local path below.
  if (ctx.dist != nullptr && spec.sharded != nullptr &&
      ctx.dist->Serves(spec.sharded)) {
    return ExchangeExec(spec, ctx);
  }
  const storage::ShardedRelation* sharded = spec.sharded;

  // Resolve the scan source into parts: the single relation or the
  // surviving shards.
  std::vector<ScanPart> parts;
  size_t total_rows = 0;
  size_t pruned_shards = 0;
  StorageMode mode = StorageMode::kTiles;
  std::string source_name;
  if (sharded == nullptr) {
    const Relation& rel = *spec.relation;
    parts.push_back(ScanPart{&rel, spec.rowid_base, {}, spec.row_subset});
    total_rows = rel.num_rows();
    mode = rel.mode();
    source_name = rel.name();
  } else {
    mode = sharded->mode();
    source_name = sharded->name();
    total_rows = sharded->num_rows();
    const std::vector<size_t> survivors =
        SurvivingShards(spec, ctx.options().enable_tile_skipping);
    pruned_shards = sharded->shard_count() - survivors.size();
    for (size_t s : survivors) {
      JSONTILES_TRACE_SPAN("exec.scan.shard");
      parts.push_back(ScanPart{&sharded->shard(s),
                               storage::ShardedRelation::RowIdBase(s), {},
                               nullptr});
    }
  }

  obs::OperatorProfiler prof(ctx.profile, "Scan",
                             spec.table_alias.empty() ? source_name
                                                      : spec.table_alias);
  prof.set_rows_in(total_rows);
  const size_t arena_before = prof.active() ? ctx.arena_bytes() : 0;
  const size_t num_slots = spec.accesses.size();
  const bool tiled =
      mode == StorageMode::kTiles || mode == StorageMode::kSinew;

  // The Tiles-* route (§3.5): a full scan answers CONTAINS from a part's
  // side relation where it has one, and a CONTAINS conjunct of the filter
  // restricts the part to the rows its bitmap lists.
  size_t side_rows = 0;
  if (spec.row_subset == nullptr) {
    std::vector<ExprPtr> conjuncts;
    SplitConjuncts(spec.filter, &conjuncts);
    for (ScanPart& part : parts) {
      for (size_t i = 0; i < num_slots; i++) {
        const Relation* side = SideRelationFor(*part.rel, *spec.accesses[i]);
        if (side == nullptr) continue;
        JSONTILES_TRACE_SPAN("exec.scan.side");
        auto bits = std::make_unique<RowSubset>(part.rel->num_rows());
        if (!ReadSideRelation(*side, *spec.accesses[i], *part.rel,
                              bits.get())) {
          continue;
        }
        side_rows += side->num_rows();
        part.side.resize(num_slots);
        part.side[i] = std::move(bits);
      }
      for (const ExprPtr& c : conjuncts) {
        if (c->kind == ExprKind::kSlotRef && !part.side.empty() &&
            part.side[c->slot] != nullptr) {
          part.rows = part.side[c->slot].get();
          break;
        }
      }
    }
  }

  // A chunk whose listed rows (a sample's, or a CONTAINS bitmap's) miss it
  // is dropped unread; the bitmap's drops count as skipped tiles.
  JSONTILES_CHECK(spec.row_subset == nullptr || sharded == nullptr);
  std::vector<Chunk> chunks;
  size_t dropped = 0;
  auto add_chunk = [&](const Chunk& chunk) {
    const RowSubset* rows = chunk.part->rows;
    if (rows == nullptr || rows->Any(chunk.row_begin, chunk.row_count)) {
      chunks.push_back(chunk);
    } else if (spec.row_subset == nullptr) {
      dropped++;
    }
  };
  for (const ScanPart& part : parts) {
    if (tiled) {
      for (const Tile& tile : part.rel->tiles()) {
        add_chunk(Chunk{&part, tile.row_begin, tile.row_count, &tile});
      }
    } else {
      constexpr size_t kChunkRows = 4096;
      for (size_t begin = 0; begin < part.rel->num_rows();
           begin += kChunkRows) {
        add_chunk(Chunk{&part, begin,
                        std::min(kChunkRows, part.rel->num_rows() - begin),
                        nullptr});
      }
    }
  }

  // Compile the pushed-down filter once per scan; per-worker copies of the
  // programs keep Run reentrant across threads.
  std::vector<ValueType> slot_types(num_slots);
  for (size_t i = 0; i < num_slots; i++) {
    slot_types[i] = spec.accesses[i]->access_type;
  }
  std::vector<CompiledPredicate> worker_preds(
      ctx.num_workers(), CompiledPredicate::Compile(spec.filter, slot_types));
  std::vector<std::unique_ptr<VectorizedChunkScan>> scanners(ctx.num_workers());

  // Parallel chunks each fill their own partial (concatenated in chunk order
  // below); a serial scan visits chunks in order and fills one output.
  const bool parallel = ctx.pool() != nullptr && chunks.size() > 1;
  std::vector<RowSet> partials(parallel ? chunks.size() : 1,
                               RowSet(num_slots));
  std::atomic<size_t> skipped{dropped};

  auto scan_chunk = [&](size_t c, size_t worker) {
    const Chunk& chunk = chunks[c];
    RowSet& out = partials[parallel ? c : 0];

    // §4.8 tile skipping: path existence, then zone maps.
    if (chunk.tile != nullptr && ctx.options().enable_tile_skipping) {
      for (const std::string& path : spec.null_rejecting_paths) {
        if (path == kRowIdPath) continue;  // present in every row
        if (!chunk.tile->MayContainPath(path)) {
          skipped.fetch_add(1);
          return;
        }
      }
      for (const RangePredicate& rp : spec.range_predicates) {
        if (CanSkipByZoneMap(*chunk.tile, rp)) {
          skipped.fetch_add(1);
          return;
        }
      }
    }

    // Only tiles that are read get a span; a skipped one costs nanoseconds.
    JSONTILES_TRACE_SPAN("exec.scan.chunk");
    // §4.5: resolve each access once per tile.
    std::vector<ResolvedAccess> resolved(num_slots);
    for (size_t i = 0; i < num_slots; i++) {
      if (chunk.tile != nullptr) {
        resolved[i] = ResolveAccess(*chunk.tile, *spec.accesses[i]);
      } else {
        resolved[i].requested = spec.accesses[i]->access_type;
      }
      if (!chunk.part->side.empty()) {
        resolved[i].side = chunk.part->side[i].get();
      }
    }

    auto& scanner = scanners[worker];
    if (scanner == nullptr) {
      scanner = std::make_unique<VectorizedChunkScan>(
          spec, worker_preds[worker], ctx.arena(worker));
    }
    scanner->Run(chunk, resolved, &out);
  };

  // Morsels are fallible (fault injection; future I/O): a failing chunk's
  // Status cancels the query, the other workers stop claiming morsels, and
  // the scan returns empty — the SQL boundary surfaces the recorded error.
  auto scan_morsel = [&](size_t c, size_t w) -> Status {
    JSONTILES_FAILPOINT_RETURN("exec.scan.chunk");
    if (ctx.cancelled()) return Status::OK();
    scan_chunk(c, w);
    return Status::OK();
  };
  Status scan_status;
  if (parallel) {
    scan_status = ctx.pool()->ParallelForStatus(chunks.size(), scan_morsel);
  } else {
    for (size_t c = 0; c < chunks.size() && scan_status.ok(); c++) {
      scan_status = scan_morsel(c, 0);
    }
  }
  if (!scan_status.ok()) {
    ctx.Cancel(std::move(scan_status));
    return {};
  }

  ctx.tiles_skipped += skipped.load();
  ctx.tiles_scanned += chunks.size();
  JSONTILES_COUNTER_ADD("scan.tiles_scanned",
                        static_cast<int64_t>(chunks.size()));
  JSONTILES_COUNTER_ADD("scan.tiles_skipped",
                        static_cast<int64_t>(skipped.load()));
  if (sharded != nullptr) {
    ctx.shards_scanned += parts.size();
    ctx.shards_pruned += pruned_shards;
    JSONTILES_COUNTER_ADD("scan.shards_scanned",
                          static_cast<int64_t>(parts.size()));
    JSONTILES_COUNTER_ADD("scan.shards_pruned",
                          static_cast<int64_t>(pruned_shards));
  }

  // Merge in chunk order (deterministic results): one reservation, one bulk
  // copy per chunk. The output keeps its slot width when no row survives,
  // so a LEFT JOIN against it still pads every build column.
  RowSet out(num_slots);
  out.AppendAll(std::move(partials));
  prof.set_rows_out(out.size());
  if (prof.active()) {
    prof.AddCounter("arena_bytes",
                    static_cast<int64_t>(ctx.arena_bytes() - arena_before));
  }
  prof.AddCounter("tiles", static_cast<int64_t>(chunks.size()));
  prof.AddCounter("tiles_skipped", static_cast<int64_t>(skipped.load()));
  if (side_rows > 0) {
    prof.AddCounter("side_rows", static_cast<int64_t>(side_rows));
  }
  if (sharded != nullptr) {
    prof.AddCounter("shards", static_cast<int64_t>(parts.size()));
    prof.AddCounter("shards_pruned", static_cast<int64_t>(pruned_shards));
  }
  size_t batches = 0, batch_rows = 0, jsonb_lanes = 0;
  for (const auto& s : scanners) {
    if (s == nullptr) continue;
    batches += s->batches();
    batch_rows += s->rows();
    jsonb_lanes += s->jsonb_lanes();
  }
  prof.AddCounter("vec_batches", static_cast<int64_t>(batches));
  prof.AddCounter("vec_rows", static_cast<int64_t>(batch_rows));
  prof.AddCounter("jsonb_lanes", static_cast<int64_t>(jsonb_lanes));
  JSONTILES_COUNTER_ADD("exec.vec.batches", static_cast<int64_t>(batches));
  JSONTILES_COUNTER_ADD("exec.vec.rows", static_cast<int64_t>(batch_rows));
  JSONTILES_COUNTER_ADD("exec.vec.jsonb_lanes",
                        static_cast<int64_t>(jsonb_lanes));
  return out;
}

}  // namespace jsontiles::exec
