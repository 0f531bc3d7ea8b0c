#include "dist/wire.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

#include "exec/row_codec.h"
#include "util/failpoint.h"
#include "util/hash.h"

namespace jsontiles::dist {

namespace {

// Wire parse failures mirror the manifest decoder's idiom: the failing
// predicate, verbatim, in a ParseError.
#define WIRE_READ(expr) \
  if (!(expr)) return Status::ParseError("corrupt wire frame: " #expr)

constexpr size_t kFrameHeaderSize = 1 + 4 + 8;

// Depth/arity caps for the expression decoder: far above any real query
// plan, low enough that corrupt input cannot recurse or allocate absurdly.
constexpr size_t kMaxExprDepth = 128;
constexpr uint64_t kMaxExprArgs = 4096;
constexpr uint64_t kMaxFragmentItems = 1u << 20;

uint64_t FrameChecksum(uint8_t type, uint32_t size, const uint8_t* payload) {
  const uint64_t seed = HashInt((static_cast<uint64_t>(type) << 32) | size);
  return HashBytes(payload, size, seed);
}

// The one frame-header encoder: AppendFrame and WriteFrame send these bytes
// ahead of the payload.
void EncodeFrameHeader(FrameType type, const std::vector<uint8_t>& payload,
                       uint8_t (&header)[kFrameHeaderSize]) {
  JSONTILES_CHECK(payload.size() <= kMaxFramePayload);
  const uint8_t type_raw = static_cast<uint8_t>(type);
  const uint32_t size = static_cast<uint32_t>(payload.size());
  const uint64_t checksum = FrameChecksum(type_raw, size, payload.data());
  header[0] = type_raw;
  std::memcpy(header + 1, &size, sizeof(size));
  std::memcpy(header + 5, &checksum, sizeof(checksum));
}

struct FrameHeader {
  uint8_t type = 0;
  uint32_t size = 0;
  uint64_t checksum = 0;
};

// The one frame-header parser: DecodeFrame uses it, and so does ReadFrame to
// learn how many payload bytes follow.
Status ParseFrameHeader(const uint8_t* data, size_t size, FrameHeader* h) {
  ByteReader r(data, size);
  WIRE_READ(r.U8(&h->type) && r.U32(&h->size) && r.U64(&h->checksum));
  WIRE_READ(h->type >= 1 && h->type <= kMaxFrameType);
  WIRE_READ(h->size <= kMaxFramePayload);
  return Status::OK();
}

// The one payload check, shared by DecodeFrame and ReadFrame.
Status VerifyPayload(const FrameHeader& h, const uint8_t* payload) {
  WIRE_READ(FrameChecksum(h.type, h.size, payload) == h.checksum);
  return Status::OK();
}

std::chrono::steady_clock::time_point Deadline(int timeout_ms) {
  return std::chrono::steady_clock::now() +
         std::chrono::milliseconds(timeout_ms);
}

int RemainingMs(std::chrono::steady_clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                  deadline - std::chrono::steady_clock::now())
                  .count();
  return left < 0 ? 0 : static_cast<int>(left);
}

// Read exactly `size` bytes with a deadline. kOutOfRange on EOF (clean only
// when `clean_eof_ok` and nothing was read yet), kInternal on timeout. When
// `frame_deadline` is non-null, the wait for the very first byte is bounded
// by `deadline` (the idle budget) and every later byte by *frame_deadline —
// which is (re)armed from `frame_timeout_ms` as soon as the first byte
// lands, so a peer that starts a frame and stalls cannot ride the idle
// budget.
Status ReadExact(int fd, uint8_t* dst, size_t size,
                 std::chrono::steady_clock::time_point deadline,
                 bool clean_eof_ok, uint64_t* wire_bytes,
                 std::chrono::steady_clock::time_point* frame_deadline =
                     nullptr,
                 int frame_timeout_ms = 0) {
  size_t done = 0;
  bool idle = frame_deadline != nullptr &&
              *frame_deadline == std::chrono::steady_clock::time_point();
  while (done < size) {
    struct pollfd pfd = {fd, POLLIN, 0};
    const auto effective =
        (frame_deadline != nullptr && !idle) ? *frame_deadline : deadline;
    const int left = RemainingMs(effective);
    if (left == 0) {
      return Status::Internal(idle ? "exchange idle timed out"
                                   : "exchange recv timed out");
    }
    int pr = ::poll(&pfd, 1, left);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("poll: ") + std::strerror(errno));
    }
    if (pr == 0) {
      return Status::Internal(idle ? "exchange idle timed out"
                                   : "exchange recv timed out");
    }
    ssize_t n = ::read(fd, dst + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("read: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (clean_eof_ok && done == 0) {
        return Status::OutOfRange("connection closed");
      }
      return Status::Internal("connection closed mid-frame");
    }
    if (idle) {
      *frame_deadline = Deadline(frame_timeout_ms);
      idle = false;
    }
    done += static_cast<size_t>(n);
  }
  if (wire_bytes != nullptr) *wire_bytes += size;
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame layer
// ---------------------------------------------------------------------------

void AppendFrame(FrameType type, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* stream) {
  uint8_t header[kFrameHeaderSize];
  EncodeFrameHeader(type, payload, header);
  stream->insert(stream->end(), header, header + kFrameHeaderSize);
  stream->insert(stream->end(), payload.begin(), payload.end());
}

Status WriteFrame(int fd, FrameType type, const std::vector<uint8_t>& payload,
                  uint64_t* wire_bytes) {
  JSONTILES_FAILPOINT_RETURN("dist.frame_write");
  uint8_t header[kFrameHeaderSize];
  EncodeFrameHeader(type, payload, header);
  // Header and payload leave in one sendmsg, without a staging copy; a
  // partial write resumes where it stopped, across the two iovecs.
  struct iovec iov[2] = {
      {header, kFrameHeaderSize},
      {const_cast<uint8_t*>(payload.data()), payload.size()}};
  struct msghdr msg = {};
  msg.msg_iov = iov;
  msg.msg_iovlen = 2;
  while (msg.msg_iovlen > 0) {
    // MSG_NOSIGNAL: a peer that died mid-stream must surface as EPIPE, not
    // kill the writing process with SIGPIPE.
    ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("exchange write: ") +
                              std::strerror(errno));
    }
    size_t sent = static_cast<size_t>(n);
    for (; msg.msg_iovlen > 0 && sent >= msg.msg_iov->iov_len;
         msg.msg_iov++, msg.msg_iovlen--) {
      sent -= msg.msg_iov->iov_len;
    }
    if (msg.msg_iovlen > 0) {
      msg.msg_iov->iov_base = static_cast<uint8_t*>(msg.msg_iov->iov_base) +
                              sent;
      msg.msg_iov->iov_len -= sent;
    }
  }
  if (wire_bytes != nullptr) *wire_bytes += kFrameHeaderSize + payload.size();
  return Status::OK();
}

Status DecodeFrame(const uint8_t* data, size_t size, size_t* consumed,
                   FrameType* type, std::vector<uint8_t>* payload) {
  FrameHeader h;
  JSONTILES_RETURN_NOT_OK(ParseFrameHeader(data, size, &h));
  WIRE_READ(size - kFrameHeaderSize >= h.size);
  const uint8_t* bytes = data + kFrameHeaderSize;
  JSONTILES_RETURN_NOT_OK(VerifyPayload(h, bytes));
  payload->assign(bytes, bytes + h.size);
  *type = static_cast<FrameType>(h.type);
  *consumed = kFrameHeaderSize + h.size;
  return Status::OK();
}

Status ReadFrame(int fd, int idle_timeout_ms, int frame_timeout_ms,
                 FrameType* type, std::vector<uint8_t>* payload,
                 uint64_t* wire_bytes) {
  const auto idle_deadline = Deadline(idle_timeout_ms);
  // Armed by ReadExact the moment the first byte arrives; bounds everything
  // after it.
  std::chrono::steady_clock::time_point frame_deadline{};
  uint8_t header[kFrameHeaderSize];
  JSONTILES_RETURN_NOT_OK(ReadExact(fd, header, kFrameHeaderSize,
                                    idle_deadline, /*clean_eof_ok=*/true,
                                    wire_bytes, &frame_deadline,
                                    frame_timeout_ms));
  // The header is validated before its size decides how much to read.
  FrameHeader h;
  JSONTILES_RETURN_NOT_OK(ParseFrameHeader(header, kFrameHeaderSize, &h));
  payload->resize(h.size);
  JSONTILES_RETURN_NOT_OK(ReadExact(fd, payload->data(), h.size,
                                    frame_deadline, /*clean_eof_ok=*/false,
                                    wire_bytes));
  JSONTILES_RETURN_NOT_OK(VerifyPayload(h, payload->data()));
  *type = static_cast<FrameType>(h.type);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Handshake messages
// ---------------------------------------------------------------------------

void EncodeHello(const HelloMsg& msg, std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.U32(msg.version);
  w.I64(msg.pid);
}

Status DecodeHello(const std::vector<uint8_t>& payload, HelloMsg* msg) {
  ByteReader r(payload.data(), payload.size());
  WIRE_READ(r.U32(&msg->version));
  WIRE_READ(r.I64(&msg->pid));
  WIRE_READ(r.AtEnd());
  return Status::OK();
}

void EncodeOpen(const OpenMsg& msg, std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.Str(msg.manifest_path);
  w.Varint(msg.num_threads);
  w.Varint(msg.shards.size());
  for (uint64_t s : msg.shards) w.Varint(s);
}

Status DecodeOpen(const std::vector<uint8_t>& payload, OpenMsg* msg) {
  ByteReader r(payload.data(), payload.size());
  WIRE_READ(r.Str(&msg->manifest_path));
  WIRE_READ(r.Varint(&msg->num_threads));
  WIRE_READ(msg->num_threads >= 1 && msg->num_threads <= 4096);
  uint64_t n;
  WIRE_READ(r.Varint(&n));
  WIRE_READ(n <= kMaxFragmentItems);
  for (uint64_t i = 0; i < n; i++) {
    uint64_t s;
    WIRE_READ(r.Varint(&s));
    WIRE_READ(msg->shards.empty() || msg->shards.back() < s);
    msg->shards.push_back(s);
  }
  WIRE_READ(r.AtEnd());
  return Status::OK();
}

void EncodeOpenOk(const OpenOkMsg& msg, std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.Varint(msg.shard_rows.size());
  for (uint64_t rows : msg.shard_rows) w.Varint(rows);
}

Status DecodeOpenOk(const std::vector<uint8_t>& payload, OpenOkMsg* msg) {
  ByteReader r(payload.data(), payload.size());
  uint64_t n;
  WIRE_READ(r.Varint(&n));
  WIRE_READ(n <= kMaxFragmentItems);
  for (uint64_t i = 0; i < n; i++) {
    uint64_t rows;
    WIRE_READ(r.Varint(&rows));
    msg->shard_rows.push_back(rows);
  }
  WIRE_READ(r.AtEnd());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Expression codec
// ---------------------------------------------------------------------------

void EncodeExpr(const exec::Expr& e, ByteWriter* w) {
  using exec::ExprKind;
  w->U8(static_cast<uint8_t>(e.kind));
  switch (e.kind) {
    case ExprKind::kConst:
      exec::EncodeValue(e.constant, w);
      break;
    case ExprKind::kSlotRef:
      w->SVarint(e.slot);
      break;
    case ExprKind::kAccess:
      w->Str(e.table);
      w->Str(e.path);
      w->U8(static_cast<uint8_t>(e.access_type));
      break;
    case ExprKind::kArrayContains:
      w->Str(e.table);
      w->Str(e.path);
      w->Str(e.pattern);
      w->Str(e.const_storage);
      w->U8(static_cast<uint8_t>(e.access_type));
      break;
    case ExprKind::kBinary:
      w->U8(static_cast<uint8_t>(e.bin_op));
      break;
    case ExprKind::kUnary:
      w->U8(static_cast<uint8_t>(e.un_op));
      break;
    case ExprKind::kLike:
      w->Str(e.pattern);
      w->U8(e.negated ? 1 : 0);
      break;
    case ExprKind::kIn:
      w->U8(e.negated ? 1 : 0);
      w->Varint(e.in_list.size());
      for (const exec::Value& v : e.in_list) exec::EncodeValue(v, w);
      break;
    case ExprKind::kSubstring:
      w->SVarint(e.substr_start);
      w->SVarint(e.substr_len);
      break;
    case ExprKind::kCastTo:
      w->U8(static_cast<uint8_t>(e.access_type));
      break;
    case ExprKind::kCase:
    case ExprKind::kExtractYear:
      break;
  }
  w->Varint(e.args.size());
  for (const exec::ExprPtr& arg : e.args) EncodeExpr(*arg, w);
}

Status DecodeExpr(ByteReader* r, size_t depth, exec::ExprPtr* out) {
  using exec::ExprKind;
  using exec::ValueType;
  WIRE_READ(depth < kMaxExprDepth);
  uint8_t kind_raw;
  WIRE_READ(r->U8(&kind_raw));
  WIRE_READ(kind_raw <= static_cast<uint8_t>(ExprKind::kCastTo));
  auto e = std::make_shared<exec::Expr>();
  e->kind = static_cast<ExprKind>(kind_raw);
  // Constants decode with strings viewing the payload, then are re-anchored
  // into the expression's own storage (the factories' ownership idiom).
  switch (e->kind) {
    case ExprKind::kConst: {
      exec::Value v;
      WIRE_READ(exec::DecodeValue(r, nullptr, &v));
      if (v.type == ValueType::kString) {
        e->const_storage.assign(v.s());
        v.set_s(e->const_storage);
      }
      e->constant = v;
      break;
    }
    case ExprKind::kSlotRef: {
      int64_t slot;
      WIRE_READ(r->SVarint(&slot));
      WIRE_READ(slot >= 0 && slot <= 1 << 20);
      e->slot = static_cast<int>(slot);
      break;
    }
    case ExprKind::kAccess: {
      uint8_t at;
      WIRE_READ(r->Str(&e->table));
      WIRE_READ(r->Str(&e->path));
      WIRE_READ(r->U8(&at));
      WIRE_READ(at <= static_cast<uint8_t>(ValueType::kNumeric));
      e->access_type = static_cast<ValueType>(at);
      break;
    }
    case ExprKind::kArrayContains: {
      uint8_t at;
      WIRE_READ(r->Str(&e->table));
      WIRE_READ(r->Str(&e->path));
      WIRE_READ(r->Str(&e->pattern));
      WIRE_READ(r->Str(&e->const_storage));
      WIRE_READ(r->U8(&at));
      WIRE_READ(at <= static_cast<uint8_t>(ValueType::kNumeric));
      e->access_type = static_cast<ValueType>(at);
      e->constant = exec::Value::String(e->const_storage);
      break;
    }
    case ExprKind::kBinary: {
      uint8_t op;
      WIRE_READ(r->U8(&op));
      WIRE_READ(op <= static_cast<uint8_t>(exec::BinOp::kOr));
      e->bin_op = static_cast<exec::BinOp>(op);
      break;
    }
    case ExprKind::kUnary: {
      uint8_t op;
      WIRE_READ(r->U8(&op));
      WIRE_READ(op <= static_cast<uint8_t>(exec::UnOp::kIsNotNull));
      e->un_op = static_cast<exec::UnOp>(op);
      break;
    }
    case ExprKind::kLike: {
      uint8_t negated;
      WIRE_READ(r->Str(&e->pattern));
      WIRE_READ(r->U8(&negated));
      WIRE_READ(negated <= 1);
      e->negated = negated != 0;
      e->like = std::make_shared<exec::CompiledLike>(e->pattern);
      break;
    }
    case ExprKind::kIn: {
      uint8_t negated;
      WIRE_READ(r->U8(&negated));
      WIRE_READ(negated <= 1);
      e->negated = negated != 0;
      uint64_t n;
      WIRE_READ(r->Varint(&n));
      WIRE_READ(n <= kMaxExprArgs);
      // in_list views in_storage, which must never reallocate: room for n.
      e->in_storage.reserve(n);
      for (uint64_t i = 0; i < n; i++) {
        exec::Value v;
        WIRE_READ(exec::DecodeValue(r, nullptr, &v));
        if (v.type == ValueType::kString) {
          e->in_storage.emplace_back(v.s());
          v.set_s(e->in_storage.back());
        }
        e->in_list.push_back(v);
      }
      break;
    }
    case ExprKind::kSubstring: {
      int64_t start, len;
      WIRE_READ(r->SVarint(&start));
      WIRE_READ(r->SVarint(&len));
      WIRE_READ(start >= -(1 << 30) && start <= (1 << 30));
      WIRE_READ(len >= 0 && len <= (1 << 30));
      e->substr_start = static_cast<int>(start);
      e->substr_len = static_cast<int>(len);
      break;
    }
    case ExprKind::kCastTo: {
      uint8_t at;
      WIRE_READ(r->U8(&at));
      WIRE_READ(at <= static_cast<uint8_t>(ValueType::kNumeric));
      e->access_type = static_cast<ValueType>(at);
      break;
    }
    case ExprKind::kCase:
    case ExprKind::kExtractYear:
      break;
  }
  uint64_t num_args;
  WIRE_READ(r->Varint(&num_args));
  WIRE_READ(num_args <= kMaxExprArgs);
  // Arity sanity for the fixed-arity kinds the evaluator indexes into.
  switch (e->kind) {
    case ExprKind::kBinary:
      WIRE_READ(num_args == 2);
      break;
    case ExprKind::kUnary:
    case ExprKind::kLike:
    case ExprKind::kSubstring:
    case ExprKind::kExtractYear:
    case ExprKind::kCastTo:
      WIRE_READ(num_args == 1);
      break;
    case ExprKind::kIn:
      WIRE_READ(num_args == 1);
      break;
    case ExprKind::kConst:
    case ExprKind::kSlotRef:
    case ExprKind::kAccess:
    case ExprKind::kArrayContains:
      WIRE_READ(num_args == 0);
      break;
    case ExprKind::kCase:
      WIRE_READ(num_args >= 1);
      break;
  }
  e->args.reserve(num_args);
  for (uint64_t i = 0; i < num_args; i++) {
    exec::ExprPtr arg;
    JSONTILES_RETURN_NOT_OK(DecodeExpr(r, depth + 1, &arg));
    e->args.push_back(std::move(arg));
  }
  *out = std::move(e);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fragment codec
// ---------------------------------------------------------------------------

void EncodeFragment(const FragmentMsg& msg, std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.U32(msg.fragment_id);
  w.U32(msg.epoch);
  w.U32(msg.shard_index);
  w.U8(msg.enable_tile_skipping ? 1 : 0);
  w.Varint(msg.accesses.size());
  for (const exec::ExprPtr& a : msg.accesses) EncodeExpr(*a, &w);
  w.U8(msg.filter != nullptr ? 1 : 0);
  if (msg.filter != nullptr) EncodeExpr(*msg.filter, &w);
  w.Varint(msg.null_rejecting_paths.size());
  for (const std::string& p : msg.null_rejecting_paths) w.Str(p);
  w.Varint(msg.range_predicates.size());
  for (const exec::RangePredicate& rp : msg.range_predicates) {
    w.Str(rp.path);
    w.U8(static_cast<uint8_t>(rp.access_type));
    w.U8(static_cast<uint8_t>(rp.op));
    exec::EncodeValue(rp.constant, &w);
  }
  w.Varint(msg.group_by.size());
  for (const exec::ExprPtr& g : msg.group_by) EncodeExpr(*g, &w);
  w.Varint(msg.aggs.size());
  for (const exec::AggSpec& a : msg.aggs) {
    w.U8(static_cast<uint8_t>(a.kind));
    w.U8(a.arg != nullptr ? 1 : 0);
    if (a.arg != nullptr) EncodeExpr(*a.arg, &w);
  }
}

Status DecodeFragment(const std::vector<uint8_t>& payload, FragmentMsg* msg) {
  using exec::ValueType;
  ByteReader r(payload.data(), payload.size());
  WIRE_READ(r.U32(&msg->fragment_id));
  WIRE_READ(r.U32(&msg->epoch));
  WIRE_READ(r.U32(&msg->shard_index));
  uint8_t flags;
  WIRE_READ(r.U8(&flags));
  WIRE_READ(flags <= 1);
  msg->enable_tile_skipping = flags != 0;

  uint64_t n;
  WIRE_READ(r.Varint(&n));
  WIRE_READ(n <= kMaxFragmentItems);
  for (uint64_t i = 0; i < n; i++) {
    exec::ExprPtr e;
    JSONTILES_RETURN_NOT_OK(DecodeExpr(&r, 0, &e));
    msg->accesses.push_back(std::move(e));
  }
  uint8_t has_filter;
  WIRE_READ(r.U8(&has_filter));
  WIRE_READ(has_filter <= 1);
  if (has_filter != 0) {
    JSONTILES_RETURN_NOT_OK(DecodeExpr(&r, 0, &msg->filter));
  }
  WIRE_READ(r.Varint(&n));
  WIRE_READ(n <= kMaxFragmentItems);
  for (uint64_t i = 0; i < n; i++) {
    std::string p;
    WIRE_READ(r.Str(&p));
    msg->null_rejecting_paths.push_back(std::move(p));
  }
  WIRE_READ(r.Varint(&n));
  WIRE_READ(n <= kMaxFragmentItems);
  for (uint64_t i = 0; i < n; i++) {
    exec::RangePredicate rp;
    uint8_t at, op;
    WIRE_READ(r.Str(&rp.path));
    WIRE_READ(r.U8(&at));
    WIRE_READ(at <= static_cast<uint8_t>(ValueType::kNumeric));
    rp.access_type = static_cast<ValueType>(at);
    WIRE_READ(r.U8(&op));
    WIRE_READ(op <= static_cast<uint8_t>(exec::BinOp::kOr));
    rp.op = static_cast<exec::BinOp>(op);
    WIRE_READ(exec::DecodeValue(&r, nullptr, &rp.constant));
    if (rp.constant.type == ValueType::kString) {
      // Anchor the constant in the fragment's pool (deque: stable refs).
      msg->string_pool.emplace_back(rp.constant.s());
      rp.constant.set_s(msg->string_pool.back());
    }
    msg->range_predicates.push_back(std::move(rp));
  }
  WIRE_READ(r.Varint(&n));
  WIRE_READ(n <= kMaxFragmentItems);
  for (uint64_t i = 0; i < n; i++) {
    exec::ExprPtr e;
    JSONTILES_RETURN_NOT_OK(DecodeExpr(&r, 0, &e));
    msg->group_by.push_back(std::move(e));
  }
  WIRE_READ(r.Varint(&n));
  WIRE_READ(n <= kMaxFragmentItems);
  for (uint64_t i = 0; i < n; i++) {
    exec::AggSpec spec;
    uint8_t kind, has_arg;
    WIRE_READ(r.U8(&kind));
    WIRE_READ(kind <= static_cast<uint8_t>(exec::AggSpec::Kind::kCountDistinct));
    spec.kind = static_cast<exec::AggSpec::Kind>(kind);
    WIRE_READ(r.U8(&has_arg));
    WIRE_READ(has_arg <= 1);
    if (has_arg != 0) {
      exec::ExprPtr arg;
      JSONTILES_RETURN_NOT_OK(DecodeExpr(&r, 0, &arg));
      spec.arg = std::move(arg);
    }
    msg->aggs.push_back(std::move(spec));
  }
  WIRE_READ(r.AtEnd());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Row batch codec
// ---------------------------------------------------------------------------

void EncodeRowBatch(uint32_t fragment_id, uint32_t epoch,
                    const exec::RowSet& rows, size_t row_begin,
                    size_t row_end, std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.U32(fragment_id);
  w.U32(epoch);
  w.U32(static_cast<uint32_t>(row_end - row_begin));
  for (size_t i = row_begin; i < row_end; i++) exec::EncodeRow(rows[i], &w);
}

Status DecodeRowBatch(const std::vector<uint8_t>& payload, Arena* arena,
                      uint32_t* fragment_id, uint32_t* epoch,
                      exec::RowSet* out) {
  ByteReader r(payload.data(), payload.size());
  uint32_t num_rows;
  WIRE_READ(r.U32(fragment_id));
  WIRE_READ(r.U32(epoch));
  WIRE_READ(r.U32(&num_rows));
  for (uint32_t i = 0; i < num_rows; i++) {
    uint16_t width;
    WIRE_READ(r.U16(&width));
    // Rows decode straight into the flat array, so every row must have the
    // width of the rows already there.
    WIRE_READ(out->empty() || width == out->width());
    for (exec::Value& v : out->AppendRow(width)) {
      WIRE_READ(exec::DecodeValue(&r, arena, &v));
    }
  }
  WIRE_READ(r.AtEnd());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Aggregate partial codec
// ---------------------------------------------------------------------------

namespace {

void EncodeAccumulator(const exec::Accumulator& acc, ByteWriter* w) {
  const auto& sum = acc.sum_f;
  w->U8(static_cast<uint8_t>((acc.sum_is_float ? 1 : 0) |
                             (acc.sum_seen ? 2 : 0) |
                             (sum.has_special() ? 4 : 0)));
  w->I64(acc.sum_i);
  w->I64(acc.count);
  w->Varint(sum.partials().size());
  for (double p : sum.partials()) w->F64(p);
  w->F64(sum.special());
  exec::EncodeValue(acc.min, w);
  exec::EncodeValue(acc.max, w);
  w->Varint(acc.distinct_count());
  if (acc.distinct) {
    for (uint64_t h : *acc.distinct) w->U64(h);
  }
}

// `partials` is the caller's scratch, reused across accumulators.
Status DecodeAccumulator(ByteReader* r, Arena* arena,
                         std::vector<double>* partials,
                         exec::Accumulator* acc) {
  uint8_t flags;
  WIRE_READ(r->U8(&flags));
  WIRE_READ(flags <= 7);
  acc->sum_is_float = (flags & 1) != 0;
  acc->sum_seen = (flags & 2) != 0;
  const bool has_special = (flags & 4) != 0;
  WIRE_READ(r->I64(&acc->sum_i));
  WIRE_READ(r->I64(&acc->count));
  uint64_t n;
  WIRE_READ(r->Varint(&n));
  WIRE_READ(n <= r->remaining() / 8);
  partials->resize(n);
  for (uint64_t i = 0; i < n; i++) WIRE_READ(r->F64(&(*partials)[i]));
  double special;
  WIRE_READ(r->F64(&special));
  acc->sum_f = exec::ExactFloatSum::Restore(*partials, special, has_special);
  WIRE_READ(exec::DecodeValue(r, arena, &acc->min));
  WIRE_READ(exec::DecodeValue(r, arena, &acc->max));
  WIRE_READ(r->Varint(&n));
  WIRE_READ(n <= r->remaining() / 8);
  for (uint64_t i = 0; i < n; i++) {
    uint64_t h;
    WIRE_READ(r->U64(&h));
    acc->AddDistinct(h);
  }
  return Status::OK();
}

}  // namespace

void EncodeAggPartial(uint32_t fragment_id, uint32_t epoch,
                      const exec::GroupTable& groups,
                      std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.U32(fragment_id);
  w.U32(epoch);
  w.Varint(groups.size());
  for (uint32_t g = 0; g < groups.size(); g++) {
    w.U64(groups.hash(g));
    exec::EncodeRow(exec::RowView(groups.keys(g), groups.num_keys()), &w);
    const exec::Accumulator* accs = groups.accs(g);
    for (size_t a = 0; a < groups.num_aggs(); a++) {
      EncodeAccumulator(accs[a], &w);
    }
  }
}

Status DecodeAggPartial(const std::vector<uint8_t>& payload, size_t num_keys,
                        const std::vector<exec::AggSpec>& aggs, Arena* arena,
                        AggPartial* out) {
  ByteReader r(payload.data(), payload.size());
  WIRE_READ(r.U32(&out->fragment_id));
  WIRE_READ(r.U32(&out->epoch));
  uint64_t num_groups;
  WIRE_READ(r.Varint(&num_groups));
  WIRE_READ(num_groups <= r.remaining());
  out->groups = exec::GroupTable(num_keys, aggs);
  std::vector<exec::Value> keys(num_keys);
  std::vector<double> partials;
  for (uint64_t i = 0; i < num_groups; i++) {
    uint64_t hash;
    WIRE_READ(r.U64(&hash));
    uint16_t width;
    WIRE_READ(r.U16(&width));
    WIRE_READ(width == num_keys);
    for (exec::Value& key : keys) WIRE_READ(exec::DecodeValue(&r, arena, &key));
    bool created = false;
    const uint32_t g = out->groups.FindOrInsert(hash, keys.data(), &created);
    WIRE_READ(created);
    exec::Accumulator* accs = out->groups.accs(g);
    for (size_t a = 0; a < aggs.size(); a++) {
      JSONTILES_RETURN_NOT_OK(DecodeAccumulator(&r, arena, &partials, &accs[a]));
    }
  }
  WIRE_READ(r.AtEnd());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fragment-done and error codecs
// ---------------------------------------------------------------------------

void EncodeFragmentDone(const FragmentDoneMsg& msg,
                        std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.U32(msg.fragment_id);
  w.U32(msg.epoch);
  w.U64(msg.rows_out);
  w.U64(msg.tiles_scanned);
  w.U64(msg.tiles_skipped);
  w.U64(msg.wall_nanos);
}

Status DecodeFragmentDone(const std::vector<uint8_t>& payload,
                          FragmentDoneMsg* msg) {
  ByteReader r(payload.data(), payload.size());
  WIRE_READ(r.U32(&msg->fragment_id));
  WIRE_READ(r.U32(&msg->epoch));
  WIRE_READ(r.U64(&msg->rows_out));
  WIRE_READ(r.U64(&msg->tiles_scanned));
  WIRE_READ(r.U64(&msg->tiles_skipped));
  WIRE_READ(r.U64(&msg->wall_nanos));
  WIRE_READ(r.AtEnd());
  return Status::OK();
}

void EncodeStatus(const Status& st, std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.U8(static_cast<uint8_t>(st.code()));
  w.Str(st.message());
}

Status DecodeStatus(const std::vector<uint8_t>& payload, Status* decoded) {
  ByteReader r(payload.data(), payload.size());
  uint8_t code;
  WIRE_READ(r.U8(&code));
  WIRE_READ(code >= 1 && code <= static_cast<uint8_t>(kMaxStatusCode));
  std::string message;
  WIRE_READ(r.Str(&message));
  WIRE_READ(r.AtEnd());
  *decoded = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

void EncodeFragmentError(const FragmentErrorMsg& msg,
                         std::vector<uint8_t>* out) {
  ByteWriter w(out);
  w.U32(msg.fragment_id);
  w.U32(msg.epoch);
  w.U8(static_cast<uint8_t>(msg.error.code()));
  w.Str(msg.error.message());
}

Status DecodeFragmentError(const std::vector<uint8_t>& payload,
                           FragmentErrorMsg* msg) {
  ByteReader r(payload.data(), payload.size());
  WIRE_READ(r.U32(&msg->fragment_id));
  WIRE_READ(r.U32(&msg->epoch));
  uint8_t code;
  WIRE_READ(r.U8(&code));
  WIRE_READ(code >= 1 && code <= static_cast<uint8_t>(kMaxStatusCode));
  std::string message;
  WIRE_READ(r.Str(&message));
  WIRE_READ(r.AtEnd());
  msg->error = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

}  // namespace jsontiles::dist
