#include "dist/worker.h"

#include <errno.h>
#include <stdio.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "dist/wire.h"
#include "exec/scan.h"
#include "storage/shard.h"
#include "util/failpoint.h"

namespace jsontiles::dist {

namespace {

/// Cut row batches at roughly this much encoded payload so the coordinator
/// can overlap decode with worker-side scanning and no frame balloons.
constexpr size_t kBatchBytes = 256u << 10;

/// A worker waits (nearly) indefinitely for the next fragment between
/// queries — being idle is its normal state.
constexpr int kIdleTimeoutMs = 3600 * 1000;

/// But once a frame's first byte has arrived, the rest must follow promptly:
/// a coordinator that opens a header and stalls is cut off here instead of
/// riding the idle budget for an hour.
constexpr int kFrameTimeoutMs = 60 * 1000;

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

size_t EstimatedRowBytes(exec::RowView row) {
  size_t bytes = 4;
  for (const exec::Value& v : row) {
    bytes += 12;
    if (v.type == exec::ValueType::kString) bytes += v.s().size();
  }
  return bytes;
}

/// Worker state for one coordinator connection.
struct WorkerState {
  int fd = -1;
  storage::ShardManifestInfo manifest;
  std::vector<size_t> assigned;  // ascending shard indices
  std::vector<std::unique_ptr<storage::Relation>> relations;  // parallel
  uint64_t num_threads = 1;

  const storage::Relation* ShardRelation(size_t shard_index) const {
    auto it = std::lower_bound(assigned.begin(), assigned.end(), shard_index);
    if (it == assigned.end() || *it != shard_index) return nullptr;
    return relations[static_cast<size_t>(it - assigned.begin())].get();
  }
};

Status SendError(WorkerState& state, const Status& error) {
  std::vector<uint8_t> payload;
  EncodeStatus(error, &payload);
  return WriteFrame(state.fd, FrameType::kError, payload, nullptr);
}

/// All result frames (RowBatch / AggResult / FragmentDone) funnel through
/// here so the chaos harness can SIGKILL the worker at a randomized frame
/// boundary: `dist.worker_crash_frame=nth:N` dies exactly before this
/// process's N-th result frame reaches the wire.
Status WriteResultFrame(WorkerState& state, FrameType type,
                        const std::vector<uint8_t>& payload) {
  if (JSONTILES_FAILPOINT_FIRES("dist.worker_crash_frame")) {
    _exit(3);  // simulated hard crash at a frame boundary
  }
  return WriteFrame(state.fd, type, payload, nullptr);
}

Status HandleOpen(WorkerState& state, const std::vector<uint8_t>& payload) {
  OpenMsg open;
  JSONTILES_RETURN_NOT_OK(DecodeOpen(payload, &open));
  auto manifest = storage::ReadShardManifest(open.manifest_path);
  JSONTILES_RETURN_NOT_OK(manifest.status());
  // Build into locals and commit only on success: a failed (re-)open — the
  // coordinator re-opens live workers mid-query when shards migrate off a
  // dead one — must leave the previous assignment fully usable.
  std::vector<size_t> assigned;
  for (uint64_t s : open.shards) {
    if (s >= manifest.ValueOrDie().shard_count()) {
      return Status::InvalidArgument("assigned shard index out of range");
    }
    assigned.push_back(static_cast<size_t>(s));
  }
  auto relations =
      storage::OpenShardSubset(manifest.ValueOrDie(), assigned);
  JSONTILES_RETURN_NOT_OK(relations.status());
  state.manifest = std::move(manifest.ValueOrDie());
  state.assigned = std::move(assigned);
  state.relations = std::move(relations.ValueOrDie());
  state.num_threads = open.num_threads;

  OpenOkMsg ok;
  for (const auto& rel : state.relations) ok.shard_rows.push_back(rel->num_rows());
  std::vector<uint8_t> reply;
  EncodeOpenOk(ok, &reply);
  return WriteFrame(state.fd, FrameType::kOpenOk, reply, nullptr);
}

/// Execute one fragment end to end; frames written: row batches / an
/// aggregate partial, then FragmentDone. A Status return here means the
/// fragment failed *before* any result frame went out, so the caller can
/// still report it as a clean kFragmentError.
Status RunFragment(WorkerState& state, const FragmentMsg& frag, bool is_agg) {
  JSONTILES_FAILPOINT_RETURN("dist.worker_exec");
  if (JSONTILES_FAILPOINT_FIRES("dist.worker_crash")) {
    _exit(3);  // simulated hard crash: no error frame, no cleanup
  }
  if (JSONTILES_FAILPOINT_FIRES("dist.worker_hang")) {
    // Simulated wedge (deadlock, runaway loop): alive but silent. The
    // coordinator's idle-liveness deadline must kill and replace us.
    while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  const uint64_t start_nanos = NowNanos();

  const storage::Relation* shard = state.ShardRelation(frag.shard_index);
  if (shard == nullptr) {
    return Status::InvalidArgument("fragment names an unassigned shard " +
                                   std::to_string(frag.shard_index));
  }

  exec::ExecOptions options;
  options.num_threads = static_cast<size_t>(state.num_threads);
  options.enable_tile_skipping = frag.enable_tile_skipping;
  exec::QueryContext ctx(options);

  exec::ScanSpec spec;
  spec.relation = shard;
  spec.rowid_base = storage::ShardedRelation::RowIdBase(frag.shard_index);
  spec.accesses = frag.accesses;
  spec.filter = frag.filter;
  spec.null_rejecting_paths = frag.null_rejecting_paths;
  spec.range_predicates = frag.range_predicates;

  exec::RowSet rows = exec::ScanExec(spec, ctx);
  JSONTILES_RETURN_NOT_OK(ctx.ConsumeStatus());

  FragmentDoneMsg done;
  done.fragment_id = frag.fragment_id;
  done.epoch = frag.epoch;
  done.tiles_scanned = ctx.tiles_scanned;
  done.tiles_skipped = ctx.tiles_skipped;

  std::vector<uint8_t> payload;
  if (JSONTILES_FAILPOINT_FIRES("dist.worker_stale_frame")) {
    // Simulated late frame from a superseded dispatch: a result frame whose
    // epoch does not match the current one. The coordinator must reject it
    // (dist.frames_rejected_stale) without disturbing the real results.
    if (is_agg) {
      exec::GroupTable stale(frag.group_by.size(), frag.aggs);
      exec::AccumulateRows(rows, frag.group_by, frag.aggs, ctx.arena(0),
                           &stale);
      EncodeAggPartial(frag.fragment_id, frag.epoch + 1000, stale, &payload);
      JSONTILES_RETURN_NOT_OK(
          WriteResultFrame(state, FrameType::kAggResult, payload));
    } else {
      payload.clear();
      EncodeRowBatch(frag.fragment_id, frag.epoch + 1000, rows, 0,
                     std::min<size_t>(rows.size(), 1), &payload);
      JSONTILES_RETURN_NOT_OK(
          WriteResultFrame(state, FrameType::kRowBatch, payload));
    }
    payload.clear();
  }
  if (is_agg) {
    exec::GroupTable groups(frag.group_by.size(), frag.aggs);
    exec::AccumulateRows(rows, frag.group_by, frag.aggs, ctx.arena(0),
                         &groups);
    done.rows_out = groups.size();
    if (!groups.empty()) {
      EncodeAggPartial(frag.fragment_id, frag.epoch, groups, &payload);
      JSONTILES_RETURN_NOT_OK(
          WriteResultFrame(state, FrameType::kAggResult, payload));
    }
  } else {
    done.rows_out = rows.size();
    size_t begin = 0;
    while (begin < rows.size()) {
      size_t end = begin;
      size_t est = 0;
      while (end < rows.size() && (end == begin || est < kBatchBytes)) {
        est += EstimatedRowBytes(rows[end]);
        end++;
      }
      payload.clear();
      EncodeRowBatch(frag.fragment_id, frag.epoch, rows, begin, end,
                     &payload);
      JSONTILES_RETURN_NOT_OK(
          WriteResultFrame(state, FrameType::kRowBatch, payload));
      begin = end;
    }
  }

  done.wall_nanos = NowNanos() - start_nanos;
  payload.clear();
  EncodeFragmentDone(done, &payload);
  return WriteResultFrame(state, FrameType::kFragmentDone, payload);
}

}  // namespace

Status ParseFailpointArg(const std::string& arg) {
  const size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) {
    return Status::InvalidArgument("expected name=spec: " + arg);
  }
  const std::string name = arg.substr(0, eq);
  const std::string spec = arg.substr(eq + 1);
  if (spec == "always") {
    failpoint::Enable(name, failpoint::Spec::Always());
    return Status::OK();
  }
  const auto parse_count = [&](const std::string& prefix,
                               uint64_t* n) -> bool {
    if (spec.rfind(prefix, 0) != 0) return false;
    const std::string digits = spec.substr(prefix.size());
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      return false;
    }
    *n = std::strtoull(digits.c_str(), nullptr, 10);
    return *n > 0;
  };
  uint64_t n = 0;
  if (parse_count("nth:", &n)) {
    failpoint::Enable(name, failpoint::Spec::Nth(n));
    return Status::OK();
  }
  if (parse_count("everyk:", &n)) {
    failpoint::Enable(name, failpoint::Spec::EveryK(n));
    return Status::OK();
  }
  return Status::InvalidArgument("unknown failpoint spec: " + arg);
}

int RunWorker(const WorkerOptions& options) {
  struct sockaddr_un addr;
  if (options.socket_path.empty() ||
      options.socket_path.size() >= sizeof(addr.sun_path)) {
    fprintf(stderr, "jsontiles_workerd: bad socket path\n");
    return 2;
  }
  int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    perror("jsontiles_workerd: socket");
    return 1;
  }
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, options.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ::unlink(options.socket_path.c_str());
  if (::bind(listen_fd, reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 1) != 0) {
    perror("jsontiles_workerd: bind/listen");
    ::close(listen_fd);
    return 1;
  }
  int fd = ::accept(listen_fd, nullptr, nullptr);
  ::close(listen_fd);
  if (fd < 0) {
    perror("jsontiles_workerd: accept");
    return 1;
  }

  WorkerState state;
  state.fd = fd;

  HelloMsg hello;
  hello.pid = static_cast<int64_t>(getpid());
  std::vector<uint8_t> payload;
  EncodeHello(hello, &payload);
  if (!WriteFrame(fd, FrameType::kHello, payload, nullptr).ok()) {
    ::close(fd);
    return 1;
  }

  int exit_code = 0;
  while (true) {
    FrameType type;
    Status st =
        ReadFrame(fd, kIdleTimeoutMs, kFrameTimeoutMs, &type, &payload,
                  nullptr);
    if (!st.ok()) {
      // Clean EOF = coordinator went away (its destructor closes first on
      // error paths); anything else is a protocol/transport failure.
      exit_code = st.code() == StatusCode::kOutOfRange ? 0 : 1;
      if (exit_code != 0) {
        fprintf(stderr, "jsontiles_workerd: %s\n", st.ToString().c_str());
      }
      break;
    }
    if (type == FrameType::kShutdown) {
      if (JSONTILES_FAILPOINT_FIRES("dist.worker_ignore_shutdown")) {
        // Simulated unresponsive worker: never exits on its own. The
        // coordinator's teardown must escalate to SIGKILL and still reap.
        while (true) std::this_thread::sleep_for(std::chrono::seconds(1));
      }
      break;
    }

    switch (type) {
      case FrameType::kOpen:
        st = HandleOpen(state, payload);
        if (!st.ok()) {
          // Report and stay alive: the error frame takes kOpenOk's place in
          // the stream, so the coordinator stays frame-aligned — and commits
          // nothing, so the previous assignment still serves.
          if (!SendError(state, st).ok()) exit_code = 1;
          st = Status::OK();
        }
        break;
      case FrameType::kScanFragment:
      case FrameType::kAggFragment: {
        FragmentMsg frag;
        Status decode_st = DecodeFragment(payload, &frag);
        if (!decode_st.ok()) {
          // Cannot name a fragment we failed to decode.
          if (!SendError(state, decode_st).ok()) exit_code = 1;
          break;
        }
        Status frag_st =
            RunFragment(state, frag, type == FrameType::kAggFragment);
        if (!frag_st.ok()) {
          // A deterministic fragment failure: report it with the fragment's
          // identity (kFragmentError takes the fragment's place in the
          // stream) so the coordinator fails the query cleanly instead of
          // retrying a fragment that would fail again.
          FragmentErrorMsg err;
          err.fragment_id = frag.fragment_id;
          err.epoch = frag.epoch;
          err.error = frag_st;
          std::vector<uint8_t> reply;
          EncodeFragmentError(err, &reply);
          if (!WriteFrame(state.fd, FrameType::kFragmentError, reply, nullptr)
                   .ok()) {
            exit_code = 1;
          }
        }
        break;
      }
      default:
        st = Status::ParseError("unexpected frame type " +
                                std::to_string(static_cast<int>(type)));
        break;
    }
    if (exit_code != 0) break;
    if (!st.ok()) {
      // Report and stay alive: the error frame takes the failed exchange's
      // place in the stream, so the coordinator stays frame-aligned.
      if (!SendError(state, st).ok()) {
        exit_code = 1;
        break;
      }
    }
  }
  ::close(fd);
  ::unlink(options.socket_path.c_str());
  return exit_code;
}

}  // namespace jsontiles::dist
