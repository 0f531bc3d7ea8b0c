// Named, deterministic failure-injection points.
//
// A failpoint is a named hook compiled into a fallible code path (allocation,
// temp-file I/O, worker-task execution). Tests enable a failpoint by name
// with a trigger spec — fire always, on the Nth hit, or on every Kth hit —
// and the hook then reports failure exactly as the real fault would: the
// governor refuses a charge, the temp file returns an I/O Status, the worker
// chunk fails. Every remote/disk/memory failure mode becomes reproducible.
//
// Failpoints are compiled into every build. A hook whose name is not armed
// costs one relaxed atomic load (no lock, no lookup), so the hot paths keep
// them.
//
// Hit counting is per failpoint name and global to the process; tests should
// call failpoint::DisableAll() in their teardown.

#ifndef JSONTILES_UTIL_FAILPOINT_H_
#define JSONTILES_UTIL_FAILPOINT_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace jsontiles::failpoint {

struct Spec {
  enum class Mode : uint8_t {
    kAlways,  // fire on every hit
    kNth,     // fire on exactly the n-th hit (1-based)
    kEveryK,  // fire on every k-th hit (hit % k == 0)
  };
  Mode mode = Mode::kAlways;
  uint64_t n = 1;

  static Spec Always() { return Spec{Mode::kAlways, 1}; }
  static Spec Nth(uint64_t n) { return Spec{Mode::kNth, n}; }
  static Spec EveryK(uint64_t k) { return Spec{Mode::kEveryK, k}; }
};

/// Arm `name` with the given trigger. Re-enabling resets the hit count.
void Enable(const std::string& name, Spec spec);
void Disable(const std::string& name);
void DisableAll();

/// Hits recorded for an armed failpoint (0 when never enabled).
uint64_t Hits(const std::string& name);

/// Record a hit; true when the failpoint fires. Disabled or unknown names
/// never fire and cost one relaxed atomic load (no lock, no lookup).
bool Fires(const char* name);

/// Status form: Internal("failpoint '<name>' fired") when it fires.
Status Check(const char* name);

}  // namespace jsontiles::failpoint

/// True when the named failpoint fires (counts a hit).
#define JSONTILES_FAILPOINT_FIRES(name) (::jsontiles::failpoint::Fires(name))
/// Status::Internal when the named failpoint fires, OK otherwise.
#define JSONTILES_FAILPOINT_STATUS(name) (::jsontiles::failpoint::Check(name))
/// Propagate the injected failure to the caller (functions returning Status).
#define JSONTILES_FAILPOINT_RETURN(name) \
  JSONTILES_RETURN_NOT_OK(::jsontiles::failpoint::Check(name))

#endif  // JSONTILES_UTIL_FAILPOINT_H_
