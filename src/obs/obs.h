// Observability macros: counters, gauges, histograms and trace spans in the
// hot paths. Per-query EXPLAIN ANALYZE profiling is gated at runtime by a
// null PlanProfile pointer instead.
//
// Call sites cache the metric pointer in a function-local static, so the
// registry mutex is touched once per call site, not once per call.

#ifndef JSONTILES_OBS_OBS_H_
#define JSONTILES_OBS_OBS_H_

#include "obs/metrics.h"
#include "obs/trace.h"

#define JSONTILES_COUNTER_ADD(name, delta)                       \
  do {                                                           \
    static ::jsontiles::obs::Counter* jsontiles_obs_counter_ =   \
        ::jsontiles::obs::MetricsRegistry::Default().GetCounter( \
            name);                                               \
    jsontiles_obs_counter_->Add(delta);                          \
  } while (0)

#define JSONTILES_GAUGE_SET(name, value)                       \
  do {                                                         \
    static ::jsontiles::obs::Gauge* jsontiles_obs_gauge_ =     \
        ::jsontiles::obs::MetricsRegistry::Default().GetGauge( \
            name);                                             \
    jsontiles_obs_gauge_->Set(value);                          \
  } while (0)

/// Record into a histogram with the default (latency-shaped) buckets.
#define JSONTILES_HIST_RECORD(name, value)                         \
  do {                                                             \
    static ::jsontiles::obs::Histogram* jsontiles_obs_hist_ =      \
        ::jsontiles::obs::MetricsRegistry::Default().GetHistogram( \
            name);                                                 \
    jsontiles_obs_hist_->Record(value);                            \
  } while (0)

#define JSONTILES_OBS_CONCAT_INNER(a, b) a##b
#define JSONTILES_OBS_CONCAT(a, b) JSONTILES_OBS_CONCAT_INNER(a, b)

/// RAII trace span covering the rest of the enclosing scope.
#define JSONTILES_TRACE_SPAN(name)                  \
  ::jsontiles::obs::TraceSpan JSONTILES_OBS_CONCAT( \
      jsontiles_obs_span_, __LINE__)(name)

#endif  // JSONTILES_OBS_OBS_H_
