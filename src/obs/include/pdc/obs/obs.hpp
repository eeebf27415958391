#pragma once
// Umbrella header for pdc::obs — the one tracing/metrics substrate under
// the runtime (core), comms (mp), I/O (extmem) and workload (mapreduce,
// life, os) layers. See metrics.hpp and trace.hpp.
//
// Spans are always compiled in, behind the runtime tracing flag: a
// disabled span costs one relaxed atomic load, which is what the
// "instrumentation is pay-for-what-you-use" acceptance bench measures.

#include "pdc/obs/metrics.hpp"
#include "pdc/obs/trace.hpp"

// Two-step concat so __COUNTER__ expands before pasting.
#define PDC_OBS_CONCAT2(a, b) a##b
#define PDC_OBS_CONCAT(a, b) PDC_OBS_CONCAT2(a, b)

/// Trace the enclosing scope as a span named `name` (a string literal).
#define PDC_TRACE_SCOPE(name) \
  ::pdc::obs::TraceScope PDC_OBS_CONCAT(pdc_obs_scope_, __COUNTER__)(name)
