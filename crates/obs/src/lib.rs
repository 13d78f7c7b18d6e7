//! `cofhee_obs` — the observability layer for the CoFHEE stack.
//!
//! Three pieces, threaded through every layer from the chip-stream
//! evaluator up to the service gateway:
//!
//! 1. **Cycle-timeline tracer** ([`TraceSink`], [`TraceEvent`],
//!    [`Track`]): spans and instants stamped with *virtual* die cycles,
//!    recorded into per-die and per-job tracks. The default
//!    [`NullSink`] makes the disabled path zero-perturbation — a
//!    property the workspace proptests enforce bit-for-bit.
//! 2. **Metrics registry** ([`MetricsRegistry`], [`CycleHistogram`]):
//!    named counters, gauges, and log₂-bucketed saturating histograms
//!    that merge like the stack's `OpReport`, so million-job replays
//!    keep O(1) memory instead of sorting full latency vectors.
//! 3. **Exporters** ([`ChromeTrace`], [`MetricsRegistry::render_json`]):
//!    Chrome trace-event JSON loadable in `chrome://tracing` /
//!    Perfetto, and a machine-readable metrics snapshot. The [`check`]
//!    validators gate the output's well-formedness (valid JSON,
//!    monotone `ts` per track, span nesting) in the `trace_export`
//!    bench bin.
//!
//! The crate is a deliberate leaf: it depends on nothing but std, so
//! `cofhee_core` — the lowest instrumented layer — can depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod chrome;
mod metrics;
mod trace;

pub use chrome::ChromeTrace;
pub use metrics::{CycleHistogram, MetricValue, MetricsRegistry};
pub use trace::{
    null_sink, EventKind, MemorySink, NullSink, SharedSink, TraceContext, TraceEvent, TraceSink,
    Track,
};
