//! Cycle-timeline tracer: spans and instant events stamped with
//! *virtual* die cycles, recorded into per-die / per-job tracks through
//! a lock-cheap [`TraceSink`].
//!
//! The design goal is provable zero-perturbation when tracing is off:
//! every instrumentation site guards on [`TraceSink::enabled`] (a
//! non-virtual `false` for [`NullSink`] behind one indirect call), so
//! the disabled path never allocates, never formats, and never touches
//! the simulated clock. The zero-perturbation property is enforced by a
//! proptest in the workspace test suite: any farm workload run with a
//! recording sink yields bit-identical ciphertexts and identical
//! virtual-cycle telemetry to the same run with [`NullSink`].

use std::fmt;
use std::sync::{Arc, Mutex};

/// Timeline a [`TraceEvent`] belongs to. Tracks map one-to-one onto
/// rows in the exported Chrome trace: two lanes per die (PE compute and
/// the DMA/link), one lane per scheduled job grouped under its tenant,
/// plus singleton lanes for gateway- and compiler-level events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// PE-compute lane of one die: FIFO batch drains execute here, and
    /// the span durations sum exactly to the die's busy cycles.
    DieCompute(usize),
    /// DMA/link lane of one die: command + operand uploads ahead of
    /// each drain, result readout after the final one.
    DieDma(usize),
    /// One scheduled job of one tenant: admit instant, queue span,
    /// phase chain (tensor → relin → rescale), materialize instant.
    Job {
        /// Tenant / session identifier that owns the job.
        tenant: u64,
        /// Scheduler-assigned job sequence number, unique per run.
        seq: u64,
    },
    /// Service-level gateway events: typed admission rejects and
    /// eviction cascades.
    Gateway,
    /// Stream-compiler events: one instant per optimization pass.
    Compiler,
}

/// Temporal shape of a [`TraceEvent`]: an interval or a point, both in
/// virtual die cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A closed interval of virtual cycles (`start <= end`).
    Span {
        /// First cycle covered by the span.
        start: u64,
        /// One past the last cycle covered by the span.
        end: u64,
    },
    /// A point event at one virtual cycle.
    Instant {
        /// Cycle the event fired at.
        at: u64,
    },
}

impl EventKind {
    /// Cycle the event begins at (the point itself for instants).
    pub fn start(&self) -> u64 {
        match *self {
            EventKind::Span { start, .. } => start,
            EventKind::Instant { at } => at,
        }
    }

    /// Duration in cycles (zero for instants).
    pub fn duration(&self) -> u64 {
        match *self {
            EventKind::Span { start, end } => end.saturating_sub(start),
            EventKind::Instant { .. } => 0,
        }
    }
}

/// One trace event: a named span or instant on a [`Track`], with a
/// small list of static-keyed numeric arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timeline the event belongs to.
    pub track: Track,
    /// Event label (static so building an event never allocates for
    /// the name).
    pub name: &'static str,
    /// Interval or point, in virtual cycles.
    pub kind: EventKind,
    /// Small numeric payload rendered into the Chrome `args` object.
    pub args: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// Builds a span covering `[start, end]` virtual cycles.
    pub fn span(track: Track, name: &'static str, start: u64, end: u64) -> Self {
        TraceEvent {
            track,
            name,
            kind: EventKind::Span { start, end: end.max(start) },
            args: Vec::new(),
        }
    }

    /// Builds an instant at one virtual cycle.
    pub fn instant(track: Track, name: &'static str, at: u64) -> Self {
        TraceEvent { track, name, kind: EventKind::Instant { at }, args: Vec::new() }
    }

    /// Attaches one numeric argument (builder style).
    #[must_use]
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        self.args.push((key, value));
        self
    }
}

/// Destination for trace events. Implementations must be cheap to call
/// and thread-safe; the default methods make "no sink" a no-op so the
/// disabled path costs one virtual `enabled()` check per site.
pub trait TraceSink: fmt::Debug + Send + Sync {
    /// Whether call sites should build and record events at all.
    /// Instrumentation guards on this before allocating anything.
    fn enabled(&self) -> bool {
        false
    }

    /// Records one event. No-op by default.
    fn record(&self, _event: TraceEvent) {}
}

/// Shared, clonable handle to a sink.
pub type SharedSink = Arc<dyn TraceSink>;

/// The disabled sink: `enabled()` is `false` and `record` drops the
/// event. Every instrumented component defaults to this.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// Convenience constructor for a shared [`NullSink`].
pub fn null_sink() -> SharedSink {
    Arc::new(NullSink)
}

/// In-memory recording sink backed by a mutex-guarded vector. The lock
/// is uncontended in the virtual-time simulator (one event at a time),
/// so recording stays lock-cheap while remaining safe for the
/// parallel host-execution paths.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// A recording sink that stamps virtual cycles only — fully
    /// deterministic, suitable for golden traces and tests.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A shared handle to a fresh deterministic recording sink.
    pub fn shared() -> Arc<MemorySink> {
        Arc::new(MemorySink::new())
    }

    /// Snapshot of all recorded events, in recording order.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("trace sink lock poisoned").clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().expect("trace sink lock poisoned").len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains all recorded events, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().expect("trace sink lock poisoned"))
    }
}

impl TraceSink for MemorySink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: TraceEvent) {
        self.events.lock().expect("trace sink lock poisoned").push(event);
    }
}

/// Tracing context handed to a backend before it executes a stream:
/// which sink to record into, which die's tracks to write, and the
/// virtual cycle the stream starts at (batch offsets are relative to
/// it).
#[derive(Debug, Clone)]
pub struct TraceContext {
    /// Destination sink.
    pub sink: SharedSink,
    /// Die index whose compute/DMA tracks the backend writes.
    pub die: usize,
    /// Virtual cycle the next stream starts executing at.
    pub base: u64,
}

impl TraceContext {
    /// A context wired to the [`NullSink`] — the default for every
    /// backend until a farm installs a real sink.
    pub fn disabled() -> Self {
        TraceContext { sink: null_sink(), die: 0, base: 0 }
    }

    /// A context recording into `sink` on die `die`, with stream
    /// cycle-zero at `base`.
    pub fn new(sink: SharedSink, die: usize, base: u64) -> Self {
        TraceContext { sink, die, base }
    }

    /// Whether the underlying sink records anything.
    pub fn enabled(&self) -> bool {
        self.sink.enabled()
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_drops_events() {
        let sink = null_sink();
        assert!(!sink.enabled());
        sink.record(TraceEvent::instant(Track::Gateway, "x", 1));
    }

    #[test]
    fn memory_sink_records_in_order() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        sink.record(TraceEvent::span(Track::DieCompute(0), "drain", 10, 20).arg("commands", 3));
        sink.record(TraceEvent::instant(Track::DieCompute(0), "irq", 20));
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "drain");
        assert_eq!(events[0].kind, EventKind::Span { start: 10, end: 20 });
        assert_eq!(events[0].args, vec![("commands", 3)]);
        assert_eq!(events[1].kind.duration(), 0);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn span_clamps_inverted_intervals() {
        let ev = TraceEvent::span(Track::DieDma(1), "dma", 30, 10);
        assert_eq!(ev.kind, EventKind::Span { start: 30, end: 30 });
        assert_eq!(ev.kind.start(), 30);
    }
}
