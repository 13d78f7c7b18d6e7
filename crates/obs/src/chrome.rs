//! Chrome trace-event JSON exporter. The output loads directly into
//! `chrome://tracing` or <https://ui.perfetto.dev>: one process per
//! event family (dies, one per tenant, gateway, compiler), one thread
//! row per track. Timestamps are *virtual die cycles* rendered into
//! the `ts` microsecond field unscaled, so one timeline microsecond
//! reads as one cycle and every duration stays an exact integer.
//!
//! Events are emitted one JSON object per line, sorted by
//! `(pid, tid, ts, duration descending)` — so `ts` is monotone within
//! every track in file order (a property the well-formedness checks in
//! [`crate::check`] gate on) and parent spans precede their children.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::metrics::escape_json;
use crate::trace::{EventKind, TraceEvent, Track};

/// Process-id stride between sections, so independent runs exported
/// into one file never share a track.
const SECTION_STRIDE: u64 = 1000;

fn ids(section: usize, track: Track) -> (u64, u64) {
    let base = SECTION_STRIDE * section as u64;
    match track {
        Track::DieCompute(d) => (base + 1, 2 * d as u64),
        Track::DieDma(d) => (base + 1, 2 * d as u64 + 1),
        Track::Gateway => (base + 2, 0),
        Track::Compiler => (base + 3, 0),
        Track::Job { tenant, seq } => (base + 10 + tenant % (SECTION_STRIDE - 10), seq),
    }
}

fn process_name(label: &str, track: Track) -> String {
    match track {
        Track::DieCompute(_) | Track::DieDma(_) => format!("{label} dies"),
        Track::Gateway => format!("{label} gateway"),
        Track::Compiler => format!("{label} compiler"),
        Track::Job { tenant, .. } => format!("{label} tenant {tenant}"),
    }
}

fn thread_name(track: Track) -> String {
    match track {
        Track::DieCompute(d) => format!("die {d} compute"),
        Track::DieDma(d) => format!("die {d} dma"),
        Track::Gateway => "events".to_string(),
        Track::Compiler => "passes".to_string(),
        Track::Job { seq, .. } => format!("job {seq}"),
    }
}

/// Builder for one Chrome trace-event JSON document, assembled from
/// one or more independently-recorded event sections.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    sections: Vec<(String, Vec<TraceEvent>)>,
}

impl ChromeTrace {
    /// An empty trace document.
    pub fn new() -> Self {
        ChromeTrace::default()
    }

    /// Adds a named section (an independent run); its tracks get their
    /// own process-id namespace in the rendered file.
    pub fn add_section(&mut self, label: &str, events: &[TraceEvent]) {
        self.sections.push((label.to_string(), events.to_vec()));
    }

    /// Renders the full JSON document.
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for (si, (label, events)) in self.sections.iter().enumerate() {
            // Name every process and thread row up front.
            let mut procs: BTreeMap<u64, String> = BTreeMap::new();
            let mut threads: BTreeMap<(u64, u64), String> = BTreeMap::new();
            for ev in events {
                let (pid, tid) = ids(si, ev.track);
                procs.entry(pid).or_insert_with(|| process_name(label, ev.track));
                threads.entry((pid, tid)).or_insert_with(|| thread_name(ev.track));
            }
            for (pid, name) in &procs {
                lines.push(format!(
                    "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
                     \"args\": {{\"name\": \"{}\"}}}}",
                    escape_json(name)
                ));
            }
            for ((pid, tid), name) in &threads {
                lines.push(format!(
                    "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
                     \"args\": {{\"name\": \"{}\"}}}}",
                    escape_json(name)
                ));
            }
            // Sorted so ts is monotone per track and parents precede
            // children at equal start cycles.
            let mut sorted: Vec<&TraceEvent> = events.iter().collect();
            sorted.sort_by_key(|e| {
                let (pid, tid) = ids(si, e.track);
                (pid, tid, e.kind.start(), std::cmp::Reverse(e.kind.duration()))
            });
            for ev in sorted {
                lines.push(render_event(si, label, ev));
            }
        }

        let mut out = String::from("{\n\"traceEvents\": [\n");
        for (i, line) in lines.iter().enumerate() {
            out.push_str(line);
            if i + 1 < lines.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(
            "],\n\"otherData\": {\"schema\": \"cofhee-trace-v1\", \
             \"timeUnit\": \"virtual die cycles rendered as microseconds\"}\n}\n",
        );
        out
    }
}

fn render_event(section: usize, label: &str, ev: &TraceEvent) -> String {
    let (pid, tid) = ids(section, ev.track);
    let mut args = String::new();
    for (k, v) in &ev.args {
        let _ = write!(args, "\"{k}\": {v}, ");
    }
    let args = args.trim_end_matches(", ");
    let cat = escape_json(label);
    let name = escape_json(ev.name);
    match ev.kind {
        EventKind::Span { start, end } => format!(
            "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"X\", \"pid\": {pid}, \
             \"tid\": {tid}, \"ts\": {start}, \"dur\": {}, \"args\": {{{args}}}}}",
            end - start
        ),
        EventKind::Instant { at } => format!(
            "{{\"name\": \"{name}\", \"cat\": \"{cat}\", \"ph\": \"i\", \"s\": \"t\", \
             \"pid\": {pid}, \"tid\": {tid}, \"ts\": {at}, \"args\": {{{args}}}}}"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{
        check_monotone_per_track, check_span_nesting, parse_chrome_events, validate_json,
    };

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::span(Track::DieCompute(0), "drain", 100, 180).arg("commands", 4),
            TraceEvent::span(Track::DieCompute(0), "drain", 180, 300),
            TraceEvent::instant(Track::DieCompute(0), "irq", 300),
            TraceEvent::span(Track::DieDma(0), "dma-upload", 40, 100).arg("bytes", 4096),
            TraceEvent::span(Track::Job { tenant: 1, seq: 0 }, "ct*ct+relin", 0, 400),
            TraceEvent::span(Track::Job { tenant: 1, seq: 0 }, "tensor", 0, 250),
            TraceEvent::span(Track::Job { tenant: 1, seq: 0 }, "relin", 250, 400),
            TraceEvent::instant(Track::Gateway, "reject-quota", 10).arg("tenant", 1),
            TraceEvent::instant(Track::Compiler, "cse", 0).arg("eliminated", 3),
        ]
    }

    #[test]
    fn render_is_valid_checkable_json() {
        let mut trace = ChromeTrace::new();
        trace.add_section("farm", &sample_events());
        let json = trace.render();
        validate_json(&json).expect("exported trace must be valid JSON");
        let events = parse_chrome_events(&json);
        assert_eq!(events.len(), 9, "every non-metadata event must parse back");
        check_monotone_per_track(&events).expect("ts must be monotone per track");
        check_span_nesting(&events).expect("spans must nest");
        assert!(json.contains("\"name\": \"die 0 compute\""));
        assert!(json.contains("\"name\": \"farm tenant 1\""));
        assert!(json.contains("\"name\": \"job 0\""));
    }

    #[test]
    fn sections_get_disjoint_pid_namespaces() {
        let events = sample_events();
        let mut trace = ChromeTrace::new();
        trace.add_section("run-a", &events);
        trace.add_section("run-b", &events);
        let json = trace.render();
        validate_json(&json).unwrap();
        let parsed = parse_chrome_events(&json);
        assert_eq!(parsed.len(), 18);
        check_monotone_per_track(&parsed).unwrap();
        check_span_nesting(&parsed).unwrap();
        let (a_pids, b_pids): (Vec<u64>, Vec<u64>) =
            parsed.iter().map(|e| e.pid).partition(|&p| p < SECTION_STRIDE);
        assert!(!a_pids.is_empty() && !b_pids.is_empty(), "both sections must be present");
    }

    #[test]
    fn parent_spans_precede_children_at_equal_start() {
        let mut trace = ChromeTrace::new();
        trace.add_section("farm", &sample_events());
        let json = trace.render();
        let job = json.find("\"name\": \"ct*ct+relin\"").unwrap();
        let tensor = json.find("\"name\": \"tensor\"").unwrap();
        assert!(job < tensor, "longer span at equal ts must render first");
    }
}
