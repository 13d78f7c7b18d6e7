//! The benchmark's own in-memory span recorder: spans are opened around
//! calls into each layer's public functions, kept in memory, and turned
//! into a per-layer self-time table (and optionally a file) at the end.

use std::time::Instant;

use crate::json::Json;

/// One closed span. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Which op (evaluator call, round trip, round, request chunk) the
    /// span belongs to; spans of one op share it.
    pub op: u32,
    /// The crate the time is charged to (`bench` for the benchmark itself).
    pub layer: &'static str,
    pub name: &'static str,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    /// Off, `span` only calls its closure: no clock reads, nothing kept.
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

/// One row of the layer table: self time summed over every span with
/// this `(layer, name)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub layer: &'static str,
    pub name: &'static str,
    pub self_ns: u64,
    pub count: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self { enabled: true, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }
}

impl Recorder {
    /// A recorder that records nothing, for untraced runs of code that is
    /// written once around `span`.
    pub fn off() -> Self {
        Self { enabled: false, ..Self::default() }
    }

    /// Starts the next op; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span charged to `layer`; spans opened by `f`
    /// (through the recorder it is handed) become its children.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { op: self.op, layer, name, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Self time of every span: its duration minus its direct children's.
    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.duration_ns());
            }
        }
        own
    }

    /// The layer table, largest self time first.
    pub fn table(&self) -> Vec<LayerRow> {
        let mut rows: Vec<LayerRow> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            match rows.iter_mut().find(|r| r.layer == s.layer && r.name == s.name) {
                Some(r) => {
                    r.self_ns += own;
                    r.count += 1;
                }
                None => {
                    rows.push(LayerRow { layer: s.layer, name: s.name, self_ns: own, count: 1 })
                }
            }
        }
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
        rows
    }

    /// Summed self time (ms) of the spans named `layer.name`, per `per`
    /// (the op count); 0 when no such span was recorded.
    pub fn self_ms_per(&self, layer: &str, name: &str, per: u64) -> f64 {
        self.table()
            .iter()
            .find(|r| r.layer == layer && r.name == name)
            .map_or(0.0, |r| r.self_ns as f64 / 1e6 / per.max(1) as f64)
    }

    /// Mean self time (µs) of one span named `layer.name`.
    pub fn mean_self_us(&self, layer: &str, name: &str) -> f64 {
        self.table()
            .iter()
            .find(|r| r.layer == layer && r.name == name)
            .map_or(0.0, |r| r.self_ns as f64 / 1e3 / r.count.max(1) as f64)
    }

    /// Summed *duration* (children included) of the spans `layer.name`,
    /// in ms per `per`.
    pub fn total_ms_per(&self, layer: &str, name: &str, per: u64) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e6 / per.max(1) as f64
    }

    /// Share of the root spans' time that no child span covers: what the
    /// stages do not account for.
    pub fn unattributed_share(&self) -> f64 {
        let own = self.self_times();
        let (mut root_total, mut root_self) = (0u64, 0u64);
        for (s, own) in self.spans.iter().zip(own) {
            if s.parent.is_none() {
                root_total += s.duration_ns();
                root_self += own;
            }
        }
        if root_total == 0 {
            0.0
        } else {
            root_self as f64 / root_total as f64
        }
    }

    /// Prints the workload's rows of the workload × layer table.
    pub fn print_table(&self, workload: &str) {
        let rows = self.table();
        let total: u64 = rows.iter().map(|r| r.self_ns).sum();
        println!(
            "{:<24} {:<22} {:>12} {:>7} {:>8}",
            "workload", "layer", "wall ms", "share", "count"
        );
        for r in &rows {
            println!(
                "{:<24} {:<22} {:>12.3} {:>6.1}% {:>8}",
                workload,
                format!("{}.{}", r.layer, r.name),
                r.self_ns as f64 / 1e6,
                r.self_ns as f64 / total.max(1) as f64 * 100.0,
                r.count,
            );
        }
    }

    /// The spans as the `.trace.json` records, at most `limit` of them
    /// (whole ops are what a reader wants; the table covers the rest).
    pub fn to_json(&self, workload: &str, limit: usize) -> Vec<Json> {
        self.spans
            .iter()
            .take(limit)
            .map(|s| {
                Json::obj([
                    ("workload", Json::str(workload)),
                    ("op", Json::Num(f64::from(s.op))),
                    ("layer", Json::str(s.layer)),
                    ("name", Json::str(s.name)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p)))),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-set times: op [0,100) with children
    /// a [10,40) and b [50,90), b holding a grandchild c [60,70).
    fn fixture() -> Recorder {
        let mut r = Recorder::default();
        let s = |layer, name, parent, start_ns, end_ns| Span {
            op: 1,
            layer,
            name,
            parent,
            start_ns,
            end_ns,
        };
        r.spans = vec![
            s("bench", "op", None, 0, 100),
            s("bfv", "a", Some(0), 10, 40),
            s("core", "b", Some(0), 50, 90),
            s("bfv", "c", Some(2), 60, 70),
        ];
        r
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let r = fixture();
        assert_eq!(r.self_times(), vec![30, 30, 30, 10]);
        // Self times tile the root exactly.
        assert_eq!(r.self_times().iter().sum::<u64>(), 100);
        assert!((r.unattributed_share() - 0.30).abs() < 1e-12);
        assert!((r.total_ms_per("core", "b", 1) - 40e-6).abs() < 1e-15);
        assert!((r.self_ms_per("core", "b", 1) - 30e-6).abs() < 1e-15);
        assert_eq!(r.self_ms_per("farm", "absent", 1), 0.0);
    }

    #[test]
    fn closures_nest_and_ops_tag_spans() {
        let mut r = Recorder::default();
        r.next_op();
        let v = r.span("bench", "op", |r| {
            r.span("bfv", "record", |_| 1)
                + r.span("core", "execute", |r| r.span("sim", "x", |_| 2))
        });
        assert_eq!(v, 3);
        let names: Vec<_> = r.spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("op", None, 1),
                ("record", Some(0), 1),
                ("execute", Some(0), 1),
                ("x", Some(2), 1)
            ]
        );
        for s in &r.spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert_eq!(r.to_json("w", 2).len(), 2);
        let rows = r.table();
        assert_eq!(rows.iter().map(|r| r.count).sum::<u64>(), 4);
    }
}
