//! Every name this benchmark prints: the workloads, the end-to-end
//! metrics with their regression bounds, and the per-layer metrics.
//! `BENCHMARK.json` at the repository root lists the same names; a unit
//! test holds the two together.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How far a metric may worsen before `compare` calls it `worse`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Share of the base run's value.
    Relative(f64),
    /// In the metric's own unit.
    Absolute(f64),
}

/// Why each is here is told where it is defined (`w_*.rs`) and in the
/// README.
pub const WORKLOADS: [&str; 6] = [
    "bfv_mul_n13",
    "ckks_mul_n13",
    "client_roundtrip_n13",
    "farm_cryptonets_n12",
    "farm_logreg_mixed_n12",
    "gateway_open_n11",
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Workload-name prefixes the metric applies to; empty means all.
    pub applies: &'static [&'static str],
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.applies.is_empty() || self.applies.iter().any(|p| workload.starts_with(p))
    }
}

const SIMULATED: &[&str] = &["farm_", "gateway_"];
const GATEWAY: &[&str] = &["gateway_"];
const EVALUATOR: &[&str] = &["bfv_", "ckks_", "client_"];

/// The end-to-end metrics of a result file. A metric that does not apply
/// to a workload is absent there, never 0.
pub const END_TO_END: [EndToEnd; 10] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: Bound::Relative(0.20),
        applies: &[],
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.10),
        applies: &[],
    },
    EndToEnd {
        name: "host_op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: Bound::Relative(0.10),
        applies: EVALUATOR,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        // Two runs of one commit differ by up to 14 % on the small
        // workloads (heap arenas of the per-limb threads).
        bound: Bound::Relative(0.20),
        applies: &[],
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Bound::Relative(0.01),
        applies: SIMULATED,
    },
    EndToEnd {
        name: "sim_dma_bytes_per_op",
        unit: "bytes",
        better: Better::Lower,
        bound: Bound::Relative(0.01),
        applies: SIMULATED,
    },
    EndToEnd {
        name: "sim_latency_cycles_p50",
        unit: "cycles",
        better: Better::Lower,
        bound: Bound::Relative(0.01),
        applies: GATEWAY,
    },
    EndToEnd {
        name: "sim_latency_cycles_p99",
        unit: "cycles",
        better: Better::Lower,
        bound: Bound::Relative(0.01),
        applies: GATEWAY,
    },
    EndToEnd {
        name: "failed_ops_share",
        unit: "share",
        better: Better::Lower,
        bound: Bound::Absolute(0.0),
        applies: &[],
    },
    EndToEnd {
        name: "headroom_bits",
        unit: "bits",
        better: Better::Higher,
        bound: Bound::Absolute(0.5),
        applies: &[],
    },
];

/// The end-to-end metrics the driver gates (`BENCHMARK.json`
/// `end_to_end`): those of [`END_TO_END`] that exist, and are never 0, on
/// every workload. The rest reach the driver as per-layer metrics.
pub const DRIVER_END_TO_END: [&str; 4] =
    ["setup_s", "host_ops_per_s", "peak_rss_mb", "headroom_bits"];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

use Better::{Higher, Lower};

/// Per-layer metrics `(name, unit, better)`, taken in the traced run. A
/// layer a workload bypasses did no work there and reads 0.
pub const PER_LAYER: [(&str, &str, Better); 73] = [
    ("arith.mulmod64_ns", "ns", Lower),
    ("arith.mulmod128_ns", "ns", Lower),
    ("arith.crt_compose_ns", "ns", Lower),
    ("poly.ntt64_ns", "ns", Lower),
    ("poly.intt64_ns", "ns", Lower),
    ("poly.ntt128_ns", "ns", Lower),
    ("poly.intt128_ns", "ns", Lower),
    ("poly.polymul128_ns", "ns", Lower),
    ("poly.twiddle_hit_share", "share", Higher),
    ("poly.pool_reuse_share", "share", Higher),
    ("core.execute_ms", "ms", Lower),
    ("core.decompose_ms", "ms", Lower),
    ("core.ntt_count", "count", Lower),
    ("core.hadamard_count", "count", Lower),
    ("core.dma_up_bytes", "bytes", Lower),
    ("core.dma_down_bytes", "bytes", Lower),
    ("core.overlap_hidden_share", "share", Higher),
    ("sim.cycles_per_op", "cycles", Lower),
    ("sim.host_ns_per_cycle", "ns", Lower),
    ("sim.ops_per_s", "1/s", Higher),
    ("sim.dma_bytes_per_op", "bytes", Lower),
    ("sim.latency_cycles_p50", "cycles", Lower),
    ("sim.latency_cycles_p99", "cycles", Lower),
    ("opt.optimize_ms", "ms", Lower),
    ("opt.ops_eliminated", "count", Higher),
    ("opt.ops_fused", "count", Higher),
    ("opt.cycles_saved_share", "share", Higher),
    ("bfv.record_ms", "ms", Lower),
    ("bfv.crt_ms", "ms", Lower),
    ("bfv.tensor_ms", "ms", Lower),
    ("bfv.relin_ms", "ms", Lower),
    ("bfv.encode_ms", "ms", Lower),
    ("bfv.encrypt_ms", "ms", Lower),
    ("bfv.decrypt_ms", "ms", Lower),
    ("ckks.record_ms", "ms", Lower),
    ("ckks.tensor_ms", "ms", Lower),
    ("ckks.relin_ms", "ms", Lower),
    ("ckks.rescale_ms", "ms", Lower),
    ("ckks.encode_ms", "ms", Lower),
    ("ckks.encrypt_ms", "ms", Lower),
    ("ckks.decrypt_ms", "ms", Lower),
    ("ckks.decode_ms", "ms", Lower),
    ("farm.job_ms.add", "ms", Lower),
    ("farm.job_ms.mulplain", "ms", Lower),
    ("farm.job_ms.mulrelin", "ms", Lower),
    ("farm.job_ms.ckks_mulrelin", "ms", Lower),
    ("farm.overhead_share", "share", Lower),
    ("farm.die_imbalance", "ratio", Lower),
    ("farm.mean_utilization", "share", Higher),
    ("farm.queue_cycles_p50", "cycles", Lower),
    ("farm.service_cycles_p50", "cycles", Lower),
    ("farm.streams_per_job", "count", Lower),
    ("service.submit_us", "us", Lower),
    ("service.put_us", "us", Lower),
    ("service.download_us", "us", Lower),
    ("service.drain_ms_per_req", "ms", Lower),
    ("service.overhead_share", "share", Lower),
    ("service.reject_share", "share", Lower),
    ("service.jain_fairness", "ratio", Higher),
    ("service.queue_cycles_p50", "cycles", Lower),
    ("service.p99_cycles_at_0.5x", "cycles", Lower),
    ("service.p99_cycles_at_1.2x", "cycles", Lower),
    ("service.reject_share_at_1.2x", "share", Lower),
    ("obs.trace_overhead_share", "share", Lower),
    ("obs.events_per_job", "count", Lower),
    ("bench.trace_overhead_share", "share", Lower),
    ("bench.unattributed_share", "share", Lower),
    ("bench.allocs_per_op", "count", Lower),
    ("bench.alloc_bytes_per_op", "bytes", Lower),
    ("bench.host_op_ms_p50", "ms", Lower),
    ("bench.host_op_ms_p95", "ms", Lower),
    ("bench.segment_spread", "share", Lower),
    ("bench.failed_ops_share", "share", Lower),
];

pub fn per_layer(name: &str) -> Option<(&'static str, Better)> {
    PER_LAYER.iter().find(|(n, _, _)| *n == name).map(|&(_, unit, better)| (unit, better))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn names(list: &Json) -> Vec<String> {
        list.as_arr()
            .expect("a list")
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).expect("a name").to_string())
            .collect()
    }

    /// `BENCHMARK.json` is hand-written to the driver's schema; this holds
    /// it to the names, units and directions the binary actually prints.
    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );

        assert_eq!(names(doc.get("workloads").unwrap()), WORKLOADS.map(String::from));
        for w in doc.get("workloads").unwrap().as_arr().unwrap() {
            let why = w.get("why").and_then(Json::as_str).unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'));
        }

        assert_eq!(names(doc.get("end_to_end").unwrap()), DRIVER_END_TO_END.map(String::from));
        for m in doc.get("end_to_end").unwrap().as_arr().unwrap() {
            let cat = end_to_end(m.get("name").and_then(Json::as_str).unwrap()).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(cat.unit));
            assert_eq!(m.get("better").and_then(Json::as_str), Some(cat.better.as_str()));
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
            assert!(cat.applies.is_empty(), "driver metrics apply to every workload");
        }

        assert_eq!(names(doc.get("per_layer").unwrap()), PER_LAYER.map(|(n, _, _)| n.to_string()));
        for m in doc.get("per_layer").unwrap().as_arr().unwrap() {
            let (unit, better) = per_layer(m.get("name").and_then(Json::as_str).unwrap()).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(m.get("better").and_then(Json::as_str), Some(better.as_str()));
        }
    }

    #[test]
    fn names_are_unique_and_within_the_driver_limits() {
        let mut all: Vec<&str> = WORKLOADS.to_vec();
        all.extend(END_TO_END.iter().map(|m| m.name));
        all.extend(PER_LAYER.iter().map(|(n, _, _)| *n));
        for n in &all {
            assert!(n.len() <= 64);
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count);
    }

    #[test]
    fn applicability_follows_the_workload_families() {
        let p99 = end_to_end("sim_latency_cycles_p99").unwrap();
        assert!(p99.applies_to("gateway_open_n11") && !p99.applies_to("farm_cryptonets_n12"));
        let sim = end_to_end("sim_ops_per_s").unwrap();
        assert!(sim.applies_to("farm_logreg_mixed_n12") && !sim.applies_to("bfv_mul_n13"));
        assert!(end_to_end("setup_s").unwrap().applies_to("client_roundtrip_n13"));
    }
}
