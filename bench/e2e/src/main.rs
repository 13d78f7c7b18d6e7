//! `e2e_profile`: the paper-scale, layer-attributed benchmark of the
//! CoFHEE stack. See `bench/e2e/README.md`.
//!
//! ```sh
//! e2e_profile --workload <name> --seed <n> --seconds <s> --trace <0|1>   # one workload
//! e2e_profile suite [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--label <l>]
//! e2e_profile compare <a.json> <b.json>
//! ```

mod alloc;
mod calib;
mod catalog;
mod compare;
mod fixtures;
mod harness;
mod json;
mod probes;
mod spans;
mod staged;
mod stats;
mod suite;
mod w_bfv;
mod w_ckks;
mod w_client;
mod w_farm;
mod w_gateway;

use std::process::ExitCode;

use harness::{BenchResult, Report, RunConfig, Workload};
use w_farm::FarmSpec;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

fn run<W: Workload>(cfg: &RunConfig, trace: bool) -> BenchResult<Report> {
    if trace {
        harness::traced::<W>(cfg)
    } else {
        harness::end_to_end::<W>(cfg)
    }
}

fn run_workload(name: &str, cfg: &RunConfig, trace: bool) -> BenchResult<Report> {
    match name {
        w_bfv::BfvMul::NAME => run::<w_bfv::BfvMul>(cfg, trace),
        w_ckks::CkksMul::NAME => run::<w_ckks::CkksMul>(cfg, trace),
        w_client::ClientRoundtrip::NAME => run::<w_client::ClientRoundtrip>(cfg, trace),
        w_farm::Cryptonets::NAME => run::<w_farm::Farm<w_farm::Cryptonets>>(cfg, trace),
        w_farm::Logreg::NAME => run::<w_farm::Farm<w_farm::Logreg>>(cfg, trace),
        w_gateway::GatewayOpen::NAME => run::<w_gateway::GatewayOpen>(cfg, trace),
        other => Err(format!("unknown workload `{other}`").into()),
    }
}

/// `--key value` pairs and bare flags after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.0.iter().position(|a| a == name).and_then(|i| self.0.get(i + 1)).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> BenchResult<T> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}").into()),
        }
    }
}

fn one_workload(args: &Args) -> BenchResult<bool> {
    let name = args.value("--workload").ok_or("--workload <name> is required")?;
    let seconds: f64 = args.parsed("--seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]").into());
    }
    let cfg =
        RunConfig { seed: args.parsed("--seed", 2023)?, seconds, smoke: args.flag("--smoke") };
    let trace = args.parsed::<u8>("--trace", 0)? != 0;
    let report = run_workload(name, &cfg, trace)?;
    if args.flag("--emit-detail") {
        println!("#detail {}", report.detail.compact());
        println!("#spans {}", json::Json::Arr(report.spans.clone()).compact());
    }
    println!("{}", report.result_line());
    // The result line carries `correct`; a run that printed one succeeded.
    Ok(true)
}

fn compare_files(argv: &[String]) -> BenchResult<bool> {
    match argv {
        [a, b] => compare::compare(a.as_ref(), b.as_ref()),
        _ => Err("usage: e2e_profile compare <a.json> <b.json>".into()),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("suite") => suite::suite(&Args(argv[1..].to_vec())),
        Some("compare") => compare_files(&argv[1..]),
        _ => one_workload(&Args(argv)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("e2e_profile: {e}");
            ExitCode::from(1)
        }
    }
}
