//! CKKS per-primitive breakdown on the CoFHEE chip — the
//! HEAAN-Demystified view: where do the cycles of an approximate
//! homomorphic multiply actually go?
//!
//! Part 1 prices every evaluator primitive (add, add_plain, mul_plain,
//! the 2×2 tensor, relinearization, rescale) in isolation on the
//! simulated silicon at `O0`, reporting serial vs overlapped cycles,
//! DMA traffic, the share of serial time the command/DMA overlap hides,
//! and the CPU-backend wall time for the same recorded streams.
//! Relinearization gets two rows: the evaluator's own path, whose key
//! is resident on its dies, and the self-contained `relin_streams` a
//! farm ships to borrowed dies with the key uploaded in-stream. The key
//! is stored in NTT form, so the two are one dataflow — the run
//! *asserts* the same bits, the same transform count (`digits + 2` per
//! limb) and the same overlapped chip cycles — and it asserts the
//! headline of every CKKS profiling study: the key switch
//! (relinearization) dominates the tensor product.
//!
//! Part 2 runs the fused multiply→relin→rescale pipeline at `O0` and
//! `O1`, asserting bit-identical limb residues and that the stream
//! compiler's rewrites never cost cycles.
//!
//! ```sh
//! cargo run --release -p cofhee_bench --bin ckks_breakdown            # n = 2^10
//! cargo run --release -p cofhee_bench --bin ckks_breakdown -- --smoke # n = 2^6
//! ```

use cofhee_ckks::{
    CkksCiphertext, CkksDecryptor, CkksEncoder, CkksEncryptor, CkksError, CkksEvaluator,
    CkksKeyGenerator, CkksParams,
};
use cofhee_core::{BackendFactory, ChipBackendFactory, CpuBackendFactory, OpReport, StreamReport};
use cofhee_opt::{LimbEngine, OptLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Primitive<'a> = (&'a str, Box<dyn Fn(&CkksEvaluator) -> Result<CkksCiphertext, CkksError>>);

/// One table row from a run's stream and op telemetry.
fn print_row(name: &str, n: usize, sr: &StreamReport, ops: &OpReport, cpu_s: f64) {
    let hidden =
        100.0 * (sr.serial_cycles - sr.overlapped_cycles) as f64 / sr.serial_cycles.max(1) as f64;
    let per_transform = (n as u64 / 2) * u64::from(n.trailing_zeros());
    println!(
        "{name:<20} | {:>5} | {:>12} {:>12} {:>6.1}% | {:>9} {:>9} | {:>9.1} {:>11.1}",
        ops.butterflies / per_transform,
        sr.serial_cycles,
        sr.overlapped_cycles,
        hidden,
        sr.uploaded_bytes,
        sr.downloaded_bytes,
        sr.overlapped_seconds * 1e6,
        cpu_s * 1e6,
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let log_n = cofhee_bench::sized(10u32, 6);
    let reps = cofhee_bench::sized(5, 2);
    let n = 1usize << log_n;

    let params = CkksParams::insecure_testing(n)?;
    let mut rng = StdRng::seed_from_u64(2023);
    let kg = CkksKeyGenerator::new(&params);
    let sk = kg.secret_key(&mut rng)?;
    let pk = kg.public_key(&sk, &mut rng)?;
    let rlk = kg.relin_key(&sk, &mut rng)?;
    let encoder = CkksEncoder::new(&params);
    let enc = CkksEncryptor::new(&params, pk);
    let dec = CkksDecryptor::new(&params, sk);

    let va: Vec<f64> = (0..params.slots()).map(|i| (i as f64).sin()).collect();
    let vb: Vec<f64> = (0..params.slots()).map(|i| (i as f64).cos() * 0.5).collect();
    let a = enc.encrypt(&encoder.encode(&va)?, &mut rng)?;
    let b = enc.encrypt(&encoder.encode(&vb)?, &mut rng)?;
    let pt = encoder.encode(&vb)?;

    let chip = CkksEvaluator::with_backend(&params, &ChipBackendFactory::silicon())?;
    let cpu = CkksEvaluator::with_backend(&params, &CpuBackendFactory)?;

    // Stage inputs for the isolated relin/rescale rows.
    let tensor = chip.multiply(&a, &b)?;
    let relinned = chip.relinearize(&tensor, &rlk)?;

    println!(
        "CKKS primitive breakdown on the chip (n = 2^{log_n}, {} limbs, \u{0394} = 2^33, O0)\n",
        params.top_level().limbs()
    );
    println!(
        "{:<20} | {:>5} | {:>12} {:>12} {:>7} | {:>9} {:>9} | {:>9} {:>11}",
        "primitive",
        "NTTs",
        "serial cc",
        "overlap cc",
        "hidden",
        "DMA up B",
        "DMA dn B",
        "chip µs",
        "cpu wall µs"
    );

    let t = tensor.clone();
    let r = relinned.clone();
    let prims: Vec<Primitive> = vec![
        (
            "add",
            Box::new({
                let (a, b) = (a.clone(), b.clone());
                move |ev| ev.add(&a, &b)
            }),
        ),
        (
            "add_plain",
            Box::new({
                let (a, pt) = (a.clone(), pt.clone());
                move |ev| ev.add_plain(&a, &pt)
            }),
        ),
        (
            "mul_plain",
            Box::new({
                let (a, pt) = (a.clone(), pt.clone());
                move |ev| ev.mul_plain(&a, &pt)
            }),
        ),
        (
            "multiply (tensor)",
            Box::new({
                let (a, b) = (a.clone(), b.clone());
                move |ev| ev.multiply(&a, &b)
            }),
        ),
        (
            "relinearize",
            Box::new({
                let rlk = rlk.clone();
                move |ev| ev.relinearize(&t, &rlk)
            }),
        ),
        ("rescale", Box::new(move |ev: &CkksEvaluator| ev.rescale(&r))),
    ];

    let mut rows = Vec::new();
    for (name, op) in &prims {
        chip.reset_backend_telemetry();
        let chip_out = op(&chip)?;
        let sr = chip.backend_stream_report();
        let (cpu_out, cpu_s) = cofhee_bench::time_best(reps, || op(&cpu).expect("cpu op"));
        assert_eq!(chip_out.components(), cpu_out.components(), "{name}: chip diverged from CPU");
        print_row(name, n, &sr, &chip.backend_report(), cpu_s);
        rows.push((*name, sr, chip.backend_report()));
    }

    // The same key switch as a farm ships it: self-contained streams,
    // the stored key uploaded in-stream, on dies that hold nothing of
    // the session.
    let borrowed = |factory: &dyn BackendFactory| LimbEngine::new(factory, params.moduli(), n);
    let (dies, cores) = (borrowed(&ChipBackendFactory::silicon())?, borrowed(&CpuBackendFactory)?);
    let inline = |engine: &LimbEngine| {
        engine.run(0, chip.relin_streams(&tensor, &rlk).expect("record")).expect("run")
    };
    let outs = inline(&dies);
    let (_, cpu_s) = cofhee_bench::time_best(reps, || inline(&cores));
    let shipped = chip.ciphertext_from_limb_outputs(outs, tensor.level(), tensor.scale())?;
    assert_eq!(shipped.components(), relinned.components(), "inline key diverged from resident");
    let inline_sr = dies.stream_report();
    print_row("relinearize (inline)", n, &inline_sr, &dies.report(), cpu_s);

    let row = |want: &str| rows.iter().find(|(n, ..)| *n == want).expect("measured");
    // One dataflow, two operand forms: the shipped key switch retires the
    // transforms of the resident one in the same overlapped cycles.
    let (_, resident_sr, resident_ops) = row("relinearize");
    assert_eq!(
        dies.report().butterflies,
        resident_ops.butterflies,
        "shipped and resident key switch must run the same transforms"
    );
    assert_eq!(
        inline_sr.overlapped_cycles, resident_sr.overlapped_cycles,
        "shipped and resident key switch must cost the same overlapped cycles"
    );

    // The profiling headline: digit-decomposition key switching costs
    // more than the tensor product it cleans up after.
    let (mult_cc, relin_cc) = (row("multiply (tensor)").1.serial_cycles, resident_sr.serial_cycles);
    assert!(
        relin_cc > mult_cc,
        "relinearization ({relin_cc} cc) must dominate the tensor product ({mult_cc} cc)"
    );
    println!(
        "\nrelin/tensor cycle ratio: {:.2}x, key resident or shipped \
         (key switching dominates, as in every CKKS profile)\n",
        relin_cc as f64 / mult_cc as f64,
    );

    // Part 2: the fused pipeline under the stream compiler.
    println!("multiply+relin+rescale under the stream compiler:");
    println!("{:<6} | {:>12} {:>12} | {:>4}", "level", "serial cc", "overlap cc", "elim");
    let mut baseline: Option<(CkksCiphertext, u64)> = None;
    for level in [OptLevel::O0, OptLevel::O1] {
        let ev = CkksEvaluator::with_backend(&params, &ChipBackendFactory::silicon())?
            .with_opt_level(level);
        let prod = ev.multiply_relin_rescale(&a, &b, &rlk)?;
        let sr = ev.backend_stream_report();
        let lv = format!("{level}");
        println!(
            "{lv:<6} | {:>12} {:>12} | {:>4}",
            sr.serial_cycles, sr.overlapped_cycles, sr.ops_eliminated
        );
        match &baseline {
            None => baseline = Some((prod, sr.overlapped_cycles)),
            Some((base, base_cc)) => {
                assert_eq!(
                    base.components(),
                    prod.components(),
                    "{level}: limb residues diverged from O0"
                );
                assert!(
                    sr.overlapped_cycles <= *base_cc,
                    "{level}: rewrites cost cycles ({} vs {base_cc})",
                    sr.overlapped_cycles
                );
            }
        }
    }

    // End-to-end sanity: the measured pipeline still computes a·b.
    let (prod, _) = baseline.expect("O0 ran");
    let got = encoder.decode(&dec.decrypt(&prod)?)?;
    for (i, (&g, (&x, &y))) in got.iter().zip(va.iter().zip(&vb)).enumerate() {
        assert!((g - x * y).abs() < 1e-2, "slot {i}: {g} vs {}", x * y);
    }
    println!("\n(O1 is bit-identical to O0 and never slower; product decodes to a·b)");
    Ok(())
}
