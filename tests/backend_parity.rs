//! Property tests: `CpuBackend` and `ChipBackend` are bit-identical for
//! every `PolyBackend` operation, across random polynomials, both the
//! silicon and a custom `ChipConfig`, and three modulus widths: 47 and
//! 60 bits, where both backends compute on `Barrett64` (the simulator
//! narrows canonical operands), and 109 bits, where both compute on
//! `Barrett128` in the simulated SRAM in place.
//!
//! This is the contract the unified execution API stands on: an
//! accelerator backend may account cycles and wire traffic however its
//! hardware dictates, but the *values* it produces must match the
//! software reference exactly — the paper's pre-silicon verification
//! discipline (Section III-J), promoted to a machine-checked property.

use cofhee::arith::primes::ntt_prime;
use cofhee::core::{ChipBackend, CpuBackend, PolyBackend};
use cofhee::poly::naive;
use cofhee::sim::ChipConfig;
use proptest::collection::vec as pvec;
use proptest::prelude::*;

const N: usize = 64;

/// Modulus widths the properties draw from.
const WIDTHS: [u32; 3] = [47, 60, 109];

fn modulus(width: usize) -> u128 {
    ntt_prime(WIDTHS[width], N).unwrap()
}

/// A deliberately non-silicon microarchitecture: different multiplier
/// depth, burst structure, and pass setup. Timing shifts; values must
/// not.
fn custom_config() -> ChipConfig {
    ChipConfig {
        mult_latency: 7,
        stream_burst: 8,
        burst_gap: 3,
        pass_setup: 11,
        stage_overhead: 9,
        ..ChipConfig::silicon()
    }
}

fn config_for(custom: bool) -> ChipConfig {
    if custom {
        custom_config()
    } else {
        ChipConfig::silicon()
    }
}

fn backends(custom: bool, width: usize) -> (CpuBackend, ChipBackend) {
    let q = modulus(width);
    (CpuBackend::new(q, N).unwrap(), ChipBackend::connect(config_for(custom), q, N).unwrap())
}

/// Applies one op on a backend and returns the downloaded result.
fn apply(be: &mut dyn PolyBackend, op: usize, a: &[u128], b: &[u128], c: u128) -> Vec<u128> {
    let ha = be.upload(a).unwrap();
    let hb = be.upload(b).unwrap();
    let hr = match op {
        0 => be.ntt(ha).unwrap(),
        1 => be.intt(ha).unwrap(),
        2 => be.hadamard(ha, hb).unwrap(),
        3 => be.pointwise_add(ha, hb).unwrap(),
        4 => be.pointwise_sub(ha, hb).unwrap(),
        5 => be.scalar_mul(ha, c).unwrap(),
        _ => be.poly_mul(ha, hb).unwrap(),
    };
    let out = be.download(hr).unwrap();
    for h in [ha, hb, hr] {
        be.free(h);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_op_is_bit_identical(
        a in pvec(any::<u128>(), N),
        b in pvec(any::<u128>(), N),
        c in any::<u128>(),
        op in 0usize..7,
        custom in any::<bool>(),
        width in 0usize..WIDTHS.len(),
    ) {
        let (mut cpu, mut chip) = backends(custom, width);
        let on_cpu = apply(&mut cpu, op, &a, &b, c);
        let on_chip = apply(&mut chip, op, &a, &b, c);
        prop_assert_eq!(on_cpu, on_chip);
    }

    #[test]
    fn upload_reduces_and_round_trips(
        a in pvec(any::<u128>(), N),
        custom in any::<bool>(),
        width in 0usize..WIDTHS.len(),
    ) {
        let q = modulus(width);
        let reduced: Vec<u128> = a.iter().map(|&x| x % q).collect();
        let (mut cpu, mut chip) = backends(custom, width);
        for be in [&mut cpu as &mut dyn PolyBackend, &mut chip as &mut dyn PolyBackend] {
            let h = be.upload(&a).unwrap();
            prop_assert_eq!(be.download(h).unwrap(), reduced.clone());
            be.free(h);
        }
    }

    #[test]
    fn transform_round_trip_is_identity(
        a in pvec(any::<u128>(), N),
        custom in any::<bool>(),
        width in 0usize..WIDTHS.len(),
    ) {
        let q = modulus(width);
        let reduced: Vec<u128> = a.iter().map(|&x| x % q).collect();
        let (mut cpu, mut chip) = backends(custom, width);
        for be in [&mut cpu as &mut dyn PolyBackend, &mut chip as &mut dyn PolyBackend] {
            let h = be.upload(&a).unwrap();
            let f = be.ntt(h).unwrap();
            let r = be.intt(f).unwrap();
            prop_assert_eq!(be.download(r).unwrap(), reduced.clone());
        }
    }

    #[test]
    fn poly_mul_matches_the_naive_oracle(
        a in pvec(any::<u128>(), N),
        b in pvec(any::<u128>(), N),
        custom in any::<bool>(),
        width in 0usize..WIDTHS.len(),
    ) {
        let q = modulus(width);
        let ring = cofhee::arith::Barrett128::new(q).unwrap();
        let ar: Vec<u128> = a.iter().map(|&x| x % q).collect();
        let br: Vec<u128> = b.iter().map(|&x| x % q).collect();
        let oracle = naive::negacyclic_mul(&ring, &ar, &br).unwrap();
        let (mut cpu, mut chip) = backends(custom, width);
        for be in [&mut cpu as &mut dyn PolyBackend, &mut chip as &mut dyn PolyBackend] {
            let ha = be.upload(&a).unwrap();
            let hb = be.upload(&b).unwrap();
            let hp = be.poly_mul(ha, hb).unwrap();
            prop_assert_eq!(be.download(hp).unwrap(), oracle.clone());
        }
    }
}

#[test]
fn chip_telemetry_differs_by_config_but_values_do_not() {
    // Cycle accounting is microarchitectural; results are mathematics.
    let q = modulus(1);
    let a: Vec<u128> = (0..N as u128).map(|i| (i * 131 + 17) % q).collect();
    let mut silicon = ChipBackend::connect(ChipConfig::silicon(), q, N).unwrap();
    let mut custom = ChipBackend::connect(custom_config(), q, N).unwrap();
    let hs = silicon.upload(&a).unwrap();
    let hc = custom.upload(&a).unwrap();
    let fs = silicon.ntt(hs).unwrap();
    let fc = custom.ntt(hc).unwrap();
    assert_eq!(silicon.download(fs).unwrap(), custom.download(fc).unwrap());
    assert_ne!(
        silicon.report().cycles,
        custom.report().cycles,
        "distinct microarchitectures cost distinct cycles"
    );
}
