//! Property tests: `CpuBackend` and `ChipBackend` are bit-identical for
//! every `StreamOp` compute kind — each run as a one-node stream over
//! operands the backend already stores — across random polynomials,
//! both the silicon and a custom `ChipConfig`, and three modulus widths: 47 and
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
use cofhee::core::{ChipBackend, CpuBackend, OpStream, PolyBackend, StreamHandle};
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

/// A deliberately non-silicon microarchitecture: different burst
/// structure, pass setup and stage turnaround. Timing shifts; values
/// must not.
fn custom_config() -> ChipConfig {
    ChipConfig {
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

/// Number of compute kinds in the `StreamOp` vocabulary.
const KINDS: usize = 8;

/// Stores `a` and `b` on the backend, runs compute kind `op` over them as
/// a one-node stream, and returns the stream's output.
fn apply(be: &mut dyn PolyBackend, op: usize, a: &[u128], b: &[u128], c: u128) -> Vec<u128> {
    let stored = [be.upload(a).unwrap(), be.upload(b).unwrap()];
    let mut st = OpStream::new(N);
    let [ha, hb] = stored.map(|h| st.input(h));
    let node = match op {
        0 => st.ntt(ha),
        1 => st.intt(ha),
        2 => st.hadamard(ha, hb),
        3 => st.pointwise_add(ha, hb),
        4 => st.pointwise_sub(ha, hb),
        5 => st.scalar_mul(ha, c),
        6 => st.hadamard_intt(ha, hb),
        _ => st.hadamard_add(ha, hb, hb),
    }
    .unwrap();
    st.output(node).unwrap();
    let out = be.execute_stream(&st).unwrap().outputs.remove(0);
    // Inputs are borrowed: still there, still what was stored.
    let q = be.modulus();
    assert_eq!(be.download(stored[0]).unwrap(), a.iter().map(|&x| x % q).collect::<Vec<_>>());
    for h in stored {
        be.free(h);
    }
    out
}

/// `op` over freshly uploaded `operands`, as a stream of its own.
fn stream_of(
    operands: &[&[u128]],
    op: impl FnOnce(&mut OpStream, &[StreamHandle]) -> StreamHandle,
) -> OpStream {
    let mut st = OpStream::new(N);
    let ups: Vec<_> = operands.iter().map(|p| st.upload(p.to_vec()).unwrap()).collect();
    let out = op(&mut st, &ups);
    st.output(out).unwrap();
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_op_is_bit_identical(
        a in pvec(any::<u128>(), N),
        b in pvec(any::<u128>(), N),
        c in any::<u128>(),
        op in 0usize..KINDS,
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
            let st = stream_of(&[&a], |st, ups| {
                let f = st.ntt(ups[0]).unwrap();
                st.intt(f).unwrap()
            });
            prop_assert_eq!(&be.execute_stream(&st).unwrap().outputs[0], &reduced);
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
            // Algorithm 2 as a stream records it: NTT, NTT, Hadamard + iNTT.
            let st = stream_of(&[&a, &b], |st, ups| {
                let (fa, fb) = (st.ntt(ups[0]).unwrap(), st.ntt(ups[1]).unwrap());
                st.hadamard_intt(fa, fb).unwrap()
            });
            prop_assert_eq!(&be.execute_stream(&st).unwrap().outputs[0], &oracle);
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
    let st = stream_of(&[&a], |st, ups| st.ntt(ups[0]).unwrap());
    assert_eq!(
        silicon.execute_stream(&st).unwrap().outputs,
        custom.execute_stream(&st).unwrap().outputs
    );
    assert_ne!(
        silicon.report().cycles,
        custom.report().cycles,
        "distinct microarchitectures cost distinct cycles"
    );
}
