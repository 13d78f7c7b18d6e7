//! The stream compiler's traffic on the streams the library itself
//! records — ROADMAP item 2's question, "which passes ever fire on
//! builder-produced streams", answered by measurement and pinned so a
//! builder change that alters the answer fails here by name.
//!
//! **What is measured.** Every public stream builder of both schemes
//! (BFV over `BfvParams::insecure_testing(64)` with a base-2^16
//! relinearization key, CKKS over `CkksParams::insecure_testing(64)`),
//! the scheme-neutral resident key switch and the three client streams of
//! `cofhee_core`, each recorded once and run through the four `O1` passes
//! by hand, in `PassRunner::o1`'s order, reading each pass's own
//! `PassStats`: nodes in, what `Cse` / `Dce` eliminated, what
//! `TransferHoist` hoisted, what `Fuse` fused, nodes out, and the cycles
//! the static cost model credits the rewrite with. Every limb of a
//! multi-limb builder must give the same row.
//!
//! An inline key switch uploads the key as it is stored — in NTT form —
//! so its row is the resident row at the same digit count: node for node
//! the same dataflow, `Upload` where the other has `Input`. `mul_plain`
//! records `ntt(pt)` once and a fused Hadamard + inverse per component
//! where it recorded one `PolyMul` per component.
//!
//! **What it shows.** On distinct operands `Cse`, `Dce` and
//! `TransferHoist` do nothing on any builder stream; `Fuse` fires on BFV's
//! tensor and on every key switch — and is priced at zero cycles, since
//! the chip expands a fused node into the same commands. `Cse` + `Dce`
//! fire only when an operand repeats (`a·a`, `a + a`). `TransferHoist`
//! never fires.

use std::sync::Arc;

use cofhee::bfv::{BfvParams, Encryptor, Evaluator, KeyGenerator, Plaintext};
use cofhee::ckks::{CkksEncoder, CkksEncryptor, CkksEvaluator, CkksKeyGenerator, CkksParams};
use cofhee::core::{
    record_decrypt, record_encrypt, record_key_switch, CpuBackend, KeySwitchKeys, OpStream,
    PolyBackend,
};
use cofhee::opt::{stream_cost, Cse, Dce, Fuse, Pass, TransferHoist};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 64;

/// One stream's traffic through the `O1` pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Traffic {
    nodes_in: usize,
    cse: u64,
    dce: u64,
    hoisted: u64,
    fused: u64,
    nodes_out: usize,
    cycles_saved: u64,
}

/// A pinned row: nodes in, `[Cse, Dce, TransferHoist, Fuse]`, nodes out,
/// cycles saved under the static model.
fn row(
    nodes_in: usize,
    [cse, dce, hoisted, fused]: [u64; 4],
    nodes_out: usize,
    cycles_saved: u64,
) -> Traffic {
    Traffic { nodes_in, cse, dce, hoisted, fused, nodes_out, cycles_saved }
}

fn traffic(stream: &OpStream) -> Traffic {
    let (after_cse, cse) = Cse.run(stream).unwrap();
    let (after_dce, dce) = Dce.run(&after_cse).unwrap();
    let (after_hoist, hoist) = TransferHoist.run(&after_dce).unwrap();
    let (out, fuse) = Fuse.run(&after_hoist).unwrap();
    // Each pass reports in its own field only.
    assert_eq!((cse.fused, cse.hoisted, dce.fused, dce.hoisted), (0, 0, 0, 0));
    assert_eq!((hoist.eliminated, hoist.fused, fuse.eliminated, fuse.hoisted), (0, 0, 0, 0));
    Traffic {
        nodes_in: stream.len(),
        cse: cse.eliminated,
        dce: dce.eliminated,
        hoisted: hoist.hoisted,
        fused: fuse.fused,
        nodes_out: out.len(),
        cycles_saved: stream_cost(stream).saturating_sub(stream_cost(&out)),
    }
}

/// The traffic of a per-limb builder: the same on every limb.
fn per_limb(streams: &[OpStream]) -> Traffic {
    let first = traffic(&streams[0]);
    for (j, st) in streams.iter().enumerate() {
        assert_eq!(traffic(st), first, "limb {j} differs from limb 0");
    }
    first
}

fn poly(seed: u128) -> Vec<u128> {
    (0..N as u128).map(|i| i * 131 + seed).collect()
}

#[test]
fn o1_pass_traffic_on_every_builder_stream_is_what_the_roadmap_records() {
    let mut rng = StdRng::seed_from_u64(20);
    let mut measured: Vec<(&str, Traffic)> = Vec::new();

    // BFV.
    {
        let params = BfvParams::insecure_testing(N).unwrap();
        let kg = KeyGenerator::new(&params, &mut rng);
        let enc = Encryptor::new(&params, kg.public_key(&mut rng).unwrap());
        let rlk = kg.relin_key(16, &mut rng).unwrap();
        let ev = Evaluator::new(&params).unwrap();
        let pt = Plaintext::constant(&params, 3).unwrap();
        let a = enc.encrypt(&pt, &mut rng).unwrap();
        let b = enc.encrypt(&pt, &mut rng).unwrap();
        let cubic = ev.multiply(&a, &b).unwrap();
        measured.extend([
            ("bfv add", traffic(&ev.add_stream(&a, &b).unwrap())),
            ("bfv add_plain", traffic(&ev.add_plain_stream(&a, &pt).unwrap())),
            ("bfv mul_plain", traffic(&ev.mul_plain_stream(&a, &pt).unwrap())),
            ("bfv tensor", per_limb(&ev.tensor_streams(&a, &b).unwrap())),
            ("bfv key switch, inline", traffic(&ev.relin_stream(&cubic, &rlk).unwrap())),
            ("bfv a + a", traffic(&ev.add_stream(&a, &a).unwrap())),
            ("bfv a * a", per_limb(&ev.tensor_streams(&a, &a).unwrap())),
        ]);
    }

    // CKKS.
    {
        let params = CkksParams::insecure_testing(N).unwrap();
        let kg = CkksKeyGenerator::new(&params);
        let sk = kg.secret_key(&mut rng).unwrap();
        let enc = CkksEncryptor::new(&params, kg.public_key(&sk, &mut rng).unwrap());
        let rlk = kg.relin_key(&sk, &mut rng).unwrap();
        let ev = CkksEvaluator::new(&params).unwrap();
        let pt = CkksEncoder::new(&params).encode(&[1.5, -0.25]).unwrap();
        let a = enc.encrypt(&pt, &mut rng).unwrap();
        let b = enc.encrypt(&pt, &mut rng).unwrap();
        let cubic = ev.multiply(&a, &b).unwrap();
        let linear = ev.relinearize(&cubic, &rlk).unwrap();
        measured.extend([
            ("ckks add", per_limb(&ev.add_streams(&a, &b).unwrap())),
            ("ckks add_plain", per_limb(&ev.add_plain_streams(&a, &pt).unwrap())),
            ("ckks mul_plain", per_limb(&ev.mul_plain_streams(&a, &pt).unwrap())),
            ("ckks tensor", per_limb(&ev.tensor_streams(&a, &b).unwrap())),
            ("ckks key switch, inline", per_limb(&ev.relin_streams(&cubic, &rlk).unwrap())),
            ("ckks rescale", per_limb(&ev.rescale_streams(&linear).unwrap())),
            ("ckks a + a", per_limb(&ev.add_streams(&a, &a).unwrap())),
            ("ckks a * a", per_limb(&ev.tensor_streams(&a, &a).unwrap())),
        ]);
    }

    // Scheme-neutral: the key switch against a resident key (7 digits,
    // as BFV's at 109 bits over base 2^16) and the three client streams.
    {
        let mut be = CpuBackend::new(cofhee::arith::primes::ntt_prime(60, N).unwrap(), N).unwrap();
        let mut stored = |seed: u128| be.upload(&poly(seed)).unwrap();
        let keys: Vec<_> = (0..7u128).map(|d| (stored(2 * d), stored(2 * d + 1))).collect();
        let digits: Vec<_> = (0..7u128).map(|d| Arc::new(poly(100 + d))).collect();
        let pair = keys[0];
        let mut resident = OpStream::new(N);
        record_key_switch(
            &mut resident,
            &digits,
            KeySwitchKeys::Resident(&keys),
            [poly(50), poly(51)],
        )
        .unwrap();
        let mut encrypt = OpStream::new(N);
        record_encrypt(&mut encrypt, pair, poly(1), [poly(2), poly(3)], poly(4)).unwrap();
        let mut decrypt = OpStream::new(N);
        record_decrypt(&mut decrypt, pair, poly(5), poly(6), None).unwrap();
        let mut decrypt_cubic = OpStream::new(N);
        record_decrypt(&mut decrypt_cubic, pair, poly(5), poly(6), Some(poly(7))).unwrap();
        measured.extend([
            ("key switch, resident", traffic(&resident)),
            ("client encrypt", traffic(&encrypt)),
            ("client decrypt", traffic(&decrypt)),
            ("client decrypt, 3 components", traffic(&decrypt_cubic)),
        ]);
    }

    let pinned = [
        // Distinct operands: only `Fuse` ever fires, and for nothing.
        ("bfv add", row(6, [0, 0, 0, 0], 6, 0)),
        ("bfv add_plain", row(4, [0, 0, 0, 0], 4, 0)),
        ("bfv mul_plain", row(8, [0, 0, 0, 0], 8, 0)),
        ("bfv tensor", row(14, [0, 0, 0, 1], 13, 0)),
        ("bfv key switch, inline", row(36, [0, 0, 0, 6], 30, 0)),
        // A repeated operand: `Cse` + `Dce` drop the second copy.
        ("bfv a + a", row(6, [0, 2, 0, 0], 4, 160)),
        ("bfv a * a", row(14, [3, 2, 0, 0], 9, 656)),
        ("ckks add", row(6, [0, 0, 0, 0], 6, 0)),
        ("ckks add_plain", row(4, [0, 0, 0, 0], 4, 0)),
        ("ckks mul_plain", row(8, [0, 0, 0, 0], 8, 0)),
        // Already records `hadamard_add` itself.
        ("ckks tensor", row(13, [0, 0, 0, 0], 13, 0)),
        ("ckks key switch, inline", row(60, [0, 0, 0, 12], 48, 0)),
        ("ckks rescale", row(8, [0, 0, 0, 0], 8, 0)),
        ("ckks a + a", row(6, [0, 2, 0, 0], 4, 160)),
        ("ckks a * a", row(13, [2, 2, 0, 0], 9, 576)),
        ("key switch, resident", row(60, [0, 0, 0, 12], 48, 0)),
        ("client encrypt", row(12, [0, 0, 0, 0], 12, 0)),
        ("client decrypt", row(6, [0, 0, 0, 0], 6, 0)),
        ("client decrypt, 3 components", row(11, [0, 0, 0, 0], 11, 0)),
    ];
    assert_eq!(measured.len(), pinned.len());
    for ((name, got), (pinned_name, want)) in measured.iter().zip(&pinned) {
        assert_eq!(name, pinned_name);
        assert_eq!(got, want, "{name}: the O1 traffic moved — update ROADMAP item 2's table too");
    }
    // The two deletions the table licenses, by the roadmap's own rule.
    assert!(measured.iter().all(|(_, t)| t.hoisted == 0), "`TransferHoist` fired");
    assert!(
        measured.iter().all(|(_, t)| t.fused == 0 || t.cycles_saved == 0),
        "`Fuse` saved cycles under the static model"
    );
}
