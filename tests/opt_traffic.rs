//! The stream compiler's whole ledger: what `O1` (`cse`, then `dce`)
//! does to the streams the library itself records, and what that is
//! worth in die cycles — measured, not modelled, and pinned so a builder
//! or compiler change that alters a row fails here by name.
//!
//! **What is measured.** Every public stream builder of both schemes
//! (BFV over `BfvParams::insecure_testing(64)` with a base-2^16
//! relinearization key, CKKS over `CkksParams::insecure_testing(64)`),
//! the scheme-neutral resident key switch and the three client streams
//! of `cofhee_core`, each recorded and run twice on a fresh
//! `ChipBackendFactory::silicon()` die — as recorded, and through
//! `optimize(_, O1)`: nodes in, what `cse` and `dce` each dropped, nodes
//! out, overlapped cycles both ways. Outputs must agree bit for bit, and
//! every limb of a multi-limb builder must give the same row.
//!
//! **What it shows.** On distinct operands the compiler changes nothing:
//! `cse 0, dce 0`, the same nodes, the same cycles — the builders record
//! the fused nodes themselves, so a stream runs as recorded (the node
//! sequences the deleted fusion pass used to produce are pinned below).
//! `O1` pays exactly when an operand repeats: `a + a`, `a · a`, and
//! several products sharing one ciphertext, where it must save at least
//! a tenth of the recorded cycles. It never costs cycles on any row —
//! the slot-pressure trade `cse`'s rustdoc describes.

use std::sync::Arc;

use cofhee::arith::primes::ntt_prime;
use cofhee::bfv::{BfvParams, Encryptor, Evaluator, KeyGenerator, Plaintext};
use cofhee::ckks::{CkksEncoder, CkksEncryptor, CkksEvaluator, CkksKeyGenerator, CkksParams};
use cofhee::core::{
    record_decrypt, record_encrypt, record_key_switch, BackendFactory, ChipBackendFactory,
    KeySwitchKeys, OpStream, PolyBackend, StreamOp,
};
use cofhee::opt::{cse, dce, optimize, OptLevel};
use rand::rngs::StdRng;
use rand::SeedableRng;

const N: usize = 64;

/// One stream's ledger row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    nodes_in: usize,
    cse: u64,
    dce: u64,
    nodes_out: usize,
    /// Overlapped die cycles of the stream as recorded…
    recorded: u64,
    /// …and compiled at `O1`.
    o1: u64,
}

/// A pinned row of a stream `O1` leaves alone.
fn untouched(nodes: usize, cycles: u64) -> Row {
    Row { nodes_in: nodes, cse: 0, dce: 0, nodes_out: nodes, recorded: cycles, o1: cycles }
}

/// A pinned row of a stream with a repeated operand.
fn saved(nodes_in: usize, [cse, dce]: [u64; 2], nodes_out: usize, [recorded, o1]: [u64; 2]) -> Row {
    Row { nodes_in, cse, dce, nodes_out, recorded, o1 }
}

/// Measures the stream `record` makes, at degree `n` under modulus `q`.
/// Each of the two runs gets a die of its own; `record` is handed the die
/// first, so a stream over resident inputs can upload them.
fn ledger(q: u128, n: usize, record: impl Fn(&mut dyn PolyBackend) -> OpStream) -> Row {
    let run = |level: OptLevel| {
        let mut die = ChipBackendFactory::silicon().make(q, n).unwrap();
        let recorded = record(die.as_mut());
        let (stream, stats) = optimize(&recorded, level).unwrap();
        let outcome = die.execute_stream(&stream).unwrap();
        (recorded, stats, outcome)
    };
    let (stream, _, as_recorded) = run(OptLevel::O0);
    let (_, stats, compiled) = run(OptLevel::O1);
    assert_eq!(compiled.outputs, as_recorded.outputs, "O1 changed a value");
    // `optimize` is the two rewrites in this order and nothing else.
    let (numbered, duplicates) = cse(&stream).unwrap();
    let (swept, dead) = dce(&numbered).unwrap();
    assert_eq!((stats.ops_in, stats.ops_out), (stream.len() as u64, swept.len() as u64));
    assert_eq!(stats.ops_eliminated, duplicates + dead);
    Row {
        nodes_in: stream.len(),
        cse: duplicates,
        dce: dead,
        nodes_out: swept.len(),
        recorded: as_recorded.report.overlapped_cycles,
        o1: compiled.report.overlapped_cycles,
    }
}

/// The row of a per-limb builder: the same on every limb.
fn per_limb(moduli: &[u128], streams: &[OpStream]) -> Row {
    let rows: Vec<Row> =
        streams.iter().zip(moduli).map(|(st, &q)| ledger(q, N, |_| st.clone())).collect();
    for (j, row) in rows.iter().enumerate() {
        assert_eq!(*row, rows[0], "limb {j} differs from limb 0");
    }
    rows[0]
}

fn poly(seed: u128) -> Vec<u128> {
    (0..N as u128).map(|i| i * 131 + seed).collect()
}

/// Node kinds with operand indices, e.g. `A7,8,3` — a multiply-accumulate
/// of nodes 7 and 8 onto node 3.
fn shape(stream: &OpStream) -> String {
    let node = |op: &StreamOp| {
        let kind = match op {
            StreamOp::Upload(_) => "U",
            StreamOp::Input(_) => "R",
            StreamOp::Ntt(_) => "N",
            StreamOp::Intt(_) => "I",
            StreamOp::Hadamard(..) => "H",
            StreamOp::HadamardIntt(..) => "X",
            StreamOp::HadamardAdd(..) => "A",
            StreamOp::PointwiseAdd(..) => "+",
            StreamOp::PointwiseSub(..) => "-",
            StreamOp::ScalarMul(..) => "S",
        };
        let deps: Vec<_> = op.deps().into_iter().flatten().map(|h| h.index().to_string()).collect();
        format!("{kind}{}", deps.join(","))
    };
    stream.nodes().iter().map(node).collect::<Vec<_>>().join(" ")
}

/// What the parent's `O1` — `cse`, `dce`, then its fusion pass — turned
/// each recording below into, computed at the parent (`a198357`). The
/// builders now record these node lists themselves.
const PARENT_O1_BFV_TENSOR: &str = "U N0 U N2 U N4 U N6 X1,5 H1,7 A3,5,9 I10 X3,7";
const PARENT_O1_BFV_KEY_SWITCH: &str = "U N0 U H1,2 U H1,4 U N6 U A7,8,3 U A7,10,5 \
    U N12 U A13,14,9 U A13,16,11 U N18 U A19,20,15 U A19,22,17 I21 U +25,24 I23 U +28,27";
const PARENT_O1_CKKS_KEY_SWITCH: &str = "U N0 U H1,2 U H1,4 U N6 U A7,8,3 U A7,10,5 \
    U N12 U A13,14,9 U A13,16,11 U N18 U A19,20,15 U A19,22,17 U N24 U A25,26,21 U A25,28,23 \
    U N30 U A31,32,27 U A31,34,29 U N36 U A37,38,33 U A37,40,35 I39 U +43,42 I41 U +46,45";
const PARENT_O1_RESIDENT_KEY_SWITCH: &str = "U N0 R H1,2 R H1,4 U N6 R A7,8,3 R A7,10,5 \
    U N12 R A13,14,9 R A13,16,11 U N18 R A19,20,15 R A19,22,17 U N24 R A25,26,21 R A25,28,23 \
    U N30 R A31,32,27 R A31,34,29 U N36 R A37,38,33 R A37,40,35 I39 U +43,42 I41 U +46,45";

#[test]
fn o1_pass_traffic_on_every_builder_stream_is_what_the_roadmap_records() {
    let mut rng = StdRng::seed_from_u64(20);
    let mut measured: Vec<(&str, Row)> = Vec::new();

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
        let mod_q = |st: OpStream| ledger(params.q(), N, |_| st.clone());
        let limbs = params.mult_basis().moduli();
        let tensor = ev.tensor_streams(&a, &b).unwrap();
        let relin = ev.relin_stream(&cubic, &rlk).unwrap();
        // As recorded, node for node what the parent's `O1` emitted.
        assert_eq!(shape(&tensor[0]), PARENT_O1_BFV_TENSOR);
        assert_eq!(shape(&relin), PARENT_O1_BFV_KEY_SWITCH);
        measured.extend([
            ("bfv add", mod_q(ev.add_stream(&a, &b).unwrap())),
            ("bfv add_plain", mod_q(ev.add_plain_stream(&a, &pt).unwrap())),
            ("bfv mul_plain", mod_q(ev.mul_plain_stream(&a, &pt).unwrap())),
            ("bfv tensor", per_limb(limbs, &tensor)),
            ("bfv key switch, inline", mod_q(relin)),
            ("bfv a + a", mod_q(ev.add_stream(&a, &a).unwrap())),
            ("bfv a * a", per_limb(limbs, &ev.tensor_streams(&a, &a).unwrap())),
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
        let limbs = |streams: Vec<OpStream>| per_limb(params.moduli(), &streams);
        let relin = ev.relin_streams(&cubic, &rlk).unwrap();
        assert_eq!(shape(&relin[0]), PARENT_O1_CKKS_KEY_SWITCH);
        measured.extend([
            ("ckks add", limbs(ev.add_streams(&a, &b).unwrap())),
            ("ckks add_plain", limbs(ev.add_plain_streams(&a, &pt).unwrap())),
            ("ckks mul_plain", limbs(ev.mul_plain_streams(&a, &pt).unwrap())),
            ("ckks tensor", limbs(ev.tensor_streams(&a, &b).unwrap())),
            ("ckks key switch, inline", limbs(relin)),
            ("ckks rescale", limbs(ev.rescale_streams(&linear).unwrap())),
            ("ckks a + a", limbs(ev.add_streams(&a, &a).unwrap())),
            ("ckks a * a", limbs(ev.tensor_streams(&a, &a).unwrap())),
        ]);
    }

    // Scheme-neutral: the key switch against a resident key (7 digits,
    // as BFV's at 109 bits over base 2^16) and the three client streams.
    {
        let q = ntt_prime(60, N).unwrap();
        let resident = |record: &dyn Fn(&mut OpStream, Vec<(_, _)>)| {
            ledger(q, N, |die| {
                let mut stored = |seed: u128| die.upload(&poly(seed)).unwrap();
                let keys = (0..7u128).map(|d| (stored(2 * d), stored(2 * d + 1))).collect();
                let mut st = OpStream::new(N);
                record(&mut st, keys);
                st
            })
        };
        let digits: Vec<_> = (0..7u128).map(|d| Arc::new(poly(100 + d))).collect();
        let key_switch = |st: &mut OpStream, keys: Vec<_>| {
            let base = [poly(50), poly(51)];
            record_key_switch(st, &digits, KeySwitchKeys::Resident(&keys), base).unwrap();
            assert_eq!(shape(st), PARENT_O1_RESIDENT_KEY_SWITCH);
        };
        measured.extend([
            ("key switch, resident", resident(&key_switch)),
            (
                "client encrypt",
                resident(&|st, keys| {
                    record_encrypt(st, keys[0], poly(1), [poly(2), poly(3)], poly(4)).unwrap()
                }),
            ),
            (
                "client decrypt",
                resident(&|st, keys| record_decrypt(st, keys[0], poly(5), poly(6), None).unwrap()),
            ),
            (
                "client decrypt, 3 components",
                resident(&|st, keys| {
                    record_decrypt(st, keys[0], poly(5), poly(6), Some(poly(7))).unwrap()
                }),
            ),
        ]);
    }

    let pinned = [
        // Distinct operands: a stream runs as recorded.
        ("bfv add", untouched(6, 592)),
        ("bfv add_plain", untouched(4, 364)),
        ("bfv mul_plain", untouched(7, 2_390)),
        ("bfv tensor", untouched(13, 3_912)),
        ("bfv key switch, inline", untouched(30, 4_576)),
        // A repeated operand: `cse` + `dce` drop the second copy.
        ("bfv a + a", saved(6, [0, 2], 4, [592, 584])),
        ("bfv a * a", saved(13, [2, 2], 9, [3_912, 2_878])),
        ("ckks add", untouched(6, 592)),
        ("ckks add_plain", untouched(4, 364)),
        ("ckks mul_plain", untouched(7, 2_390)),
        ("ckks tensor", untouched(13, 3_912)),
        ("ckks key switch, inline", untouched(48, 7_299)),
        ("ckks rescale", untouched(8, 776)),
        ("ckks a + a", saved(6, [0, 2], 4, [592, 584])),
        ("ckks a * a", saved(13, [2, 2], 9, [3_912, 2_878])),
        ("key switch, resident", untouched(48, 7_299)),
        ("client encrypt", untouched(12, 2_081)),
        ("client decrypt", untouched(6, 1_253)),
        ("client decrypt, 3 components", untouched(11, 2_022)),
    ];
    assert_eq!(measured.len(), pinned.len());
    for ((name, got), (pinned_name, want)) in measured.iter().zip(&pinned) {
        assert_eq!(name, pinned_name);
        assert_eq!(
            got, want,
            "{name}: the ledger moved — update EXPERIMENTS.md's compiler's ledger table too"
        );
        assert!(got.o1 <= got.recorded, "{name}: O1 cost cycles");
        let repeats = name.contains("a + a") || name.contains("a * a");
        assert_eq!(got.o1 < got.recorded, repeats, "{name}: O1 pays exactly on a repeated operand");
    }
}

/// Four products sharing one operand, each recorded as if it were alone
/// (the builders' node list per product): the shape `O1` exists for, and
/// the bar the deleted `stream_optimize` bin held — at least a tenth of
/// the recorded cycles gone.
#[test]
fn o1_saves_a_tenth_of_the_cycles_when_products_share_an_operand() {
    let n = 1 << 10;
    let q = ntt_prime(60, n).unwrap();
    let operand = |seed: u128| (0..n as u128).map(|i| (i * 131 + seed) % q).collect::<Vec<_>>();
    let row = ledger(q, n, |_| {
        let mut st = OpStream::new(n);
        for p in 0..4 {
            let transformed: Vec<_> = [1, 2, 100 + 2 * p, 101 + 2 * p]
                .into_iter()
                .map(|seed| {
                    let up = st.upload(operand(seed)).unwrap();
                    st.ntt(up).unwrap()
                })
                .collect();
            let [a0, a1, b0, b1] = transformed[..] else { unreachable!() };
            let r0 = st.hadamard_intt(a0, b0).unwrap();
            let x01 = st.hadamard(a0, b1).unwrap();
            let mid = st.hadamard_add(a1, b0, x01).unwrap();
            let r1 = st.intt(mid).unwrap();
            let r2 = st.hadamard_intt(a1, b1).unwrap();
            for r in [r0, r1, r2] {
                st.output(r).unwrap();
            }
        }
        st
    });
    assert_eq!(row, saved(52, [6, 6], 40, [277_184, 214_418]));
    assert!(row.o1 * 10 <= row.recorded * 9, "O1 must cut >= 10 % of {row:?}");
}

/// The relinearization streams a farm ships, at the paper's n = 2^12,
/// cost at either level exactly what they did before the builders
/// recorded the fused nodes themselves (EXPERIMENTS.md, PR 21).
#[test]
fn shipped_relin_streams_at_n12_cost_what_the_parent_measured_at_either_level() {
    let n = 1 << 12;
    let mut rng = StdRng::seed_from_u64(21);
    let cycles = |q: u128, stream: &OpStream| {
        let row = ledger(q, n, |_| stream.clone());
        assert_eq!(row, untouched(stream.len(), row.recorded));
        row.recorded
    };
    {
        let params = BfvParams::paper_n12().unwrap();
        let kg = KeyGenerator::new(&params, &mut rng);
        let enc = Encryptor::new(&params, kg.public_key(&mut rng).unwrap());
        let rlk = kg.relin_key(16, &mut rng).unwrap();
        let ev = Evaluator::new(&params).unwrap();
        let a = enc.encrypt(&Plaintext::constant(&params, 3).unwrap(), &mut rng).unwrap();
        let cubic = ev.multiply(&a, &a).unwrap();
        let relin = ev.relin_stream(&cubic, &rlk).unwrap();
        assert_eq!(cycles(params.q(), &relin), 542_663);
    }
    {
        let params = CkksParams::insecure_testing(n).unwrap();
        let kg = CkksKeyGenerator::new(&params);
        let sk = kg.secret_key(&mut rng).unwrap();
        let enc = CkksEncryptor::new(&params, kg.public_key(&sk, &mut rng).unwrap());
        let rlk = kg.relin_key(&sk, &mut rng).unwrap();
        let ev = CkksEvaluator::new(&params).unwrap();
        let pt = CkksEncoder::new(&params).encode(&[1.5, -0.25]).unwrap();
        let a = enc.encrypt(&pt, &mut rng).unwrap();
        let cubic = ev.multiply(&a, &a).unwrap();
        let relin = ev.relin_streams(&cubic, &rlk).unwrap();
        let summed: u64 = relin.iter().zip(params.moduli()).map(|(st, &q)| cycles(q, st)).sum();
        assert_eq!(summed, 1_627_989);
    }
}
