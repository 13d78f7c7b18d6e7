//! Full-stack integration: real BFV ciphertexts offloaded to the chip
//! through the unified `PolyBackend` API.
//!
//! The paper's division of labor: CoFHEE accelerates the low-level
//! polynomial operations; the host finishes the high-level primitives
//! (the exact Eq. 4 rounding needs the integer tensor, i.e. base
//! extension, which stays in software — as in the paper, where key
//! switching and scaling are host-side). These tests drive that split
//! end to end: the same `Evaluator` runs encrypt→evaluate→decrypt on
//! the software `CpuBackend` and on the cycle-accurate `ChipBackend`,
//! selected only by the backend constructor argument, and the results
//! are bit-identical.

use cofhee::bfv::{
    BfvParams, Ciphertext, Decryptor, Encryptor, Evaluator, KeyGenerator, Plaintext, RelinKey,
};
use cofhee::core::{BackendFactory, ChipBackendFactory, CpuBackendFactory};
use cofhee::opt::OptLevel;
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Fixture {
    params: BfvParams,
    enc: Encryptor,
    dec: Decryptor,
    rlk: RelinKey,
    rng: StdRng,
}

fn fixture(n: usize, seed: u64) -> Fixture {
    let q = cofhee::arith::primes::ntt_prime(60, n).unwrap();
    let t = cofhee::arith::primes::ntt_prime(16, n).unwrap() as u64;
    let params = BfvParams::new(n, t, q).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let kg = KeyGenerator::new(&params, &mut rng);
    let pk = kg.public_key(&mut rng).unwrap();
    Fixture {
        enc: Encryptor::new(&params, pk),
        dec: Decryptor::new(&params, kg.secret_key().clone()),
        rlk: kg.relin_key(16, &mut rng).unwrap(),
        params,
        rng,
    }
}

fn encrypt(f: &mut Fixture, v: u64) -> Ciphertext {
    let pt = Plaintext::constant(&f.params, v).unwrap();
    f.enc.encrypt(&pt, &mut f.rng).unwrap()
}

#[test]
fn chip_offloaded_linear_ops_decrypt_exactly() {
    // ct+ct, ct−ct, −ct, ct+pt and ct·pt are *pure mod-q polynomial
    // operations*, so the chip completes them exactly (no t/q rounding
    // involved): the evaluator stages every pass through the simulated
    // silicon and the decryptions come out right.
    let mut f = fixture(1 << 8, 77);
    let eval = Evaluator::with_backend(&f.params, &ChipBackendFactory::silicon()).unwrap();
    assert_eq!(eval.backend_name(), "cofhee-chip");

    let ct_a = encrypt(&mut f, 9);
    let ct_b = encrypt(&mut f, 13);

    let sum = eval.add(&ct_a, &ct_b).unwrap();
    assert_eq!(f.dec.decrypt(&sum).unwrap().coeffs()[0], 9 + 13, "chip ct+ct");

    let diff = eval.sub(&ct_b, &ct_a).unwrap();
    assert_eq!(f.dec.decrypt(&diff).unwrap().coeffs()[0], 13 - 9, "chip ct−ct");

    let neg = eval.neg(&ct_a).unwrap();
    assert_eq!(f.dec.decrypt(&neg).unwrap().coeffs()[0], f.params.t() - 9, "chip −ct");

    let plus = eval.add_plain(&ct_a, &Plaintext::constant(&f.params, 4).unwrap()).unwrap();
    assert_eq!(f.dec.decrypt(&plus).unwrap().coeffs()[0], 9 + 4, "chip ct+pt");

    let scaled = eval.mul_plain(&ct_a, &Plaintext::constant(&f.params, 5).unwrap()).unwrap();
    assert_eq!(f.dec.decrypt(&scaled).unwrap().coeffs()[0], 9 * 5, "chip ct·pt");

    // The offload is cycle-accurate and wire-accounted, not a shortcut.
    let report = eval.backend_report();
    assert!(report.cycles > 0, "chip commands cost cycles");
    assert!(report.butterflies > 0, "ct·pt ran real NTTs");
    assert!(eval.backend_comm_stats().bytes > 0, "staging traffic is accounted");
}

#[test]
fn cpu_and_chip_evaluators_agree_bit_exactly() {
    // The acceptance gate for the backend abstraction: the same
    // encrypt→evaluate→decrypt flow, selected only by the constructor
    // argument, produces bit-identical ciphertexts on both backends —
    // including the unscaled tensor inside `multiply`, which runs
    // per-prime on the chip and is scaled host-side.
    let mut f = fixture(1 << 6, 78);
    let backends: [&dyn BackendFactory; 2] = [&CpuBackendFactory, &ChipBackendFactory::silicon()];
    let [cpu, chip] = backends.map(|b| Evaluator::with_backend(&f.params, b).unwrap());

    let ct_a = encrypt(&mut f, 3);
    let ct_b = encrypt(&mut f, 4);

    // Every direct op is record → compile → run → finish, so each also
    // has to agree at every stream-compiler level on both backends.
    let mut compiled = Vec::new();
    for backend in backends {
        for level in [OptLevel::O0, OptLevel::O1] {
            let eval = Evaluator::with_backend(&f.params, backend).unwrap().with_opt_level(level);
            compiled.push((format!("{} at {level}", backend.name()), eval));
        }
    }

    type EvalOp<'a> = Box<dyn Fn(&Evaluator) -> Ciphertext + 'a>;
    let pt = Plaintext::constant(&f.params, 7).unwrap();
    // (name, submits one mod-q stream, op)
    let ops: [(&str, bool, EvalOp<'_>); 7] = [
        ("add", true, Box::new(|e: &Evaluator| e.add(&ct_a, &ct_b).unwrap())),
        ("sub", true, Box::new(|e: &Evaluator| e.sub(&ct_a, &ct_b).unwrap())),
        ("neg", true, Box::new(|e: &Evaluator| e.neg(&ct_a).unwrap())),
        ("add_plain", true, Box::new(|e: &Evaluator| e.add_plain(&ct_a, &pt).unwrap())),
        ("mul_plain", true, Box::new(|e: &Evaluator| e.mul_plain(&ct_a, &pt).unwrap())),
        ("multiply", false, Box::new(|e: &Evaluator| e.multiply(&ct_a, &ct_b).unwrap())),
        (
            "multiply_relin",
            false,
            Box::new(|e: &Evaluator| e.multiply_relin(&ct_a, &ct_b, &f.rlk).unwrap()),
        ),
    ];
    for (name, linear, op) in &ops {
        assert_eq!(op(&cpu), op(&chip), "{name} must be bit-identical across backends");
        let reference = op(&cpu);
        for (label, eval) in &compiled {
            let before = eval.backend_stream_report().batches;
            assert_eq!(op(eval), reference, "{name} on {label}");
            if *linear {
                let submitted = eval.backend_stream_report().batches - before;
                assert_eq!(submitted, 1, "{name} on {label} is one stream submit");
            }
        }
    }

    let prod = chip.multiply(&ct_a, &ct_b).unwrap();
    assert_eq!(f.dec.decrypt(&prod).unwrap().coeffs()[0], 12, "chip EvalMult decrypts");
}

#[test]
fn relinearization_after_chip_offload() {
    // Host-side key switching applied to a chip-produced product: the
    // full pipeline the paper sketches for future key-switching
    // integration. The tensor runs on silicon, the digit decomposition
    // stays on the host, and the relinearized pair still decrypts.
    let params = BfvParams::insecure_testing(1 << 6).unwrap();
    let mut rng = StdRng::seed_from_u64(79);
    let kg = KeyGenerator::new(&params, &mut rng);
    let pk = kg.public_key(&mut rng).unwrap();
    let rlk = kg.relin_key(16, &mut rng).unwrap();
    let enc = Encryptor::new(&params, pk);
    let dec = Decryptor::new(&params, kg.secret_key().clone());
    let eval = Evaluator::with_backend(&params, &ChipBackendFactory::silicon()).unwrap();

    let ct_a = enc.encrypt(&Plaintext::constant(&params, 11).unwrap(), &mut rng).unwrap();
    let ct_b = enc.encrypt(&Plaintext::constant(&params, 12).unwrap(), &mut rng).unwrap();
    let product = eval.multiply_relin(&ct_a, &ct_b, &rlk).unwrap();
    assert_eq!(product.len(), 2);
    assert_eq!(dec.decrypt(&product).unwrap().coeffs()[0], 132);

    // One chip per modulus ran the tensor: telemetry saw all of them.
    assert!(eval.backend_report().cycles > 0);
}

/// FNV-1a over the little-endian bytes of each coefficient.
fn fnv(ct: &Ciphertext) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for c in ct.polys().iter().flat_map(|p| p.coeffs()) {
        for b in c.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `[multiply, multiply_relin]` of two fixed-seed ciphertexts (relin key
/// at base 2^16, drawn after them), as digests.
fn product_digests(params: &BfvParams, factory: &dyn BackendFactory) -> [u64; 2] {
    let mut rng = StdRng::seed_from_u64(0x23);
    let kg = KeyGenerator::new(params, &mut rng);
    let enc = Encryptor::new(params, kg.public_key(&mut rng).unwrap());
    let t = params.t();
    let mut fresh = |mul: u64| {
        let coeffs = (0..params.n() as u64).map(|i| (i * mul + 7) % t).collect();
        enc.encrypt(&Plaintext::new(params, coeffs).unwrap(), &mut rng).unwrap()
    };
    let (a, b) = (fresh(991), fresh(577));
    let rlk = kg.relin_key(16, &mut rng).unwrap();
    let eval = Evaluator::with_backend(params, factory).unwrap();
    [fnv(&eval.multiply(&a, &b).unwrap()), fnv(&eval.multiply_relin(&a, &b, &rlk).unwrap())]
}

/// The exact tensor runs over four word primes where it ran over five,
/// the lift does not divide, the host CRT runs in chunks and the key
/// switch in waves — and every bit of a product is the bit it was: the
/// digests below were computed at the commit before all four (`3f596f8`)
/// and are written in as constants.
#[test]
fn products_are_the_parents_bits_on_both_backends() {
    let pinned = [
        (BfvParams::paper_n12().unwrap(), [0xdb18_31e4_a6f0_0d20u64, 0xd0e6_56ed_959f_ecaa]),
        (
            BfvParams::paper_n13_single_tower().unwrap(),
            [0x9c55_6391_f5eb_525d, 0x7a04_27c0_1a43_9667],
        ),
    ];
    for (params, want) in pinned {
        for factory in [&CpuBackendFactory as &dyn BackendFactory, &ChipBackendFactory::silicon()] {
            let got = product_digests(&params, factory);
            assert_eq!(got, want, "n = {} on {}: {got:#x?}", params.n(), factory.name());
        }
    }
}
