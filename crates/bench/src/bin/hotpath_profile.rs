//! The host hot-path profiler: strict vs Harvey-lazy kernel ns/op,
//! machine-readable, CI-gated.
//!
//! Measures the CPU polynomial kernels the whole stack bottoms out in —
//! forward/inverse NTT, the fully-fused Algorithm 2 `poly_mul`, and the
//! fused `intt ∘ hadamard` — on both engine widths (Barrett64 word
//! towers and the chip-native Barrett128), comparing the strict
//! per-butterfly-reduction kernels (`cofhee_poly::ntt`, the oracle)
//! against the Harvey lazy-reduction rewrite (`cofhee_poly::lazy`).
//! Every kernel row cycles through eight pre-generated random
//! polynomials, so a data-dependent branch in a loop costs here what it
//! costs in production, where no coefficient vector comes by twice. Two
//! rows per ring price the loops around the transforms: `mul`, one
//! Hadamard pass in ns per element (the chip's 256-bit Barrett dataflow,
//! `Barrett128::reduce_u256` of the `U256` product, against the ring's own
//! `ModRing::mul`), and `upload`, one `Upload` node in ns per vector (every
//! canonical word through the ring's unconditional reduction against
//! `ModRing::from_u128`).
//! A `crt_scale_round` row per paper-scale BFV basis (log q = 109) does
//! the same for the host half of ciphertext multiplication: ns per
//! coefficient of Eq. 4's `⌊t·x/q⌉ mod q` from honest tensor residues
//! (`|x| ≤ n·q²/2`), by the generic public route (`compose_centered`,
//! `widening_mul`, `round_div_u256`, `rem`: a 256-bit CRT and division
//! each) against `Evaluator::tensor_combine` on its scalar loop (the RNS
//! scale-and-round on words). A `lift_centered` row beside it prices the
//! other host loop of the multiply, the operand polynomials onto every
//! modulus of the tensor — the centered lifts onto the lane primes and
//! the `q` limb's shared words — in ns per uploaded coefficient: two
//! `u128 % u128` software divisions per coefficient (kept here as the
//! oracle) against `Evaluator::tensor_streams` on its scalar loop — one
//! word-level Barrett reduction per lifted coefficient, none for `q` — so
//! the division cannot come back unseen. Both take the scalar loops
//! (`Evaluator::with_scalar_host_loops`) so that they read alike on a
//! runner with and without IFMA.
//! Every measured pair is also checked bit-exact before it is timed.
//!
//! **Vector lanes** (ungated): BFV's two host loops at the 109-bit
//! parameter set, `crt_scale_round` and `lift_centered` in the units
//! above, the scalar loops against the evaluator's default path, which
//! takes the fused kernels of `cofhee_poly::rns`; and for a 43-bit
//! prime — a CKKS chain limb's width, below the `2^50` bound of `cofhee_poly`'s one-limb AVX-512 IFMA
//! lanes — and for the paper's 109-bit prime on the 128-bit ring, below
//! the `2^110` bound of the three-limb lanes, `ntt`, `intt`,
//! `hadamard_intt`, `mul`, `add`, `sub` and `below` at 2^12–2^14 (2^12
//! in smoke mode): the strict kernel (for the element-wise rows, the
//! scalar `ModRing::mul` / `add` / `sub` loop and `w < q` over every
//! word; ns per element) against the kernel the plan dispatches to,
//! named in the `kernel` column (`avx512ifma` where the host has the
//! feature, `scalar` elsewhere). Each row is checked bit-exact against
//! the scalar loop before it is timed; `below` must pass the inputs and
//! refuse them with one word set to `q`.
//! These rows are in `BENCH_hotpath.json`'s `lanes` array, not in the
//! `--check` gate.
//!
//! ```sh
//! cargo run --release -p cofhee_bench --bin hotpath_profile             # degrees 2^10–2^14
//! cargo run --release -p cofhee_bench --bin hotpath_profile -- --smoke  # degrees 2^10–2^11
//! cargo run --release -p cofhee_bench --bin hotpath_profile -- --smoke --check
//! ```
//!
//! Always writes `BENCH_hotpath.json` (schema `cofhee-hotpath-v1`) to
//! the working directory — the artifact CI uploads.
//!
//! **Full mode** asserts the lazy tier's acceptance criterion: ≥2x
//! ns/op improvement on `ntt` and `poly_mul` at degree 2^13, on both
//! rings.
//!
//! **`--check`** (with `--smoke`, the mode the baseline was recorded
//! in) is the CI perf-regression gate: it loads
//! `bench/baselines/hotpath.json` and fails (with a diff table) if any
//! lazy kernel's ns/op regressed more than 25% against the baseline,
//! or if a row exists on only one side — a renamed or dropped row must
//! not leave the gate silently. Rows are keyed by `(ring, n, op,
//! kernel)`: the `barrett128` transforms run on the IFMA lanes where the
//! host has them and on the scalar stages elsewhere, the baseline holds
//! an entry for each, and a host gates the kernel it runs and prints
//! the other as not run. A row over budget is
//! re-measured in up to two more rounds (see [`remeasure_regressed`])
//! and fails only if every round exceeds the budget. Both sides are
//! normalized to the *same-run* baseline kernel (`lazy_ns /
//! strict_ns`) so the gate measures kernel quality, not the speed of
//! the CI host it happens to run on.

use std::fmt::Write as _;

use cofhee_arith::{
    primes::ntt_prime, signed::round_div_u256, Barrett128, Barrett64, LazyRing, ModRing, U256,
};
use cofhee_bfv::{BfvParams, Ciphertext, Encryptor, Evaluator, KeyGenerator, Plaintext};
use cofhee_core::StreamOp;
use cofhee_poly::{ntt, pointwise, HarveyNtt};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Allowed relative regression of `lazy_ns / strict_ns` vs baseline.
const REGRESSION_BUDGET: f64 = 0.25;
/// The acceptance floor for `ntt` / `poly_mul` at degree 2^13.
const ACCEPTANCE_SPEEDUP: f64 = 2.0;

#[derive(Debug, Clone, PartialEq)]
struct Record {
    ring: String,
    log_n: u32,
    op: String,
    /// The kernel the lazy side ran on (`HarveyNtt::kernel()` for the
    /// transform rows, `scalar` for the rest): part of the row's key.
    kernel: String,
    strict_ns: f64,
    lazy_ns: f64,
}

impl Record {
    fn speedup(&self) -> f64 {
        self.strict_ns / self.lazy_ns
    }

    /// Host-independent kernel-quality metric: lazy cost relative to
    /// the strict kernel measured in the same run.
    fn rel(&self) -> f64 {
        self.lazy_ns / self.strict_ns
    }

    /// Whether `other` measures the same `(ring, n, op)`, on any kernel.
    fn same_op(&self, other: &Record) -> bool {
        self.ring == other.ring && self.log_n == other.log_n && self.op == other.op
    }

    /// Whether `other` is the same `(ring, n, op, kernel)` row.
    fn same_row(&self, other: &Record) -> bool {
        self.same_op(other) && self.kernel == other.kernel
    }

    /// Relative change of `lazy/strict` against the baseline row.
    fn delta_vs(&self, base: &Record) -> f64 {
        self.rel() / base.rel() - 1.0
    }
}

fn rand_poly<R: ModRing>(ring: &R, n: usize, seed: u128) -> Vec<R::Elem> {
    let mut state = seed | 1;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(0x5851f42d4c957f2d).wrapping_add(0x14057b7ef767814f);
            ring.from_u128(state)
        })
        .collect()
}

/// How many pre-generated random inputs a kernel row cycles through.
/// Timing one polynomial over and over lets the branch predictor learn
/// its data-dependent branches, which production never does.
const INPUTS: usize = 8;

/// Times a strict/lazy kernel pair *interleaved*: one warm-up call
/// each, then alternating reps, taking best-of for both. Interleaving
/// means both kernels sample the same machine conditions (frequency
/// scaling, noisy neighbors), which is what makes the `lazy/strict`
/// ratio stable enough to gate on. Each kernel is handed the rep number,
/// to pick its input by.
fn time_pair(
    reps: usize,
    mut strict: impl FnMut(usize),
    mut lazy: impl FnMut(usize),
) -> (f64, f64) {
    strict(0);
    lazy(0);
    let (mut best_s, mut best_l) = (f64::INFINITY, f64::INFINITY);
    for rep in 1..=reps {
        let t = std::time::Instant::now();
        strict(rep);
        best_s = best_s.min(t.elapsed().as_secs_f64());
        let t = std::time::Instant::now();
        lazy(rep);
        best_l = best_l.min(t.elapsed().as_secs_f64());
    }
    (best_s * 1e9, best_l * 1e9)
}

/// Measures all six ops for one ring at one degree, verifying
/// bit-exactness of every lazy kernel against its strict counterpart
/// before timing it. `strict_reduce` is the ring's unconditional
/// reduction of a 128-bit word, the strict side of `upload`.
fn measure<R: LazyRing>(
    label: &str,
    ring: &R,
    strict_reduce: impl Fn(u128) -> R::Elem,
    log_n: u32,
    reps: usize,
    out: &mut Vec<Record>,
) -> Result<(), Box<dyn std::error::Error>> {
    let n = 1usize << log_n;
    let plan = HarveyNtt::new(ring, n)?;
    let tables = plan.tables();
    let polys = |seed: u128| -> Vec<Vec<R::Elem>> {
        (0..INPUTS as u128).map(|k| rand_poly(ring, n, seed + 64 * k + log_n as u128)).collect()
    };
    let (a, b) = (polys(0xc0f), polys(0x4ee));
    let mut buf = a[0].clone();
    let mut buf2 = a[0].clone();

    // NTT-domain operands for the fused intt∘hadamard.
    let forward = |polys: &[Vec<R::Elem>]| -> Result<Vec<Vec<R::Elem>>, cofhee_poly::PolyError> {
        let mut polys = polys.to_vec();
        polys.iter_mut().try_for_each(|p| ntt::forward_inplace(ring, p, tables))?;
        Ok(polys)
    };
    let (fa, fb) = (forward(&a)?, forward(&b)?);

    // The same operands as canonical 128-bit words: what an `Upload`
    // node carries, and what the 256-bit product route consumes.
    let words = |polys: &[Vec<R::Elem>]| -> Vec<Vec<u128>> {
        polys.iter().map(|p| p.iter().map(|&c| ring.to_u128(c)).collect()).collect()
    };
    let (wa, wb) = (words(&a), words(&b));
    let wide = Barrett128::new(ring.modulus())?;
    let mul_wide =
        |x: u128, y: u128| wide.reduce_u256(U256::from_u128(x).widening_mul(U256::from_u128(y)).0);
    let mut wbuf = wa[0].clone();

    // --- bit-exactness gates (never time a wrong kernel) ---
    for k in 0..INPUTS {
        let (a, b, fa, fb) = (&a[k], &b[k], &fa[k], &fb[k]);
        let mut lazy_f = a.clone();
        plan.forward_inplace(&mut lazy_f)?;
        assert_eq!(&lazy_f, fa, "{label} 2^{log_n}: lazy ntt != strict");
        let mut lazy_i = fa.clone();
        plan.inverse_inplace(&mut lazy_i)?;
        let mut strict_i = fa.clone();
        ntt::inverse_inplace(ring, &mut strict_i, tables)?;
        assert_eq!(lazy_i, strict_i, "{label} 2^{log_n}: lazy intt != strict");
        assert_eq!(
            plan.poly_mul(a, b)?,
            ntt::negacyclic_mul(ring, a, b, tables)?,
            "{label} 2^{log_n}: lazy poly_mul != strict"
        );
        let mut unfused = fa.clone();
        pointwise::mul_assign(ring, &mut unfused, fb)?;
        ntt::inverse_inplace(ring, &mut unfused, tables)?;
        assert_eq!(
            plan.hadamard_intt(fa, fb)?,
            unfused,
            "{label} 2^{log_n}: fused intt∘hadamard != strict"
        );
        for ((&x, &y), (&wx, &wy)) in a.iter().zip(b).zip(wa[k].iter().zip(&wb[k])) {
            assert_eq!(
                ring.to_u128(ring.mul(x, y)),
                mul_wide(wx, wy),
                "{label}: mul != reduce_u256"
            );
            assert_eq!(ring.from_u128(wx), x, "{label}: from_u128 moved a canonical value");
            assert_eq!(strict_reduce(wx), x, "{label}: the reduction moved a canonical value");
        }
    }

    // --- timings (strict/lazy interleaved per op, inputs rotating) ---
    let mut push = |op: &str, per: usize, (strict_ns, lazy_ns): (f64, f64)| {
        let (strict_ns, lazy_ns) = (strict_ns / per as f64, lazy_ns / per as f64);
        let kernel = if matches!(op, "mul" | "upload") { "scalar" } else { plan.kernel() };
        let (ring, op, kernel) = (label.into(), op.into(), kernel.into());
        out.push(Record { ring, log_n, op, kernel, strict_ns, lazy_ns });
    };

    push(
        "ntt",
        1,
        time_pair(
            reps,
            |rep| {
                buf.copy_from_slice(&a[rep % INPUTS]);
                ntt::forward_inplace(ring, &mut buf, tables).unwrap();
            },
            |rep| {
                buf2.copy_from_slice(&a[rep % INPUTS]);
                plan.forward_inplace(&mut buf2).unwrap();
            },
        ),
    );

    push(
        "intt",
        1,
        time_pair(
            reps,
            |rep| {
                buf.copy_from_slice(&fa[rep % INPUTS]);
                ntt::inverse_inplace(ring, &mut buf, tables).unwrap();
            },
            |rep| {
                buf2.copy_from_slice(&fa[rep % INPUTS]);
                plan.inverse_inplace(&mut buf2).unwrap();
            },
        ),
    );

    push(
        "poly_mul",
        1,
        time_pair(
            reps,
            |rep| {
                let k = rep % INPUTS;
                let _ = ntt::negacyclic_mul(ring, &a[k], &b[k], tables).unwrap();
            },
            |rep| {
                let k = rep % INPUTS;
                let _ = plan.poly_mul(&a[k], &b[k]).unwrap();
            },
        ),
    );

    push(
        "hadamard_intt",
        1,
        time_pair(
            reps,
            |rep| {
                let k = rep % INPUTS;
                let mut v = fa[k].clone();
                pointwise::mul_assign(ring, &mut v, &fb[k]).unwrap();
                ntt::inverse_inplace(ring, &mut v, tables).unwrap();
            },
            |rep| {
                let k = rep % INPUTS;
                let _ = plan.hadamard_intt(&fa[k], &fb[k]).unwrap();
            },
        ),
    );

    // One Hadamard pass, ns per element: the chip's 256-bit Barrett
    // dataflow run in software against the ring's own product.
    push(
        "mul",
        n,
        time_pair(
            reps,
            |rep| {
                let k = rep % INPUTS;
                for ((o, &x), &y) in wbuf.iter_mut().zip(&wa[k]).zip(&wb[k]) {
                    *o = mul_wide(x, y);
                }
                std::hint::black_box(&mut wbuf);
            },
            |rep| {
                let k = rep % INPUTS;
                for ((o, &x), &y) in buf.iter_mut().zip(&a[k]).zip(&b[k]) {
                    *o = ring.mul(x, y);
                }
                std::hint::black_box(&mut buf);
            },
        ),
    );

    // One `Upload` node, ns per vector: every word through the ring's
    // reduction against `from_u128`, which may pass a canonical word on.
    push(
        "upload",
        1,
        time_pair(
            reps,
            |rep| {
                for (o, &c) in buf.iter_mut().zip(&wa[rep % INPUTS]) {
                    *o = strict_reduce(c);
                }
                std::hint::black_box(&mut buf);
            },
            |rep| {
                for (o, &c) in buf2.iter_mut().zip(&wa[rep % INPUTS]) {
                    *o = ring.from_u128(c);
                }
                std::hint::black_box(&mut buf2);
            },
        ),
    );

    Ok(())
}

/// The tensor finisher by the generic public route: per coefficient,
/// `compose_centered`, then `⌊t·|x|/q⌉ mod q` through `round_div_u256`
/// and `rem`, sign re-applied. Returns the `3n` coefficients in order.
fn generic_crt_scale_round(
    params: &BfvParams,
    limbs: &[Vec<Vec<u128>>],
) -> Result<Vec<u128>, Box<dyn std::error::Error>> {
    let basis = params.mult_basis();
    let (q, t) = (params.q(), U256::from_u128(params.t() as u128));
    let mut residues = vec![0u128; basis.len()];
    let mut out = Vec::with_capacity(3 * params.n());
    for part in 0..3 {
        for j in 0..params.n() {
            for (r, limb) in residues.iter_mut().zip(limbs) {
                *r = limb[part][j];
            }
            let (mag, neg) = basis.compose_centered(&residues)?;
            let num = mag.checked_mul(t).ok_or("t·|x| exceeds 256 bits")?;
            let r = round_div_u256(num, U256::from_u128(q)).rem(U256::from_u128(q)).low_u128();
            out.push(if neg && r != 0 { q - r } else { r });
        }
    }
    Ok(out)
}

/// A tensor's outputs per modulus of the basis: limb, component, word.
type TensorLimbs = Vec<Vec<Vec<u128>>>;

/// The paper's 109-bit parameter set at `2^log_n` and honest tensor
/// residues for it: each coefficient a signed integer below `n·q²/2` in
/// magnitude, reduced onto every modulus of the basis.
fn crt_fixture(log_n: u32) -> Result<(BfvParams, TensorLimbs), Box<dyn std::error::Error>> {
    let n = 1usize << log_n;
    let params = BfvParams::new(n, ntt_prime(20, n)? as u64, ntt_prime(109, n)?)?;
    let basis = params.mult_basis();
    let q = U256::from_u128(params.q());
    let bound = q.wrapping_mul(q).wrapping_mul(U256::from_u128(n as u128)).shr(1);
    let mut rng = StdRng::seed_from_u64(0xc47 + u64::from(log_n));
    let mut limbs = vec![vec![vec![0u128; n]; 3]; basis.len()];
    for part in 0..3 {
        for j in 0..n {
            let mag = U256::from_halves(rng.gen(), rng.gen()).rem(bound);
            let x = if rng.gen() { basis.product().wrapping_sub(mag) } else { mag };
            for (limb, r) in limbs.iter_mut().zip(basis.decompose(x)) {
                limb[part][j] = r;
            }
        }
    }
    Ok((params, limbs))
}

/// The `3n` coefficients of a finished tensor, in order.
fn coefficients(ct: &Ciphertext) -> Vec<u128> {
    ct.polys().iter().flat_map(|p| p.coeffs().to_vec()).collect()
}

/// Measures the `crt_scale_round` row at one degree of the paper's
/// 109-bit parameter set: `strict` is the generic route, `lazy` is
/// `Evaluator::tensor_combine` on its scalar loop (what a host without
/// IFMA runs, so the gated row reads alike on every runner), both in ns per
/// coefficient, equal bit for bit before either is timed.
fn measure_crt(
    log_n: u32,
    reps: usize,
    out: &mut Vec<Record>,
) -> Result<(), Box<dyn std::error::Error>> {
    let (params, limbs) = crt_fixture(log_n)?;
    let eval = Evaluator::new(&params)?.with_scalar_host_loops();
    assert_eq!(
        coefficients(&eval.tensor_combine(&limbs)?),
        generic_crt_scale_round(&params, &limbs)?,
        "bfv_q109 2^{log_n}: tensor_combine != generic CRT scale-and-round"
    );

    let (generic_ns, fast_ns) = time_pair(
        reps,
        |_| {
            let _ = generic_crt_scale_round(&params, &limbs).unwrap();
        },
        |_| {
            let _ = eval.tensor_combine(&limbs).unwrap();
        },
    );
    let per_coeff = (3 * params.n()) as f64;
    out.push(Record {
        ring: "bfv_q109".into(),
        log_n,
        op: "crt_scale_round".into(),
        kernel: "scalar".into(),
        strict_ns: generic_ns / per_coeff,
        lazy_ns: fast_ns / per_coeff,
    });
    Ok(())
}

/// The centered lift by division: every polynomial of `a` and `b` onto
/// every modulus of the tensor, `c mod p` and — for the negative half —
/// `− q mod p` by `%` (for `p = q`, the words themselves). One vector per
/// (modulus, polynomial), in the order `Evaluator::tensor_streams`
/// uploads them.
fn lift_by_division(params: &BfvParams, a: &Ciphertext, b: &Ciphertext) -> Vec<Vec<u128>> {
    let q = params.q();
    let mut lifted = Vec::new();
    for &p in params.mult_basis().moduli() {
        for poly in a.polys().iter().chain(b.polys()) {
            let lift = |&c: &u128| if c > q / 2 { (c % p + p - q % p) % p } else { c % p };
            lifted.push(poly.coeffs().iter().map(lift).collect());
        }
    }
    lifted
}

/// The paper's 109-bit parameter set at `2^log_n` and two fresh
/// ciphertexts under it.
fn lift_fixture(
    log_n: u32,
) -> Result<(BfvParams, Ciphertext, Ciphertext), Box<dyn std::error::Error>> {
    let n = 1usize << log_n;
    let params = BfvParams::new(n, ntt_prime(20, n)? as u64, ntt_prime(109, n)?)?;
    let mut rng = StdRng::seed_from_u64(0x11f7 + u64::from(log_n));
    let kg = KeyGenerator::new(&params, &mut rng);
    let enc = Encryptor::new(&params, kg.public_key(&mut rng)?);
    let a = enc.encrypt(&Plaintext::constant(&params, 3)?, &mut rng)?;
    let b = enc.encrypt(&Plaintext::constant(&params, 5)?, &mut rng)?;
    Ok((params, a, b))
}

/// The words every stream of `Evaluator::tensor_streams` uploads, in order.
fn uploads(eval: &Evaluator, a: &Ciphertext, b: &Ciphertext) -> Vec<Vec<u128>> {
    let streams = eval.tensor_streams(a, b).unwrap();
    let words = streams.iter().flat_map(|st| st.nodes()).filter_map(|op| match op {
        StreamOp::Upload(coeffs) => coeffs.words().ok().map(<[u128]>::to_vec),
        _ => None,
    });
    words.collect()
}

/// Measures the `lift_centered` row at one degree of the 109-bit
/// parameter set: `strict` is [`lift_by_division`], `lazy` is
/// `Evaluator::tensor_streams` on its scalar loop — the lifts plus the few
/// dozen nodes it records around them — both in ns per lifted coefficient,
/// the uploads equal bit for bit before either is timed.
fn measure_lift(
    log_n: u32,
    reps: usize,
    out: &mut Vec<Record>,
) -> Result<(), Box<dyn std::error::Error>> {
    let (params, a, b) = lift_fixture(log_n)?;
    let eval = Evaluator::new(&params)?.with_scalar_host_loops();
    let oracle = lift_by_division(&params, &a, &b);
    assert_eq!(uploads(&eval, &a, &b), oracle, "bfv_q109 2^{log_n}: lifts != lifts by division");

    let (division_ns, recorded_ns) = time_pair(
        reps,
        |_| {
            std::hint::black_box(lift_by_division(&params, &a, &b));
        },
        |_| {
            std::hint::black_box(eval.tensor_streams(&a, &b).unwrap());
        },
    );
    let per_coeff = (oracle.len() * params.n()) as f64;
    out.push(Record {
        ring: "bfv_q109".into(),
        log_n,
        op: "lift_centered".into(),
        kernel: "scalar".into(),
        strict_ns: division_ns / per_coeff,
        lazy_ns: recorded_ns / per_coeff,
    });
    Ok(())
}

/// The two lane rows of BFV's host loops at one degree of the 109-bit
/// parameter set: `crt_scale_round` and `lift_centered` on their scalar
/// loops (the gated rows' lazy side) against the evaluator's default
/// path, which takes the fused kernels of `cofhee_poly::rns` where the
/// host has them, each equal bit for bit before it is timed.
fn measure_rns_lanes(
    log_n: u32,
    reps: usize,
    out: &mut Vec<LaneRecord>,
) -> Result<(), Box<dyn std::error::Error>> {
    let kernel = if rns_lanes() { "avx512ifma" } else { "scalar" };
    let (params, limbs) = crt_fixture(log_n)?;
    let lanes = Evaluator::new(&params)?;
    let scalar = lanes.clone().with_scalar_host_loops();
    let want = coefficients(&scalar.tensor_combine(&limbs)?);
    assert_eq!(coefficients(&lanes.tensor_combine(&limbs)?), want, "bfv_q109 2^{log_n}: round");
    let (strict_ns, plan_ns) = time_pair(
        reps,
        |_| {
            std::hint::black_box(scalar.tensor_combine(&limbs).unwrap());
        },
        |_| {
            std::hint::black_box(lanes.tensor_combine(&limbs).unwrap());
        },
    );
    let per = (3 * params.n()) as f64;
    let (strict_ns, plan_ns) = (strict_ns / per, plan_ns / per);
    let (ring, op) = ("bfv_q109", "crt_scale_round");
    out.push(LaneRecord { ring, log_n, op, kernel, strict_ns, plan_ns });

    let (params, a, b) = lift_fixture(log_n)?;
    let lanes = Evaluator::new(&params)?;
    let scalar = lanes.clone().with_scalar_host_loops();
    let want = uploads(&scalar, &a, &b);
    assert_eq!(uploads(&lanes, &a, &b), want, "bfv_q109 2^{log_n}: lift_centered");
    let (strict_ns, plan_ns) = time_pair(
        reps,
        |_| {
            std::hint::black_box(scalar.tensor_streams(&a, &b).unwrap());
        },
        |_| {
            std::hint::black_box(lanes.tensor_streams(&a, &b).unwrap());
        },
    );
    let per = (want.len() * params.n()) as f64;
    let (strict_ns, plan_ns) = (strict_ns / per, plan_ns / per);
    out.push(LaneRecord { ring, log_n, op: "lift_centered", kernel, strict_ns, plan_ns });
    Ok(())
}

/// Whether this host runs `cofhee_poly::rns`'s kernels at the paper's
/// parameters: both need `avx512f` and `avx512ifma`, the scale-and-round
/// also `avx512dq`.
fn rns_lanes() -> bool {
    #[cfg(target_arch = "x86_64")]
    return is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512ifma")
        && is_x86_feature_detected!("avx512dq");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// One ungated row of the vector lanes: the strict kernel against the
/// one the plan dispatches to, ns per op.
#[derive(Debug, Clone, PartialEq)]
struct LaneRecord {
    ring: &'static str,
    log_n: u32,
    op: &'static str,
    kernel: &'static str,
    strict_ns: f64,
    plan_ns: f64,
}

/// Measures the seven lane rows at one degree on `ring`, every kernel
/// checked bit-exact against the strict one before it is timed.
fn measure_lanes<R: LazyRing>(
    label: &'static str,
    ring: &R,
    log_n: u32,
    reps: usize,
    out: &mut Vec<LaneRecord>,
) -> Result<(), Box<dyn std::error::Error>>
where
    R::Elem: Into<u128> + TryFrom<u128>,
{
    let n = 1usize << log_n;
    let plan = HarveyNtt::new(ring, n)?;
    let tables = plan.tables();
    let polys = |seed: u128| -> Vec<Vec<R::Elem>> {
        (0..INPUTS as u128).map(|k| rand_poly(ring, n, seed + 64 * k + log_n as u128)).collect()
    };
    let (a, b) = (polys(0x1a4e), polys(0x2b5f));
    let forward = |polys: &[Vec<R::Elem>]| -> Result<Vec<Vec<R::Elem>>, cofhee_poly::PolyError> {
        let mut polys = polys.to_vec();
        polys.iter_mut().try_for_each(|p| ntt::forward_inplace(ring, p, tables))?;
        Ok(polys)
    };
    let (fa, fb) = (forward(&a)?, forward(&b)?);
    let scalar_mul = |out: &mut [R::Elem], x: &[R::Elem], y: &[R::Elem]| {
        out.iter_mut().zip(x.iter().zip(y)).for_each(|(o, (&x, &y))| *o = ring.mul(x, y));
    };
    let scalar_add = |out: &mut [R::Elem], x: &[R::Elem], y: &[R::Elem], subtract: bool| {
        let op = if subtract { R::sub } else { R::add };
        out.iter_mut().zip(x.iter().zip(y)).for_each(|(o, (&x, &y))| *o = op(ring, x, y));
    };
    let q = ring.modulus();
    let scalar_below = |x: &[R::Elem]| x.iter().all(|&w| w.into() < q);
    let strict_hadamard_intt = |out: &mut [R::Elem], k: usize| {
        scalar_mul(out, &fa[k], &fb[k]);
        ntt::inverse_inplace(ring, out, tables).unwrap();
    };
    let (mut buf, mut buf2) = (a[0].clone(), a[0].clone());

    for k in 0..INPUTS {
        buf.copy_from_slice(&a[k]);
        plan.forward_inplace(&mut buf)?;
        assert_eq!(buf, fa[k], "{label} 2^{log_n}: ntt != strict");
        plan.inverse_inplace(&mut buf)?;
        assert_eq!(buf, a[k], "{label} 2^{log_n}: intt != strict");
        strict_hadamard_intt(&mut buf, k);
        assert_eq!(plan.hadamard_intt(&fa[k], &fb[k])?, buf, "{label} 2^{log_n}: hadamard_intt");
        scalar_mul(&mut buf, &a[k], &b[k]);
        buf2.copy_from_slice(&a[k]);
        pointwise::mul_assign(ring, &mut buf2, &b[k])?;
        assert_eq!(buf2, buf, "{label} 2^{log_n}: mul != ModRing::mul");
        scalar_add(&mut buf, &a[k], &b[k], false);
        pointwise::add_into(ring, &mut buf2, &a[k], &b[k])?;
        assert_eq!(buf2, buf, "{label} 2^{log_n}: add != ModRing::add");
        scalar_add(&mut buf, &a[k], &b[k], true);
        pointwise::sub_into(ring, &mut buf2, &a[k], &b[k])?;
        assert_eq!(buf2, buf, "{label} 2^{log_n}: sub != ModRing::sub");
        buf.copy_from_slice(&a[k]);
        buf[n - 1 - k] = ring.from_u128(q - 1);
        assert!(scalar_below(&buf) && pointwise::all_below(q, &buf), "{label} 2^{log_n}: below");
        buf[n - 1 - k] = R::Elem::try_from(q).map_err(|_| "q fits the element")?;
        assert!(!scalar_below(&buf) && !pointwise::all_below(q, &buf), "{label} 2^{log_n}: below");
    }

    let kernel = plan.kernel();
    let mut push = |op, per: usize, (strict_ns, plan_ns): (f64, f64)| {
        let (strict_ns, plan_ns) = (strict_ns / per as f64, plan_ns / per as f64);
        out.push(LaneRecord { ring: label, log_n, op, kernel, strict_ns, plan_ns });
    };
    push(
        "ntt",
        1,
        time_pair(
            reps,
            |rep| {
                buf.copy_from_slice(&a[rep % INPUTS]);
                ntt::forward_inplace(ring, &mut buf, tables).unwrap();
            },
            |rep| {
                buf2.copy_from_slice(&a[rep % INPUTS]);
                plan.forward_inplace(&mut buf2).unwrap();
            },
        ),
    );
    push(
        "intt",
        1,
        time_pair(
            reps,
            |rep| {
                buf.copy_from_slice(&fa[rep % INPUTS]);
                ntt::inverse_inplace(ring, &mut buf, tables).unwrap();
            },
            |rep| {
                buf2.copy_from_slice(&fa[rep % INPUTS]);
                plan.inverse_inplace(&mut buf2).unwrap();
            },
        ),
    );
    push(
        "hadamard_intt",
        1,
        time_pair(
            reps,
            |rep| strict_hadamard_intt(&mut buf, rep % INPUTS),
            |rep| {
                let k = rep % INPUTS;
                plan.hadamard_intt_into(&fa[k], &fb[k], &mut buf2).unwrap();
            },
        ),
    );
    push(
        "mul",
        n,
        time_pair(
            reps,
            |rep| {
                let k = rep % INPUTS;
                scalar_mul(&mut buf, &a[k], &b[k]);
                std::hint::black_box(&mut buf);
            },
            |rep| {
                let k = rep % INPUTS;
                buf2.copy_from_slice(&a[k]);
                pointwise::mul_assign(ring, &mut buf2, &b[k]).unwrap();
                std::hint::black_box(&mut buf2);
            },
        ),
    );
    for (op, subtract) in [("add", false), ("sub", true)] {
        let sum = if subtract { pointwise::sub_into } else { pointwise::add_into };
        push(
            op,
            n,
            time_pair(
                reps,
                |rep| {
                    let k = rep % INPUTS;
                    scalar_add(&mut buf, &a[k], &b[k], subtract);
                    std::hint::black_box(&mut buf);
                },
                |rep| {
                    let k = rep % INPUTS;
                    sum(ring, &mut buf2, &a[k], &b[k]).unwrap();
                    std::hint::black_box(&mut buf2);
                },
            ),
        );
    }
    push(
        "below",
        n,
        time_pair(
            reps,
            |rep| assert!(std::hint::black_box(scalar_below(&a[rep % INPUTS]))),
            |rep| assert!(std::hint::black_box(pointwise::all_below(q, &a[rep % INPUTS]))),
        ),
    );
    Ok(())
}

fn render_json(mode: &str, records: &[Record], lanes: &[LaneRecord]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"schema\": \"cofhee-hotpath-v1\",");
    let _ = writeln!(s, "  \"mode\": \"{mode}\",");
    let _ = writeln!(s, "  \"results\": [");
    for (i, r) in records.iter().enumerate() {
        let comma = if i + 1 < records.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"ring\": \"{}\", \"log_n\": {}, \"op\": \"{}\", \"kernel\": \"{}\", \
             \"strict_ns_per_op\": {:.1}, \"lazy_ns_per_op\": {:.1}, \
             \"speedup\": {:.3}}}{comma}",
            r.ring,
            r.log_n,
            r.op,
            r.kernel,
            r.strict_ns,
            r.lazy_ns,
            r.speedup()
        );
    }
    let _ = writeln!(s, "  ],");
    // Ungated: no `lazy_ns_per_op` field, so `parse_records` skips these
    // lines even in a baseline recorded from this file.
    let _ = writeln!(s, "  \"lanes\": [");
    for (i, r) in lanes.iter().enumerate() {
        let comma = if i + 1 < lanes.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"ring\": \"{}\", \"log_n\": {}, \"op\": \"{}\", \
             \"kernel\": \"{}\", \"strict_ns_per_op\": {:.1}, \"plan_ns_per_op\": {:.1}, \
             \"speedup\": {:.3}}}{comma}",
            r.ring,
            r.log_n,
            r.op,
            r.kernel,
            r.strict_ns,
            r.plan_ns,
            r.strict_ns / r.plan_ns
        );
    }
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

/// Minimal line-oriented reader for the schema `render_json` writes
/// (one record per line). Tolerant of field order within a line.
fn parse_records(text: &str) -> Vec<Record> {
    fn str_field(line: &str, key: &str) -> Option<String> {
        let pat = format!("\"{key}\": \"");
        let start = line.find(&pat)? + pat.len();
        let end = line[start..].find('"')? + start;
        Some(line[start..end].to_string())
    }
    fn num_field(line: &str, key: &str) -> Option<f64> {
        let pat = format!("\"{key}\": ");
        let start = line.find(&pat)? + pat.len();
        let end = line[start..]
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
            .map(|e| e + start)
            .unwrap_or(line.len());
        line[start..end].parse().ok()
    }
    text.lines()
        .filter_map(|line| {
            Some(Record {
                ring: str_field(line, "ring")?,
                log_n: num_field(line, "log_n")? as u32,
                op: str_field(line, "op")?,
                kernel: str_field(line, "kernel")?,
                strict_ns: num_field(line, "strict_ns_per_op")?,
                lazy_ns: num_field(line, "lazy_ns_per_op")?,
            })
        })
        .collect()
}

fn baseline_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baselines/hotpath.json")
}

fn load_baseline() -> Result<Vec<Record>, Box<dyn std::error::Error>> {
    let path = baseline_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    let baseline = parse_records(&text);
    if baseline.is_empty() {
        return Err(format!("baseline {} holds no records", path.display()).into());
    }
    Ok(baseline)
}

/// Whether a row's `lazy/strict` ratio regressed beyond the budget vs its
/// baseline row — a failure a re-measurement could clear (an unmatched
/// row cannot be, so it does not count here).
fn regressed(record: &Record, baseline: &[Record]) -> bool {
    baseline
        .iter()
        .find(|b| b.same_row(record))
        .is_some_and(|b| record.delta_vs(b) > REGRESSION_BUDGET)
}

/// The CI regression gate: compares `lazy/strict` ratios against the
/// checked-in baseline, printing the full diff table. Rows are keyed by
/// `(ring, n, op, kernel)`, and a host gates the rows of the kernels it
/// runs: a baseline row whose op this run measured on another kernel
/// (the IFMA lanes on a runner without them, the scalar stages on one
/// with them) is printed as not run. Returns the number of failing rows:
/// regressions beyond the budget, measured rows the baseline lacks, and
/// baseline rows whose op the run did not measure at all.
fn check_against_baseline(records: &[Record], baseline: &[Record]) -> usize {
    println!(
        "\nRegression gate vs {} (budget: +{:.0}% on lazy/strict)",
        baseline_path().display(),
        REGRESSION_BUDGET * 100.0
    );
    println!(
        "{:<11} {:>6} {:<14} {:<10} | {:>10} {:>10} {:>8} | verdict",
        "ring", "n", "op", "kernel", "base", "now", "delta"
    );
    let line = |r: &Record, base: String, now: String, delta: String, verdict: &str| {
        let n = 1u64 << r.log_n;
        println!(
            "{:<11} {n:>6} {:<14} {:<10} | {base:>10} {now:>10} {delta:>8} | {verdict}",
            r.ring, r.op, r.kernel
        );
    };
    let mut failures = 0usize;
    for r in records {
        let Some(b) = baseline.iter().find(|b| b.same_row(r)) else {
            failures += 1;
            line(r, "-".into(), format!("{:.3}", r.rel()), "-".into(), "NO BASELINE ROW");
            continue;
        };
        let delta = r.delta_vs(b);
        let bad = delta > REGRESSION_BUDGET;
        failures += usize::from(bad);
        let verdict = if bad { "REGRESSED" } else { "ok" };
        let (base, now) = (format!("{:.3}", b.rel()), format!("{:.3}", r.rel()));
        line(r, base, now, format!("{:+.1}%", delta * 100.0), verdict);
    }
    for b in baseline.iter().filter(|b| !records.iter().any(|r| r.same_row(b))) {
        let ran = records.iter().find(|r| r.same_op(b));
        failures += usize::from(ran.is_none());
        let verdict =
            ran.map_or("NOT MEASURED".into(), |r| format!("not run (host: {})", r.kernel));
        line(b, format!("{:.3}", b.rel()), "-".into(), "-".into(), &verdict);
    }
    failures
}

/// Measures one group of rows, the unit a row is re-measured in: the
/// six kernel rows of `barrett64` or `barrett128` at `2^log_n`, or the two
/// host rows of the BFV multiply (`bfv_q109`) there.
fn measure_group(
    ring: &str,
    log_n: u32,
    reps: usize,
    out: &mut Vec<Record>,
) -> Result<(), Box<dyn std::error::Error>> {
    let n = 1usize << log_n;
    match ring {
        "bfv_q109" => {
            measure_crt(log_n, reps, out)?;
            measure_lift(log_n, reps, out)
        }
        "barrett64" => {
            let ring64 = Barrett64::new(ntt_prime(55, n)? as u64)?;
            measure(ring, &ring64, |c| ring64.reduce_u128(c), log_n, reps, out)
        }
        _ => {
            let ring128 = Barrett128::new(ntt_prime(109, n)?)?;
            let reduce128 = |c| ring128.reduce_u256(U256::from_u128(c));
            measure(ring, &ring128, reduce128, log_n, reps, out)
        }
    }
}

/// One full sweep: both rings at every degree of `log_ns`, and the two
/// host rows of the BFV multiply at every degree of `crt_log_ns`.
fn collect(
    log_ns: &[u32],
    crt_log_ns: &[u32],
    reps: usize,
) -> Result<Vec<Record>, Box<dyn std::error::Error>> {
    let mut records = Vec::new();
    for &log_n in crt_log_ns {
        measure_group("bfv_q109", log_n, reps, &mut records)?;
    }
    for &log_n in log_ns {
        for ring in ["barrett64", "barrett128"] {
            measure_group(ring, log_n, reps, &mut records)?;
        }
    }
    Ok(records)
}

/// The pause before each re-measurement round. On a shared 2-vCPU host a
/// slow spell stretches a scalar lazy kernel more than its strict
/// counterpart — `barrett64` `lazy/strict` +25–40 % — and lasts from
/// under a second to a few: a round that starts after one samples another
/// spell.
const REMEASURE_PAUSE: std::time::Duration = std::time::Duration::from_secs(3);

/// How many times the first sweep's reps a re-measurement round takes:
/// best-of over more reps finds the calm moments within a spell.
const REMEASURE_REPS: usize = 32;

/// The `--check` gate's re-measurement: every row over budget is measured
/// again, its group at a time, in up to two more rounds — each after a
/// [`REMEASURE_PAUSE`], with [`REMEASURE_REPS`] times the reps, timing strict and lazy
/// interleaved rep by rep as the first sweep did. A row keeps its best
/// whole pair (see [`merge_best_ratio`]), so it fails only if every round
/// it was measured in exceeds the budget.
fn remeasure_regressed(
    records: &mut [Record],
    baseline: &[Record],
    reps: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    for _ in 0..2 {
        let mut groups: Vec<(String, u32)> = Vec::new();
        for r in records.iter().filter(|r| regressed(r, baseline)) {
            if !groups.iter().any(|(ring, log_n)| *ring == r.ring && *log_n == r.log_n) {
                groups.push((r.ring.clone(), r.log_n));
            }
        }
        if groups.is_empty() {
            break;
        }
        std::thread::sleep(REMEASURE_PAUSE);
        for (ring, log_n) in groups {
            let mut fresh = Vec::new();
            measure_group(&ring, log_n, REMEASURE_REPS * reps, &mut fresh)?;
            merge_best_ratio(records, &fresh);
        }
    }
    Ok(())
}

/// Folds a fresh sweep into `records`, keeping per row whichever
/// *whole measurement pair* exhibited the better (lower) `lazy/strict`
/// ratio. Rows stay actually-measured pairs — mixing the minimum
/// numerator of one sweep with the minimum denominator of another
/// could manufacture a ratio no run exhibited.
fn merge_best_ratio(records: &mut [Record], fresh: &[Record]) {
    for r in records.iter_mut() {
        if let Some(f) = fresh.iter().find(|f| f.same_row(r)) {
            if f.rel() < r.rel() {
                *r = f.clone();
            }
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let smoke = cofhee_bench::smoke_mode();
    let check = std::env::args().any(|a| a == "--check");
    let mode = if smoke { "smoke" } else { "full" };
    // Smoke stays off the smallest degree (sub-10µs kernels measure
    // bimodally on shared CI hosts) and runs *more* reps, not fewer:
    // the --check gate needs best-of to converge well below the
    // regression budget's noise floor.
    let log_ns: &[u32] = if smoke { &[11, 12] } else { &[10, 11, 12, 13, 14] };
    // The host CRT row runs at the paper's two degrees (smoke: its own).
    let crt_log_ns: &[u32] = if smoke { log_ns } else { &[12, 13] };
    let reps = cofhee_bench::sized(12, 40);

    println!("Hot-path profile: strict vs Harvey lazy-reduction kernels ({mode} mode)");
    println!("(best of {reps} reps per point; both kernels verified bit-exact before timing)\n");

    let baseline = if check { Some(load_baseline()?) } else { None };
    let mut records = collect(log_ns, crt_log_ns, reps)?;
    if let Some(baseline) = &baseline {
        // Noise rejection: a genuine kernel regression survives a
        // re-measurement; a slow spell on a shared host need not.
        remeasure_regressed(&mut records, baseline, reps)?;
    }

    println!(
        "{:<11} {:>6} {:<14} | {:>12} {:>12} | {:>8} | kernel",
        "ring", "n", "op", "strict ns/op", "lazy ns/op", "speedup"
    );
    for r in &records {
        println!(
            "{:<11} {:>6} {:<14} | {:>12.1} {:>12.1} | {:>7.2}x | {}",
            r.ring,
            1u64 << r.log_n,
            r.op,
            r.strict_ns,
            r.lazy_ns,
            r.speedup(),
            r.kernel
        );
    }

    let mut lanes = Vec::new();
    for &log_n in if smoke { &[12][..] } else { &[12, 13, 14] } {
        measure_rns_lanes(log_n, reps, &mut lanes)?;
        let n = 1 << log_n;
        let q43 = Barrett64::new(ntt_prime(43, n)? as u64)?;
        measure_lanes("barrett64_q43", &q43, log_n, reps, &mut lanes)?;
        let q109 = Barrett128::new(ntt_prime(109, n)?)?;
        measure_lanes("barrett128_q109", &q109, log_n, reps, &mut lanes)?;
    }
    println!(
        "\nVector lanes: BFV's host loops and the 43- and 109-bit primes (ungated; strict or \
         scalar vs the kernel the plan dispatches to)"
    );
    println!(
        "{:<15} {:<6} {:<14} | {:>12} {:>12} | {:>8} | kernel",
        "ring", "n", "op", "strict ns/op", "plan ns/op", "speedup"
    );
    for r in &lanes {
        println!(
            "{:<15} {:<6} {:<14} | {:>12.1} {:>12.1} | {:>7.2}x | {}",
            r.ring,
            1u64 << r.log_n,
            r.op,
            r.strict_ns,
            r.plan_ns,
            r.strict_ns / r.plan_ns,
            r.kernel
        );
    }

    let json = render_json(mode, &records, &lanes);
    std::fs::write("BENCH_hotpath.json", &json)?;
    println!("\nwrote BENCH_hotpath.json ({} records, {} lane rows)", records.len(), lanes.len());

    if !smoke {
        // The lazy tier's acceptance criterion, enforced where it is
        // claimed: ≥2x on ntt and poly_mul at the paper's 2^13
        // evaluation point, on both engine widths.
        for r in records.iter().filter(|r| r.log_n == 13 && (r.op == "ntt" || r.op == "poly_mul")) {
            assert!(
                r.speedup() >= ACCEPTANCE_SPEEDUP,
                "{} {} at 2^13: {:.2}x < {ACCEPTANCE_SPEEDUP}x",
                r.ring,
                r.op,
                r.speedup()
            );
        }
        println!("acceptance: ntt/poly_mul at 2^13 are ≥{ACCEPTANCE_SPEEDUP}x on both rings");
    }

    if let Some(baseline) = &baseline {
        let failures = check_against_baseline(&records, baseline);
        if failures > 0 {
            eprintln!(
                "\n{failures} row(s) regressed beyond the {:.0}% budget or exist on only one side \
                 of the baseline",
                REGRESSION_BUDGET * 100.0
            );
            std::process::exit(1);
        }
        println!("regression gate: clean");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(op: &str, lazy_ns: f64) -> Record {
        on("scalar", op, lazy_ns)
    }

    fn on(kernel: &str, op: &str, lazy_ns: f64) -> Record {
        let (ring, op, kernel) = ("barrett128".into(), op.into(), kernel.into());
        Record { ring, log_n: 11, op, kernel, strict_ns: 100.0, lazy_ns }
    }

    #[test]
    fn check_fails_on_regressed_and_on_unmatched_rows() {
        let baseline = [row("ntt", 40.0), row("intt", 40.0)];
        assert_eq!(check_against_baseline(&[row("ntt", 41.0), row("intt", 39.0)], &baseline), 0);
        assert_eq!(check_against_baseline(&[row("ntt", 60.0), row("intt", 40.0)], &baseline), 1);
        // A baseline row the run no longer measures (renamed or dropped).
        assert_eq!(check_against_baseline(&[row("ntt", 40.0)], &baseline), 1);
        // A measured row the baseline does not hold.
        let extra = [row("ntt", 40.0), row("intt", 40.0), row("poly_mul", 40.0)];
        assert_eq!(check_against_baseline(&extra, &baseline), 1);
        // Zero overlap fails on every row of both sides.
        assert_eq!(check_against_baseline(&[row("poly_mul", 40.0)], &baseline), 3);
    }

    #[test]
    fn check_gates_only_the_kernel_the_host_ran() {
        let baseline = [on("scalar", "ntt", 40.0), on("avx512ifma", "ntt", 20.0)];
        // Each host is held to its own kernel's entry; the other is not run.
        assert_eq!(check_against_baseline(&[on("scalar", "ntt", 45.0)], &baseline), 0);
        assert_eq!(check_against_baseline(&[on("avx512ifma", "ntt", 24.0)], &baseline), 0);
        // The lanes read against the scalar entry would pass ×2 slower.
        assert_eq!(check_against_baseline(&[on("avx512ifma", "ntt", 39.0)], &baseline), 1);
        // A kernel the baseline holds no entry for fails, however fast.
        assert_eq!(check_against_baseline(&[on("strict", "ntt", 10.0)], &baseline), 1);
    }
}
