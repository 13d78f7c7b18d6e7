//! BFV parameter sets.
//!
//! The paper evaluates at two points (Section VI-B), both giving 128-bit
//! classical security per the Homomorphic Encryption Security Standard:
//!
//! * `(n, log q) = (2^12, 109)` — SEAL splits `q` into 54+55-bit RNS
//!   towers; CoFHEE handles the full 109 bits natively in one tower.
//! * `(n, log q) = (2^13, 218)` — SEAL uses four ≈55-bit towers; CoFHEE
//!   uses two 109-bit towers.
//!
//! This crate's exact BFV (encrypt/decrypt/multiply) operates over a
//! single NTT-friendly prime `q` of up to [`MAX_FUNCTIONAL_LOG_Q`] bits;
//! a wider `q` is refused. The paper's 218-bit point appears only as
//! timed workloads: Fig. 6's per-tower tensor streams on the CPU side and
//! two 109-bit tower schedules on the chip.

use std::sync::Arc;

use cofhee_arith::{
    primes, rns::RnsBasis, Barrett128, Barrett64, LazyRing, ModRing, ShoupMul, U256,
};
use cofhee_poly::rns::{self, Lane};

use crate::error::{BfvError, Result};

/// Maximum `log₂ q` of the exact single-modulus path: the widest `q`
/// whose tensor limb runs on the wide vector lanes. The basis conditions
/// of [`BfvParams::new`] bound `t` and `n`.
pub const MAX_FUNCTIONAL_LOG_Q: u32 = 110;

/// Widest lane prime: the word vector lanes take moduli below `2^50`.
const LANE_PRIME_BITS: u32 = 49;

/// A validated BFV parameter set over a single prime modulus.
#[derive(Debug, Clone)]
pub struct BfvParams {
    n: usize,
    t: u64,
    q: u128,
    /// The scalar ring mod `q`: what the samplers, the decryption's
    /// centering and `Tⁱ mod q` need. No transform plan lives here —
    /// every polynomial product, key generation included, runs on a
    /// backend brought up for `(q, n)`.
    ring: Barrett128,
    /// Δ = ⌊q/t⌋, the plaintext scaling factor of Eq. 2.
    delta: u128,
    /// The host-side rounding constants, shared by clones.
    crt: Arc<CrtTables>,
}

/// What the host half of multiplication precomputes.
#[derive(Debug)]
struct CrtTables {
    /// The tensor's moduli in stream order: the lane primes `p₁ … p_k`,
    /// then `q`.
    mult_basis: RnsBasis,
    /// Eq. 4's `⌊t·x/q⌉ mod q` from the tensor's residues.
    tensor_round: RnsRound,
}

/// Eq. 4's exact `⌊t·x/q⌉ mod q` in RNS over `{p₁ … p_k} ∪ {q}`, the
/// BEHZ / Halevi–Polyakov–Shoup multiply for one `q`: with
/// `r = centre([t·x]_q)`, `y = (t·x − r)/q` is the rounded quotient (`q`
/// is odd: no ties); with `ỹⱼ = [(t·xⱼ − [r]_{pⱼ})·q⁻¹·P̂ⱼ⁻¹]_{pⱼ}`,
/// `y = Σ ỹⱼ·P̂ⱼ − v·P` where `v = ⌊Σ ỹⱼ/pⱼ⌉`, because `|y| < P/4`.
/// Holds each lane prime's constants ([`Lane`]) and ring, `[t]_q` and
/// `[v·P]_q` for `v = 0 … k`.
#[derive(Debug)]
pub(crate) struct RnsRound {
    pub(crate) lanes: Vec<Lane>,
    pub(crate) rings: Vec<Barrett64>,
    q: Barrett128,
    t: ShoupMul<u128>,
    p_multiples: Vec<u128>,
}

impl RnsRound {
    fn new(t: u64, q: u128, primes: &[u128]) -> Result<Self> {
        let ring = Barrett128::new(q)?;
        let (mut lanes, mut rings) = (Vec::new(), Vec::new());
        for (j, &p) in primes.iter().enumerate() {
            let lane = Barrett64::new(p as u64)?;
            let others = primes.iter().enumerate().filter(|&(i, _)| i != j).map(|(_, &p)| p);
            let hat_p = others.clone().fold(1, |acc, p| lane.mul(acc, lane.from_u128(p)));
            let hat_q = others.fold(ring.one(), |acc, p| ring.mul(acc, ring.from_u128(p)));
            let scale = lane.inv(lane.mul(lane.from_u128(q), hat_p))?;
            let quotient = U256::from_u128(hat_q).shl(64).div_rem(U256::from_u128(q)).0;
            lanes.push(Lane {
                p: p as u64,
                q: lane.from_u128(q),
                t: lane.shoup(lane.from_u128(u128::from(t))),
                scale: lane.shoup(scale),
                inv: 1.0 / p as f64,
                weight: (hat_q, quotient.low_u128() as u64),
            });
            rings.push(lane);
        }
        let p_mod_q = primes.iter().fold(ring.one(), |acc, &p| ring.mul(acc, ring.from_u128(p)));
        let p_multiples = (0..=primes.len() as u128).map(|v| ring.mul(v, p_mod_q)).collect();
        Ok(Self { lanes, rings, q: ring, t: ring.shoup(u128::from(t)), p_multiples })
    }

    /// `out[j] = ⌊t·x/q⌉ mod q` for a run of tensor coefficients, from
    /// their residues mod `q` and one column per lane prime. An unreduced
    /// residue is `OperandOutOfRange`, and no result is returned: the pass
    /// that rounds checks each word it reads — the fused kernel of
    /// [`cofhee_poly::rns::scale_round`] where the host has it and `lanes`
    /// asks, otherwise the scalar loop on the caller's `scratch`.
    pub(crate) fn apply<'a>(
        &self,
        out: &mut [u128],
        x_q: &'a [u128],
        x_p: impl Iterator<Item = &'a [u128]> + Clone,
        scratch: &mut (Vec<u128>, Vec<f64>),
        lanes: bool,
    ) -> Result<()> {
        let q = self.q.q();
        // The kernel takes at most seven lane primes; more runs scalar.
        let mut columns = [&[][..]; 8];
        let k = columns.iter_mut().zip(x_p.clone()).map(|(c, x)| *c = x).count();
        let x = (x_q, &columns[..k]);
        let kernel = || rns::scale_round(out, x, (q, &self.t), &self.lanes, &self.p_multiples);
        let reduced = match lanes.then(kernel).flatten() {
            Some(reduced) => reduced,
            None => self.scalar(out, x_q, x_p.clone(), scratch),
        };
        if reduced {
            return Ok(());
        }
        let moduli = std::iter::once(q).chain(self.lanes.iter().map(|l| u128::from(l.p)));
        let unreduced = |(c, m): (&[u128], u128)| c.iter().find(|&&x| x >= m).map(|&x| (x, m));
        let mut columns = std::iter::once(x_q).chain(x_p).zip(moduli);
        let (value, modulus) = columns.find_map(unreduced).expect("a residue is unreduced");
        Err(cofhee_arith::ArithError::OperandOutOfRange { value, modulus }.into())
    }

    /// The scalar loop, one pass per column: whether every word was reduced.
    fn scalar<'a>(
        &self,
        out: &mut [u128],
        x_q: &'a [u128],
        x_p: impl Iterator<Item = &'a [u128]>,
        (tx, estimate): &mut (Vec<u128>, Vec<f64>),
    ) -> bool {
        let ring = &self.q;
        let q = ring.q();
        let mut reduced = true;
        // [t·x]_q, and Σ ỹⱼ·[P̂ⱼ]_q accumulated in `out` below 2q.
        tx.clear();
        tx.extend(x_q.iter().map(|&x| {
            reduced &= x < q;
            ring.reduce_once(ring.mul_lazy(x, &self.t))
        }));
        estimate.clear();
        estimate.resize(out.len(), 0.5);
        out.fill(0);
        let half = q / 2;
        for ((lane, p), column) in self.lanes.iter().zip(&self.rings).zip(x_p) {
            let (w, quotient) = lane.weight;
            let terms = out.iter_mut().zip(estimate.iter_mut()).zip(tx.iter()).zip(column);
            for (((acc, e), &tx), &x) in terms {
                reduced &= x < u128::from(lane.p);
                // t·xⱼ − [r]_{pⱼ} = t·xⱼ − [t·x]_q (+ q past q/2), below 5pⱼ.
                let r = u64::from(tx > half) * lane.q + 2 * p.q() - p.reduce_u128(tx);
                let y = p.reduce_once(p.mul_lazy(p.mul_lazy(x as u64, &lane.t) + r, &lane.scale));
                // y < 2^49: a signed conversion, one instruction.
                *e += y as i64 as f64 * lane.inv;
                // y·[P̂ⱼ]_q by Harvey's lemma at β = 2^64: below 2q.
                let hi = (u128::from(y) * u128::from(quotient)) >> 64;
                let term = u128::from(y).wrapping_mul(w).wrapping_sub(hi.wrapping_mul(q));
                *acc = ring.fold_2q(*acc + term);
            }
        }
        // v = ⌊Σ ỹⱼ/pⱼ⌉: the sum is non-negative and `estimate` starts at ½.
        for (acc, &e) in out.iter_mut().zip(estimate.iter()) {
            *acc = ring.sub(ring.reduce_once(*acc), self.p_multiples[e as i64 as usize]);
        }
        reduced
    }
}

impl BfvParams {
    /// Validates and precomputes a parameter set.
    ///
    /// `q` must be an NTT-friendly prime (`q ≡ 1 mod 2n`) of at most
    /// [`MAX_FUNCTIONAL_LOG_Q`] bits; `t` must satisfy `1 < t < q` and
    /// `t ≪ q`. The tensor's basis is `q` plus the fewest NTT primes
    /// `pⱼ < 2^49` whose product `P` meets the two basis conditions:
    /// `P > 2·(t·n·q + 1)` — twice the rounded tensor's bound
    /// `t·n·q/2 + 1`, with one guard bit for the `f64` estimate of the
    /// scale-and-round — and `q·P < 2^256`.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::InvalidParams`] describing the violated
    /// constraint.
    pub fn new(n: usize, t: u64, q: u128) -> Result<Self> {
        if !n.is_power_of_two() || n < 4 {
            return Err(BfvError::InvalidParams {
                reason: format!("degree {n} must be a power of two >= 4"),
            });
        }
        let q_bits = 128 - q.leading_zeros();
        if q_bits > MAX_FUNCTIONAL_LOG_Q {
            return Err(BfvError::InvalidParams {
                reason: format!(
                    "log q = {q_bits} exceeds the {MAX_FUNCTIONAL_LOG_Q}-bit limit of exact \
                     single-modulus BFV; wider moduli are not supported"
                ),
            });
        }
        if !primes::is_prime(q) || (q - 1) % (2 * n as u128) != 0 {
            return Err(BfvError::InvalidParams {
                reason: format!("q = {q} must be prime with q ≡ 1 (mod 2n)"),
            });
        }
        if t < 2 || (t as u128) >= q >> 10 {
            return Err(BfvError::InvalidParams {
                reason: format!("plaintext modulus t = {t} must satisfy 2 <= t << q"),
            });
        }
        let ring = Barrett128::new(q)?;
        let lane_primes = lane_primes(n, t, q)?;
        let moduli = lane_primes.iter().copied().chain([q]).collect();
        let mult_basis = RnsBasis::new(moduli).map_err(|_| BfvError::InvalidParams {
            reason: format!("q·P exceeds 2^256 for t = {t}, log q = {q_bits}, n = {n}"),
        })?;
        let crt =
            Arc::new(CrtTables { mult_basis, tensor_round: RnsRound::new(t, q, &lane_primes)? });
        Ok(Self { n, t, q, ring, delta: q / t as u128, crt })
    }

    /// The paper's `(n, log q) = (2^12, 109)` evaluation point with a
    /// batching-friendly plaintext modulus.
    ///
    /// # Errors
    ///
    /// Propagates prime-search failures (none for these constants).
    pub fn paper_n12() -> Result<Self> {
        let n = 1 << 12;
        let q = primes::ntt_prime(109, n)?;
        // t ≡ 1 (mod 2n) so the batch encoder works.
        let t = primes::ntt_prime(20, n)? as u64;
        Self::new(n, t, q)
    }

    /// A `n = 2^13` functional set at 109-bit `q` (the paper's 218-bit
    /// point exceeds [`MAX_FUNCTIONAL_LOG_Q`]: Fig. 6 times it only).
    ///
    /// # Errors
    ///
    /// Propagates prime-search failures (none for these constants).
    pub fn paper_n13_single_tower() -> Result<Self> {
        let n = 1 << 13;
        let q = primes::ntt_prime(109, n)?;
        let t = primes::ntt_prime(20, n)? as u64;
        Self::new(n, t, q)
    }

    /// A small, fast parameter set for unit tests and examples.
    ///
    /// # Errors
    ///
    /// Propagates prime-search failures (none for these constants).
    pub fn insecure_testing(n: usize) -> Result<Self> {
        let q = primes::ntt_prime(60, n)?;
        let t = primes::ntt_prime(16, n)? as u64;
        Self::new(n, t, q)
    }

    /// Polynomial degree `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Plaintext modulus `t`.
    #[inline]
    pub fn t(&self) -> u64 {
        self.t
    }

    /// Ciphertext modulus `q`.
    #[inline]
    pub fn q(&self) -> u128 {
        self.q
    }

    /// `log₂ q`, rounded up.
    #[inline]
    pub fn log_q(&self) -> u32 {
        128 - self.q.leading_zeros()
    }

    /// The scaling factor `Δ = ⌊q/t⌋`.
    #[inline]
    pub fn delta(&self) -> u128 {
        self.delta
    }

    /// The scalar ring mod `q`.
    #[inline]
    pub(crate) fn ring(&self) -> &Barrett128 {
        &self.ring
    }

    /// The exact tensor's moduli in stream order: the lane primes, then
    /// `q`.
    #[inline]
    pub fn mult_basis(&self) -> &RnsBasis {
        &self.crt.mult_basis
    }

    /// The exact scale-and-round finishing a tensor coefficient.
    #[inline]
    pub(crate) fn tensor_round(&self) -> &RnsRound {
        &self.crt.tensor_round
    }
}

/// The lane primes: `k = ⌈(b + 1)/49⌉` NTT primes, none of them `q`,
/// where `b` is the bit length of `2·(t·n·q + 1)`, their widths summing to
/// `b + 1` — primes just below `2^w` multiply past `2^(b + 1 − 1)`, so
/// their product exceeds the bound without a bit more than it needs.
fn lane_primes(n: usize, t: u64, q: u128) -> Result<Vec<u128>> {
    let tnq = [u128::from(t), n as u128]
        .iter()
        .try_fold(U256::from_u128(q), |acc, &f| acc.checked_mul(U256::from_u128(f)));
    let bound = tnq.map(|b| b.wrapping_add(U256::ONE).shl(1)).filter(|b| b.bits() < 255);
    let bound = bound.ok_or_else(|| BfvError::InvalidParams {
        reason: format!("t·n·q is past 2^254 for t = {t}, n = {n}"),
    })?;
    let width = bound.bits() + 1;
    let k = width.div_ceil(LANE_PRIME_BITS);
    let mut chosen = Vec::with_capacity(k as usize);
    for (bits, count) in [(width / k + 1, width % k), (width / k, k - width % k)] {
        if count > 0 {
            let found = primes::ntt_primes(bits, n, count as usize + 1)?;
            chosen.extend(found.into_iter().filter(|&p| p != q).take(count as usize));
        }
    }
    let product = chosen.iter().fold(U256::ONE, |acc, &p| acc.wrapping_mul(U256::from_u128(p)));
    if product <= bound {
        return Err(BfvError::InvalidParams {
            reason: format!("{k} NTT primes of {width} bits in all miss 2·(t·n·q + 1) at n = {n}"),
        });
    }
    Ok(chosen)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testing_params_validate() {
        let p = BfvParams::insecure_testing(1 << 6).unwrap();
        assert_eq!(p.n(), 64);
        assert!(p.delta() > 0);
        assert_eq!(p.mult_basis().moduli().last(), Some(&p.q()), "q is the last limb");
    }

    #[test]
    fn paper_n12_matches_paper_shape() {
        let p = BfvParams::paper_n12().unwrap();
        assert_eq!(p.n(), 1 << 12);
        assert_eq!(p.log_q(), 109);
        // The CPU baseline splits this into 2 towers; CoFHEE runs 1.
        assert_eq!(primes::tower_plan(p.log_q(), 64).len(), 2);
        assert_eq!(primes::tower_plan(p.log_q(), 128).len(), 1);
    }

    /// `2·(t·n·q + 1)`: twice the rounded tensor's bound, one guard bit.
    fn tensor_bound(params: &BfvParams) -> U256 {
        let tnq = [params.t() as u128, params.n() as u128]
            .iter()
            .fold(U256::from_u128(params.q()), |acc, &f| acc.wrapping_mul(U256::from_u128(f)));
        tnq.wrapping_add(U256::ONE).shl(1)
    }

    fn product(moduli: &[u128]) -> U256 {
        moduli.iter().fold(U256::ONE, |acc, &p| acc.wrapping_mul(U256::from_u128(p)))
    }

    #[test]
    fn the_computation_basis_is_the_fewest_lane_primes_that_cover_the_rounded_tensor() {
        let q_2_11 = primes::ntt_prime(109, 1 << 11).unwrap();
        let t_2_11 = primes::ntt_prime(20, 1 << 11).unwrap() as u64;
        for (params, lanes) in [
            (BfvParams::paper_n12().unwrap(), 3),
            (BfvParams::paper_n13_single_tower().unwrap(), 3),
            (BfvParams::new(1 << 11, t_2_11, q_2_11).unwrap(), 3),
            (BfvParams::insecure_testing(1 << 6).unwrap(), 2),
        ] {
            let basis = params.mult_basis();
            let (primes, last) = basis.moduli().split_at(lanes);
            assert_eq!(last, [params.q()], "n = {}: the lane primes, then q", params.n());
            assert!(primes.iter().all(|&p| p >> LANE_PRIME_BITS == 0), "the word lanes take them");
            // Condition 1: P > 2·(t·n·q/2 + 1), with a guard bit.
            let bound = tensor_bound(&params);
            assert!(product(primes) > bound, "n = {}", params.n());
            let fewer = U256::ONE.shl(LANE_PRIME_BITS * (lanes as u32 - 1));
            assert!(fewer <= bound, "one lane prime fewer could not cover it");
            // Condition 2: q·P < 2^256.
            assert!(product(basis.moduli()).bits() <= 256);
        }
    }

    #[test]
    fn a_set_whose_q_times_p_passes_256_bits_is_refused() {
        // log q = 110 at n = 2^13: a 20-bit t fits, a 28-bit one puts q·P
        // past 2^256.
        let n = 1 << 13;
        let q = primes::ntt_prime(110, n).unwrap();
        assert!(BfvParams::new(n, primes::ntt_prime(20, n).unwrap() as u64, q).is_ok());
        let wide_t = primes::ntt_prime(28, n).unwrap() as u64;
        assert!(BfvParams::new(n, wide_t, q).is_err());
    }

    #[test]
    fn rejects_bad_parameters() {
        // n not a power of two.
        assert!(BfvParams::new(100, 65537, 12289).is_err());
        // q too wide for the functional path.
        let q124 = primes::ntt_prime(124, 1 << 6).unwrap();
        assert!(BfvParams::new(1 << 6, 17, q124).is_err());
        // q not ≡ 1 mod 2n.
        assert!(BfvParams::new(1 << 6, 17, 1_000_003).is_err());
        // t too large relative to q.
        let q = primes::ntt_prime(60, 1 << 6).unwrap();
        assert!(BfvParams::new(1 << 6, (q >> 2) as u64, q).is_err());
    }
}
