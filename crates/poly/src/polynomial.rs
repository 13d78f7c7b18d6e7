//! Owned polynomial values over `Z_q[x]/(x^n + 1)` with domain tracking.
//!
//! A [`Polynomial`] knows whether it currently holds coefficients or NTT
//! evaluations ([`Domain`]), and every operation validates that its
//! operands live in the same ring and domain — the software equivalent of
//! the bookkeeping a CoFHEE host must do when deciding which chip command
//! to issue next.

use std::sync::Arc;

use cofhee_arith::LazyRing;
use rand::Rng;

use crate::error::{PolyError, Result};
use crate::lazy::HarveyNtt;
use crate::pointwise;

/// The representation domain of a polynomial's data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// Natural-order coefficients of `Z_q[x]/(x^n+1)`.
    Coefficient,
    /// Bit-reversed negacyclic NTT evaluations.
    Ntt,
}

impl Domain {
    fn name(self) -> &'static str {
        match self {
            Self::Coefficient => "coefficient",
            Self::Ntt => "ntt",
        }
    }
}

/// A shared ring context: the modulus engine and degree plus the
/// [`HarveyNtt`] transform plan for them — everything a host loads into
/// CoFHEE's configuration registers and twiddle SRAM before issuing
/// commands. The plan is held by `Arc`, so a context built with
/// [`PolyRing::from_plan`] on a [`crate::TwiddleCache`] plan shares one
/// table set with every backend serving the same `(q, n)`.
///
/// # Examples
///
/// ```
/// use cofhee_arith::{primes::ntt_prime, Barrett64};
/// use cofhee_poly::PolyRing;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let q = ntt_prime(55, 1 << 10)?;
/// let ring = PolyRing::new(Barrett64::new(q as u64)?, 1 << 10)?;
/// assert_eq!(ring.n(), 1 << 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PolyRing<R: LazyRing> {
    plan: Arc<HarveyNtt<R>>,
}

impl<R: LazyRing> PolyRing<R> {
    /// Builds the context, with a private plan, for degree `n` (a power
    /// of two ≥ 2).
    ///
    /// # Errors
    ///
    /// Propagates root-finding failures, e.g. when `q ≢ 1 (mod 2n)`.
    pub fn new(ring: R, n: usize) -> Result<Self> {
        Ok(Self::from_plan(Arc::new(HarveyNtt::new(&ring, n)?)))
    }

    /// The context of an existing (typically interned) plan's `(q, n)`.
    pub fn from_plan(plan: Arc<HarveyNtt<R>>) -> Self {
        Self { plan }
    }

    /// The coefficient ring engine.
    #[inline]
    pub fn ring(&self) -> &R {
        self.plan.ring()
    }

    /// The polynomial degree.
    #[inline]
    pub fn n(&self) -> usize {
        self.plan.n()
    }

    /// The coefficient modulus.
    #[inline]
    pub fn modulus(&self) -> u128 {
        self.ring().modulus()
    }

    /// The transform plan every [`Polynomial`] of this ring runs on.
    #[inline]
    pub fn plan(&self) -> &Arc<HarveyNtt<R>> {
        &self.plan
    }
}

/// An owned polynomial bound to a shared [`PolyRing`].
#[derive(Debug, Clone)]
pub struct Polynomial<R: LazyRing> {
    ctx: Arc<PolyRing<R>>,
    coeffs: Vec<R::Elem>,
    domain: Domain,
}

impl<R: LazyRing> PartialEq for Polynomial<R> {
    fn eq(&self, other: &Self) -> bool {
        self.ctx.modulus() == other.ctx.modulus()
            && self.ctx.n() == other.ctx.n()
            && self.domain == other.domain
            && self.coeffs == other.coeffs
    }
}

impl<R: LazyRing> Eq for Polynomial<R> {}

impl<R: LazyRing> Polynomial<R> {
    /// The zero polynomial in the coefficient domain.
    pub fn zero(ctx: Arc<PolyRing<R>>) -> Self {
        let n = ctx.n();
        let z = ctx.ring().zero();
        Self { ctx, coeffs: vec![z; n], domain: Domain::Coefficient }
    }

    /// Builds a polynomial from raw values, reducing each modulo `q`.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::LengthMismatch`] if `values.len() != n`.
    pub fn from_values(ctx: Arc<PolyRing<R>>, values: &[u128]) -> Result<Self> {
        if values.len() != ctx.n() {
            return Err(PolyError::LengthMismatch { expected: ctx.n(), found: values.len() });
        }
        let coeffs = values.iter().map(|&v| ctx.ring().from_u128(v)).collect();
        Ok(Self { ctx, coeffs, domain: Domain::Coefficient })
    }

    /// Wraps canonical elements in the given domain without reducing
    /// them ([`Polynomial::from_values`] is the reducing constructor).
    /// The lazy kernels take operands on trust — their `[0, 2q)` range
    /// contract is a `debug_assert!` — so this is where it is enforced.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::LengthMismatch`] if `coeffs.len() != n`, and
    /// [`PolyError::NonCanonical`] if any element is `≥ q`.
    pub fn from_elems(ctx: Arc<PolyRing<R>>, coeffs: Vec<R::Elem>, domain: Domain) -> Result<Self> {
        if coeffs.len() != ctx.n() {
            return Err(PolyError::LengthMismatch { expected: ctx.n(), found: coeffs.len() });
        }
        let q = ctx.modulus();
        if let Some(index) = coeffs.iter().position(|&c| ctx.ring().to_u128(c) >= q) {
            return Err(PolyError::NonCanonical { index, modulus: q });
        }
        Ok(Self { ctx, coeffs, domain })
    }

    /// A polynomial with uniformly random coefficients in `[0, q)` —
    /// the paper's pre-silicon test stimulus ("random coefficient values
    /// modulo q", Section III-J).
    pub fn random<G: Rng + ?Sized>(ctx: Arc<PolyRing<R>>, rng: &mut G) -> Self {
        let ring = ctx.ring().clone();
        let q = ring.modulus();
        let coeffs = (0..ctx.n())
            .map(|_| {
                let v: u128 = rng.gen();
                ring.from_u128(v % q)
            })
            .collect();
        Self { ctx, coeffs, domain: Domain::Coefficient }
    }

    /// The ring context.
    #[inline]
    pub fn context(&self) -> &Arc<PolyRing<R>> {
        &self.ctx
    }

    /// The current representation domain.
    #[inline]
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The raw element slice.
    #[inline]
    pub fn coeffs(&self) -> &[R::Elem] {
        &self.coeffs
    }

    /// Coefficients as canonical `u128` representatives.
    pub fn to_u128_vec(&self) -> Vec<u128> {
        self.coeffs.iter().map(|&c| self.ctx.ring().to_u128(c)).collect()
    }

    fn expect_domain(&self, expected: Domain) -> Result<()> {
        if self.domain != expected {
            return Err(PolyError::DomainMismatch {
                expected: expected.name(),
                found: self.domain.name(),
            });
        }
        Ok(())
    }

    fn check_compatible(&self, other: &Self) -> Result<()> {
        if self.ctx.n() != other.ctx.n() {
            return Err(PolyError::DegreeMismatch { left: self.ctx.n(), right: other.ctx.n() });
        }
        if self.ctx.modulus() != other.ctx.modulus() {
            return Err(PolyError::ModulusMismatch {
                left: self.ctx.modulus(),
                right: other.ctx.modulus(),
            });
        }
        if self.domain != other.domain {
            return Err(PolyError::DomainMismatch {
                expected: self.domain.name(),
                found: other.domain.name(),
            });
        }
        Ok(())
    }

    /// Transforms to the NTT domain (no-op error if already there).
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::DomainMismatch`] if already in NTT form.
    pub fn into_ntt(mut self) -> Result<Self> {
        self.expect_domain(Domain::Coefficient)?;
        self.ctx.plan().forward_inplace(&mut self.coeffs)?;
        self.domain = Domain::Ntt;
        Ok(self)
    }

    /// Transforms back to the coefficient domain.
    ///
    /// # Errors
    ///
    /// Returns [`PolyError::DomainMismatch`] if already in coefficient form.
    pub fn into_coeff(mut self) -> Result<Self> {
        self.expect_domain(Domain::Ntt)?;
        self.ctx.plan().inverse_inplace(&mut self.coeffs)?;
        self.domain = Domain::Coefficient;
        Ok(self)
    }

    /// Pointwise sum (valid in either domain; both operands must match).
    ///
    /// # Errors
    ///
    /// Returns a mismatch error if rings, degrees or domains differ.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        pointwise::add_assign(self.ctx.ring(), &mut out.coeffs, &other.coeffs)?;
        Ok(out)
    }

    /// Pointwise difference.
    ///
    /// # Errors
    ///
    /// Returns a mismatch error if rings, degrees or domains differ.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.check_compatible(other)?;
        let mut out = self.clone();
        pointwise::sub_assign(self.ctx.ring(), &mut out.coeffs, &other.coeffs)?;
        Ok(out)
    }

    /// Negation.
    pub fn neg(&self) -> Self {
        let mut out = self.clone();
        pointwise::neg_assign(self.ctx.ring(), &mut out.coeffs);
        out
    }

    /// Multiplication by a scalar constant (CMODMUL).
    pub fn scalar_mul(&self, c: R::Elem) -> Self {
        let mut out = self.clone();
        pointwise::scalar_mul_assign(self.ctx.ring(), &mut out.coeffs, c);
        out
    }

    /// Hadamard (pointwise) product — both operands must be in NTT form.
    ///
    /// # Errors
    ///
    /// Returns a mismatch error if operands differ or are not in NTT form.
    pub fn hadamard(&self, other: &Self) -> Result<Self> {
        self.expect_domain(Domain::Ntt)?;
        self.check_compatible(other)?;
        let mut out = self.clone();
        pointwise::mul_assign(self.ctx.ring(), &mut out.coeffs, &other.coeffs)?;
        Ok(out)
    }

    /// Full negacyclic product of two coefficient-domain polynomials via
    /// the plan's fused Algorithm 2 (2 NTTs + Hadamard + iNTT — the chip's
    /// PolyMul).
    ///
    /// # Errors
    ///
    /// Returns a mismatch error if operands differ or are not in
    /// coefficient form.
    pub fn negacyclic_mul(&self, other: &Self) -> Result<Self> {
        self.expect_domain(Domain::Coefficient)?;
        self.check_compatible(other)?;
        let coeffs = self.ctx.plan().poly_mul(&self.coeffs, &other.coeffs)?;
        Ok(Self { ctx: Arc::clone(&self.ctx), coeffs, domain: Domain::Coefficient })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use cofhee_arith::Barrett64;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const Q: u64 = 18014398510645249;

    fn ctx(n: usize) -> Arc<PolyRing<Barrett64>> {
        Arc::new(PolyRing::new(Barrett64::new(Q).unwrap(), n).unwrap())
    }

    #[test]
    fn zero_is_additive_identity() {
        let c = ctx(16);
        let mut rng = StdRng::seed_from_u64(1);
        let p = Polynomial::random(Arc::clone(&c), &mut rng);
        let z = Polynomial::zero(c);
        assert_eq!(p.add(&z).unwrap(), p);
        assert_eq!(p.sub(&p).unwrap(), z);
    }

    #[test]
    fn from_values_reduces_and_validates() {
        let c = ctx(4);
        let p = Polynomial::from_values(Arc::clone(&c), &[u128::MAX, 0, 1, Q as u128]).unwrap();
        assert_eq!(p.to_u128_vec(), vec![u128::MAX % Q as u128, 0, 1, 0]);
        assert!(Polynomial::from_values(c, &[1, 2]).is_err());
    }

    #[test]
    fn from_elems_refuses_non_canonical_elements_in_both_domains() {
        use cofhee_arith::{primes::ntt_prime, Barrett128};
        let n = 8;
        let q = ntt_prime(109, n).unwrap();
        let c = Arc::new(PolyRing::new(Barrett128::new(q).unwrap(), n).unwrap());
        for domain in [Domain::Coefficient, Domain::Ntt] {
            for bad in [q, q + 1, u128::MAX] {
                let mut elems = vec![0u128; n];
                elems[5] = bad;
                assert_eq!(
                    Polynomial::from_elems(Arc::clone(&c), elems, domain),
                    Err(PolyError::NonCanonical { index: 5, modulus: q }),
                    "{bad} must be refused ({domain:?})"
                );
            }
            let canonical = vec![q - 1, 0, 1, q / 2, q - 1, 2, 3, q - 2];
            let p = Polynomial::from_elems(Arc::clone(&c), canonical.clone(), domain).unwrap();
            assert_eq!(p.coeffs(), &canonical[..]);
            assert_eq!(p.domain(), domain);
        }
    }

    #[test]
    fn ntt_round_trip_preserves_value() {
        let c = ctx(64);
        let mut rng = StdRng::seed_from_u64(2);
        let p = Polynomial::random(Arc::clone(&c), &mut rng);
        let back = p.clone().into_ntt().unwrap().into_coeff().unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn domain_misuse_is_rejected() {
        let c = ctx(8);
        let mut rng = StdRng::seed_from_u64(3);
        let p = Polynomial::random(Arc::clone(&c), &mut rng);
        let p_ntt = p.clone().into_ntt().unwrap();
        assert!(p_ntt.clone().into_ntt().is_err());
        assert!(p.clone().into_coeff().is_err());
        assert!(p.hadamard(&p).is_err());
        assert!(p_ntt.negacyclic_mul(&p_ntt).is_err());
        assert!(p.add(&p_ntt).is_err());
    }

    #[test]
    fn mul_matches_naive_and_hadamard_path() {
        let c = ctx(32);
        let mut rng = StdRng::seed_from_u64(4);
        let a = Polynomial::random(Arc::clone(&c), &mut rng);
        let b = Polynomial::random(Arc::clone(&c), &mut rng);
        let direct = a.negacyclic_mul(&b).unwrap();
        let expect = naive::negacyclic_mul(c.ring(), a.coeffs(), b.coeffs()).unwrap();
        assert_eq!(direct.coeffs(), &expect[..]);
        // The staying-in-NTT-domain path (how Algorithm 3 reuses operands).
        let via_ntt = a
            .clone()
            .into_ntt()
            .unwrap()
            .hadamard(&b.clone().into_ntt().unwrap())
            .unwrap()
            .into_coeff()
            .unwrap();
        assert_eq!(via_ntt, direct);
    }

    #[test]
    fn scalar_and_neg() {
        let c = ctx(8);
        let p = Polynomial::from_values(Arc::clone(&c), &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        let doubled = p.scalar_mul(2);
        assert_eq!(doubled.to_u128_vec(), vec![2, 4, 6, 8, 10, 12, 14, 16]);
        let z = p.add(&p.neg()).unwrap();
        assert_eq!(z, Polynomial::zero(c));
    }

    #[test]
    fn distributivity_over_addition() {
        let c = ctx(16);
        let mut rng = StdRng::seed_from_u64(5);
        let a = Polynomial::random(Arc::clone(&c), &mut rng);
        let b = Polynomial::random(Arc::clone(&c), &mut rng);
        let d = Polynomial::random(Arc::clone(&c), &mut rng);
        let lhs = a.negacyclic_mul(&b.add(&d).unwrap()).unwrap();
        let rhs = a.negacyclic_mul(&b).unwrap().add(&a.negacyclic_mul(&d).unwrap()).unwrap();
        assert_eq!(lhs, rhs);
    }
}
