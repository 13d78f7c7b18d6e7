//! Pointwise (coefficient-wise) operations — the PMOD* commands of the
//! CoFHEE ISA (Table I).
//!
//! Each function is the software semantics of one chip command, operating
//! on raw coefficient slices exactly as the MDMC streams them through the
//! processing element:
//!
//! | chip command | function |
//! |---|---|
//! | `PMODADD` | [`add_assign`], [`add_into`] |
//! | `PMODSUB` | [`sub_into`] |
//! | `PMODMUL` | [`mul_assign`], [`mul_into`] (Hadamard product) |
//! | `CMODMUL` | [`scalar_mul_assign`], [`scalar_mul_into`] |
//! | `PMODMUL` into `PMODADD` | [`mul_add_into`] |
//!
//! Every command runs in the vector lanes of `crate::ifma` where the host
//! has them, on a word modulus below `2^50` or a `u128` one below `2^110`,
//! bit for bit as the scalar loops; so does [`all_below`], the range
//! check of words entering a ring. The multiplying commands take a
//! [`LazyRing`], whose elements are plain residues.

use cofhee_arith::{LazyRing, ModRing};

use crate::error::{PolyError, Result};
use crate::ifma::{self, Elementwise, Lanes};

fn check_same_len(a: usize, b: usize) -> Result<()> {
    if a != b {
        return Err(PolyError::LengthMismatch { expected: a, found: b });
    }
    Ok(())
}

/// `a[i] += b[i] (mod q)` — the `PMODADD` command.
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`] when slice lengths differ.
pub fn add_assign<R: ModRing>(ring: &R, a: &mut [R::Elem], b: &[R::Elem]) -> Result<()> {
    sum(ring, a, None, b, false)
}

/// `out[i] = x[i] + y[i] (mod q)` — `PMODADD` into a third vector,
/// whatever `out` held before.
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`] when slice lengths differ.
pub fn add_into<R: ModRing>(
    ring: &R,
    out: &mut [R::Elem],
    x: &[R::Elem],
    y: &[R::Elem],
) -> Result<()> {
    sum(ring, out, Some(x), y, false)
}

/// `out[i] = x[i] − y[i] (mod q)` — `PMODSUB` into a third vector.
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`] when slice lengths differ.
pub fn sub_into<R: ModRing>(
    ring: &R,
    out: &mut [R::Elem],
    x: &[R::Elem],
    y: &[R::Elem],
) -> Result<()> {
    sum(ring, out, Some(x), y, true)
}

/// `out = x ± y`, with `x` the old `out` when `None`.
fn sum<R: ModRing>(
    ring: &R,
    out: &mut [R::Elem],
    x: Option<&[R::Elem]>,
    y: &[R::Elem],
    subtract: bool,
) -> Result<()> {
    check_same_len(out.len(), y.len())?;
    check_same_len(out.len(), x.map_or(out.len(), <[_]>::len))?;
    if let Some(lanes) = Elementwise::new(ring.modulus(), out.len()) {
        lanes.add(out, x, y, subtract);
        return Ok(());
    }
    if let Some(x) = x {
        out.copy_from_slice(x);
    }
    for (o, &y) in out.iter_mut().zip(y) {
        *o = if subtract { ring.sub(*o, y) } else { ring.add(*o, y) };
    }
    Ok(())
}

/// Whether every word is below `q`, a canonical residue: the range check
/// of words entering a ring.
pub fn all_below<E: Copy + Into<u128> + 'static>(q: u128, words: &[E]) -> bool {
    match Elementwise::new(q, words.len()) {
        Some(lanes) => lanes.below(words),
        None => words.iter().all(|&w| w.into() < q),
    }
}

/// `dst[i] = src[i] mod q` — an upload's words entering the ring. After
/// one range check, canonical `u128` words are copied as they are;
/// otherwise each goes through [`ModRing::from_u128`].
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`] when slice lengths differ.
pub fn reduce_into<R: ModRing>(ring: &R, dst: &mut [R::Elem], src: &[u128]) -> Result<()> {
    check_same_len(dst.len(), src.len())?;
    if let Some(wide) = ifma::wide_mut(dst) {
        if all_below(ring.modulus(), src) {
            wide.copy_from_slice(src);
            return Ok(());
        }
    }
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = ring.from_u128(s);
    }
    Ok(())
}

/// `a[i] *= b[i] (mod q)` — the `PMODMUL` command (Hadamard product).
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`] when slice lengths differ.
pub fn mul_assign<R: LazyRing>(ring: &R, a: &mut [R::Elem], b: &[R::Elem]) -> Result<()> {
    check_same_len(a.len(), b.len())?;
    if let Some(lanes) = Lanes::new(ring.modulus(), a.len()) {
        lanes.mul_assign(a, b);
        return Ok(());
    }
    for (x, &y) in a.iter_mut().zip(b) {
        *x = ring.mul(*x, y);
    }
    Ok(())
}

/// `out[i] = x[i]·y[i] (mod q)` — `PMODMUL` into a third vector, one pass.
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`] when slice lengths differ.
pub fn mul_into<R: LazyRing>(
    ring: &R,
    out: &mut [R::Elem],
    x: &[R::Elem],
    y: &[R::Elem],
) -> Result<()> {
    check_same_len(out.len(), x.len())?;
    check_same_len(out.len(), y.len())?;
    if let Some(lanes) = Lanes::new(ring.modulus(), out.len()) {
        lanes.mul_into(out, x, y, None);
        return Ok(());
    }
    for ((o, &a), &b) in out.iter_mut().zip(x).zip(y) {
        *o = ring.mul(a, b);
    }
    Ok(())
}

/// `out[i] = x[i]·c (mod q)` — `CMODMUL` into another vector, one pass.
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`] when slice lengths differ.
pub fn scalar_mul_into<R: LazyRing>(
    ring: &R,
    out: &mut [R::Elem],
    x: &[R::Elem],
    c: R::Elem,
) -> Result<()> {
    check_same_len(out.len(), x.len())?;
    if let Some(lanes) = Lanes::new(ring.modulus(), out.len()) {
        lanes.scalar_mul(out, Some(x), &ring.shoup(c));
        return Ok(());
    }
    let aux = ring.prepare(c);
    for (o, &a) in out.iter_mut().zip(x) {
        *o = ring.mul_prepared(a, c, aux);
    }
    Ok(())
}

/// `a[i] *= c (mod q)` — the `CMODMUL` command (constant multiplication,
/// e.g. the `n⁻¹` pass closing an inverse NTT).
pub fn scalar_mul_assign<R: LazyRing>(ring: &R, a: &mut [R::Elem], c: R::Elem) {
    if let Some(lanes) = Lanes::new(ring.modulus(), a.len()) {
        return lanes.scalar_mul(a, None, &ring.shoup(c));
    }
    let aux = ring.prepare(c);
    for x in a.iter_mut() {
        *x = ring.mul_prepared(*x, c, aux);
    }
}

/// `out[i] = x[i]·y[i] + acc[i] (mod q)` — a `PMODMUL` whose product a
/// `PMODADD` accumulates: one pass in the vector lanes, the two commands
/// after a copy of `x` elsewhere.
///
/// # Errors
///
/// Returns [`PolyError::LengthMismatch`] when slice lengths differ.
pub fn mul_add_into<R: LazyRing>(
    ring: &R,
    out: &mut [R::Elem],
    x: &[R::Elem],
    y: &[R::Elem],
    acc: &[R::Elem],
) -> Result<()> {
    for len in [x.len(), y.len(), acc.len()] {
        check_same_len(out.len(), len)?;
    }
    if let Some(lanes) = Lanes::new(ring.modulus(), out.len()) {
        lanes.mul_into(out, x, y, Some(acc));
        return Ok(());
    }
    out.copy_from_slice(x);
    mul_assign(ring, out, y)?;
    add_assign(ring, out, acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_arith::Barrett64;

    const Q: u64 = 0x3_0001;

    fn ring() -> Barrett64 {
        Barrett64::new(Q).unwrap()
    }

    #[test]
    fn add_sub_round_trip() {
        let r = ring();
        let orig = vec![1u64, 2, 3, Q - 1];
        let b = vec![5u64, Q - 2, 0, 1];
        let mut a = orig.clone();
        add_assign(&r, &mut a, &b).unwrap();
        let mut back = vec![0; a.len()];
        sub_into(&r, &mut back, &a, &b).unwrap();
        assert_eq!(back, orig);
    }

    #[test]
    fn mul_is_hadamard() {
        let r = ring();
        let mut a = vec![2u64, 3, 4];
        let b = vec![10u64, 20, 30];
        mul_assign(&r, &mut a, &b).unwrap();
        assert_eq!(a, vec![20, 60, 120]);
    }

    #[test]
    fn scalar_mul_applies_constant() {
        let r = ring();
        let mut a = vec![1u64, 2, 3];
        scalar_mul_assign(&r, &mut a, 100);
        assert_eq!(a, vec![100, 200, 300]);
    }

    #[test]
    fn neg_then_add_gives_zero() {
        // Negation is a CMODMUL by `q − 1`, which is how a stream runs it.
        let r = ring();
        let orig = vec![5u64, Q - 7, 0];
        let mut a = orig.clone();
        scalar_mul_assign(&r, &mut a, Q - 1);
        add_assign(&r, &mut a, &orig).unwrap();
        assert_eq!(a, vec![0, 0, 0]);
    }

    #[test]
    fn length_mismatches_error() {
        let r = ring();
        let mut a = vec![1u64, 2];
        assert!(add_assign(&r, &mut a, &[1]).is_err());
        assert!(sub_into(&r, &mut a, &[1, 2], &[1, 2, 3]).is_err());
        assert!(mul_assign(&r, &mut a, &[]).is_err());
    }
}
