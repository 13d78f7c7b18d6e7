//! NTT-friendly prime generation.
//!
//! CoFHEE's pre-silicon verification flow (Section III-J of the paper) uses
//! a Python script that "calculate\[s\] the modulus following the equation
//! `q = 2k·n + 1`, where `k ≥ 1` is an arbitrary constant". This module is
//! the Rust equivalent: Miller–Rabin primality testing plus a search for
//! primes of a requested bit size satisfying `q ≡ 1 (mod 2n)` — the
//! condition for a primitive `2n`-th root of unity to exist, which the
//! negacyclic NTT requires.

use crate::barrett::Barrett128;
use crate::error::{ArithError, Result};
use crate::ring::ModRing;

/// Deterministic Miller–Rabin witnesses sufficient for all `n < 3.3·10^24`
/// (and in particular all 64-bit integers).
const SMALL_WITNESSES: [u128; 13] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41];

/// Additional pseudo-random witnesses for wide (up to 128-bit) candidates.
///
/// Fixed for reproducibility; combined with [`SMALL_WITNESSES`] this gives
/// a composite-acceptance probability below `4^-40`.
const WIDE_WITNESS_ROUNDS: usize = 27;

/// Tests `n` for primality with Miller–Rabin.
///
/// Deterministic for candidates below `3.3·10^24` (which covers all 64-bit
/// moduli); probabilistic with error below `4^-40` for wider candidates.
///
/// # Examples
///
/// ```
/// use cofhee_arith::primes::is_prime;
///
/// assert!(is_prime(18014398509404161)); // a 54-bit NTT prime
/// assert!(!is_prime(18014398509404163));
/// ```
pub fn is_prime(n: u128) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u128, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] {
        if n == p {
            return true;
        }
        if n % p == 0 {
            return false;
        }
    }
    // Write n-1 = d·2^s.
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    let ring = match Barrett128::new(n) {
        Ok(r) => r,
        Err(_) => return false, // even numbers handled above; n==1 too
    };

    let witness = |a: u128| -> bool {
        // Returns true when `a` proves n composite.
        let a = a % n;
        if a == 0 {
            return false;
        }
        let mut x = ring.pow(a, d);
        if x == 1 || x == n - 1 {
            return false;
        }
        for _ in 1..s {
            x = ring.sqr(x);
            if x == n - 1 {
                return false;
            }
        }
        true
    };

    for a in SMALL_WITNESSES {
        if witness(a) {
            return false;
        }
    }
    if n >> 64 != 0 {
        // Deterministic bases no longer cover the range: add fixed
        // SplitMix-derived witnesses.
        let mut state = 0x9e37_79b9_7f4a_7c15_u128 ^ n;
        for _ in 0..WIDE_WITNESS_ROUNDS {
            state = state.wrapping_mul(0x2545_f491_4f6c_dd1d).wrapping_add(0x6a09_e667_f3bc_c909);
            let a = 2 + state % (n - 3);
            if witness(a) {
                return false;
            }
        }
    }
    true
}

/// Finds the largest prime `q` of exactly `bits` bits with `q ≡ 1 (mod 2n)`.
///
/// This mirrors the paper's `q = 2k·n + 1` construction: candidates are
/// scanned downward from the top of the bit range in steps of `2n`.
///
/// # Errors
///
/// Returns [`ArithError::InvalidDegree`] if `n` is not a power of two and
/// [`ArithError::PrimeSearchExhausted`] if no prime of that size exists
/// (possible only for tiny `bits`).
///
/// # Examples
///
/// ```
/// use cofhee_arith::primes::ntt_prime;
///
/// # fn main() -> Result<(), cofhee_arith::ArithError> {
/// let q = ntt_prime(54, 1 << 12)?;
/// assert_eq!(q % (2 << 12), 1);
/// assert_eq!(128 - u128::from(q).leading_zeros(), 54);
/// # Ok(())
/// # }
/// ```
pub fn ntt_prime(bits: u32, n: usize) -> Result<u128> {
    ntt_primes(bits, n, 1).map(|v| v[0])
}

/// Finds `count` distinct primes of exactly `bits` bits with
/// `q ≡ 1 (mod 2n)`, scanning downward — an RNS tower chain.
///
/// # Errors
///
/// Same conditions as [`ntt_prime`], plus exhaustion when fewer than
/// `count` primes of the requested size exist.
pub fn ntt_primes(bits: u32, n: usize, count: usize) -> Result<Vec<u128>> {
    if !n.is_power_of_two() || n < 2 {
        return Err(ArithError::InvalidDegree { n });
    }
    if !(2..=128).contains(&bits) {
        return Err(ArithError::ModulusTooLarge { modulus: 0, max_bits: 128 });
    }
    let two_n = 2 * n as u128;
    let hi = if bits == 128 { u128::MAX } else { (1u128 << bits) - 1 };
    let lo = 1u128 << (bits - 1);
    if two_n >= hi - lo {
        return Err(ArithError::PrimeSearchExhausted { bits, n });
    }
    // Largest candidate of the form 2n·k + 1 within [lo, hi].
    let mut q = (hi - 1) / two_n * two_n + 1;
    let mut found = Vec::with_capacity(count);
    while q >= lo && found.len() < count {
        if is_prime(q) {
            found.push(q);
        }
        if q < two_n {
            break;
        }
        q -= two_n;
    }
    if found.len() < count {
        return Err(ArithError::PrimeSearchExhausted { bits, n });
    }
    Ok(found)
}

/// A tower plan: bit sizes of the RNS primes used to cover a wide modulus.
///
/// This models the *paper's* decompositions — how SEAL on the CPU and
/// CoFHEE split a ciphertext modulus into towers (Fig. 6) — and its
/// 55-bit cap for word engines is that model's, not a limit of
/// [`crate::Barrett64`], which takes primes up to 62 bits. The BFV
/// evaluator's exact-tensor *computation basis* does not go through it:
/// `BfvParams::new` takes the fewest 59-bit primes that cover `2·n·q²`
/// straight from [`ntt_primes`] (four at the paper's points, where this
/// plan over the same 236 bits gives five).
///
/// The paper's two evaluation points decompose as follows (Section VI-B):
///
/// * `(n, log q) = (2^12, 109)`: SEAL splits into 54 + 55 bits (2 towers);
///   CoFHEE runs natively with a single ≤128-bit tower.
/// * `(n, log q) = (2^13, 218)`: SEAL uses 54 + 54 + 55 + 55 (4 towers);
///   CoFHEE uses two 109-bit towers.
///
/// # Examples
///
/// ```
/// use cofhee_arith::primes::tower_plan;
///
/// assert_eq!(tower_plan(109, 64), vec![55, 54]);
/// assert_eq!(tower_plan(218, 64), vec![55, 55, 54, 54]);
/// assert_eq!(tower_plan(218, 128), vec![109, 109]);
/// assert_eq!(tower_plan(109, 128), vec![109]);
/// ```
pub fn tower_plan(total_bits: u32, word_bits: u32) -> Vec<u32> {
    // Usable bits per tower: SEAL-style engines keep primes below 2^62 for
    // lazy arithmetic headroom; the chip's native width allows up to 124
    // bits per tower while keeping sums of products in range.
    let cap = if word_bits >= 128 { 124 } else { word_bits.min(62) - 7 };
    let count = total_bits.div_ceil(cap).max(1);
    let base = total_bits / count;
    let extra = (total_bits % count) as usize;
    let mut plan = Vec::with_capacity(count as usize);
    for i in 0..count as usize {
        plan.push(if i < extra { base + 1 } else { base });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_prime_agrees_with_small_table() {
        let primes: Vec<u128> = (2u128..200).filter(|&n| is_prime(n)).collect();
        let expect: Vec<u128> = vec![
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83,
            89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179,
            181, 191, 193, 197, 199,
        ];
        assert_eq!(primes, expect);
    }

    #[test]
    fn is_prime_known_large_values() {
        assert!(is_prime(18014398509404161)); // 54-bit NTT prime
        assert!(is_prime(324518553658426726783156020805633)); // 109-bit
        assert!(is_prime(170141183460469231731687303715885907969)); // 128-bit
        assert!(!is_prime(18014398509404161 * 3));
        // Carmichael number 561 = 3·11·17 must be rejected.
        assert!(!is_prime(561));
        // Strong pseudoprime to base 2: 2047 = 23·89.
        assert!(!is_prime(2047));
    }

    #[test]
    fn ntt_prime_satisfies_congruence_and_size() {
        for (bits, n) in [(54u32, 1usize << 12), (55, 1 << 13), (60, 1 << 14), (109, 1 << 13)] {
            let q = ntt_prime(bits, n).unwrap();
            assert!(is_prime(q));
            assert_eq!(q % (2 * n as u128), 1, "q ≡ 1 mod 2n");
            assert_eq!(128 - q.leading_zeros(), bits, "exact bit size");
        }
    }

    #[test]
    fn ntt_primes_returns_distinct_chain() {
        let chain = ntt_primes(54, 1 << 12, 3).unwrap();
        assert_eq!(chain.len(), 3);
        assert!(chain[0] > chain[1] && chain[1] > chain[2]);
        for &q in &chain {
            assert!(is_prime(q));
            assert_eq!(q % (2u128 << 12), 1);
        }
    }

    #[test]
    fn ntt_prime_rejects_bad_degree() {
        assert!(matches!(ntt_prime(54, 3), Err(ArithError::InvalidDegree { n: 3 })));
        assert!(matches!(ntt_prime(54, 0), Err(ArithError::InvalidDegree { n: 0 })));
    }

    #[test]
    fn ntt_prime_exhausts_tiny_ranges() {
        // No 4-bit prime ≡ 1 mod 2^13 exists.
        assert!(ntt_prime(4, 1 << 12).is_err());
    }

    #[test]
    fn tower_plan_matches_paper_decompositions() {
        assert_eq!(tower_plan(109, 64), vec![55, 54]);
        assert_eq!(tower_plan(218, 64), vec![55, 55, 54, 54]);
        assert_eq!(tower_plan(218, 128), vec![109, 109]);
        assert_eq!(tower_plan(109, 128), vec![109]);
        // Sums are preserved.
        for (total, word) in [(109u32, 64u32), (218, 64), (218, 128), (436, 128)] {
            let plan = tower_plan(total, word);
            assert_eq!(plan.iter().sum::<u32>(), total);
        }
    }

    #[test]
    fn paper_python_flow_construction() {
        // Section III-J: q = 2k·n + 1 — verify our primes have this shape
        // with k >= 1 integer.
        let n = 1usize << 13;
        let q = ntt_prime(55, n).unwrap();
        let k = (q - 1) / (2 * n as u128);
        assert_eq!(2 * k * n as u128 + 1, q);
        assert!(k >= 1);
    }
}
