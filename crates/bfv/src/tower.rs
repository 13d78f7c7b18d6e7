//! The RNS tower execution path — the paper's CPU-baseline accounting.
//!
//! Section VI-B: "we break SEAL's 109-bit modulus into two smaller moduli
//! of 54 and 55 bits using RNS … Each of these two towers must perform the
//! ciphertext multiplication according to Eq. 4". This module executes
//! exactly that workload — per tower: 4 forward NTTs, 4 Hadamard products,
//! 1 pointwise addition, 3 inverse NTTs — optionally across multiple
//! threads, reproducing Fig. 6's thread-scaling series. The dependency
//! structure exposes at most `4 × towers` parallel units — whole
//! transforms, never butterflies within one — so thread counts past
//! that plateau (Fig. 6's diminishing returns).
//!
//! The final `t/q` rounding of Eq. 4 does not commute with per-tower RNS
//! arithmetic; production libraries add base-extension machinery (BEHZ)
//! for it. Like the paper's accounting, this path covers everything *up
//! to* that step — the number-crunching the hardware accelerates — while
//! the functionally exact product lives in [`crate::Evaluator::multiply`].

use std::sync::Arc;

use cofhee_arith::{rns::RnsBasis, Barrett64, ModRing};
use cofhee_poly::{HarveyNtt, TwiddleCache};
use rand::Rng;

use crate::error::{BfvError, Result};

/// One RNS tower: a word-sized prime with its NTT machinery (the
/// shared [`TwiddleCache`] plan — towers for the same `(q, n)` across
/// evaluators reference one table set and run the Harvey lazy
/// kernels).
#[derive(Debug, Clone)]
pub struct Tower {
    ring: Barrett64,
    plan: Arc<HarveyNtt<Barrett64>>,
}

impl Tower {
    /// The tower's prime modulus.
    pub fn modulus(&self) -> u64 {
        self.ring.q()
    }

    /// The tower's ring engine.
    pub fn ring(&self) -> &Barrett64 {
        &self.ring
    }

    /// The tower's lazy-reduction transform plan.
    pub fn plan(&self) -> &HarveyNtt<Barrett64> {
        &self.plan
    }
}

/// A ciphertext decomposed into RNS towers: per tower, the residues of
/// `(c₁, c₂)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TowerCiphertext {
    /// `towers[i] = [c₁ mod qᵢ, c₂ mod qᵢ]`.
    pub towers: Vec<[Vec<u64>; 2]>,
}

/// The (unscaled, unrelinearized) tensor product per tower:
/// `[cc₁, cc₂, cc₃] mod qᵢ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TowerProduct {
    /// `towers[i] = [cc₁, cc₂, cc₃] mod qᵢ`.
    pub towers: Vec<[Vec<u64>; 3]>,
}

/// Executes Eq. 4 tower-by-tower, the workload of the paper's Fig. 6 CPU
/// baseline.
#[derive(Debug, Clone)]
pub struct TowerEvaluator {
    n: usize,
    towers: Vec<Tower>,
}

impl TowerEvaluator {
    /// Builds the CPU's towers covering `total_log_q` bits for degree
    /// `n`: the 64-bit-word plan of [`RnsBasis::for_total_bits`], so
    /// `(2^12, 109)` yields the 54+55 plan and `(2^13, 218)` the
    /// four-tower plan.
    ///
    /// # Errors
    ///
    /// Propagates prime-search failures.
    pub fn new(n: usize, total_log_q: u32) -> Result<Self> {
        let basis = RnsBasis::for_total_bits(total_log_q, 64, n)?;
        let towers = basis
            .moduli()
            .iter()
            .map(|&q| {
                let plan = TwiddleCache::barrett64(q as u64, n)?;
                Ok(Tower { ring: *plan.ring(), plan })
            })
            .collect::<Result<_>>()?;
        Ok(Self { n, towers })
    }

    /// Polynomial degree.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The towers.
    pub fn towers(&self) -> &[Tower] {
        &self.towers
    }

    /// Number of towers (the paper's 2 for 109 bits, 4 for 218 bits on
    /// 64-bit words).
    pub fn tower_count(&self) -> usize {
        self.towers.len()
    }

    /// Samples a uniformly random decomposed ciphertext (benchmark input;
    /// the arithmetic cost is data-independent).
    pub fn random_ciphertext<G: Rng + ?Sized>(&self, rng: &mut G) -> TowerCiphertext {
        let towers = self
            .towers
            .iter()
            .map(|t| {
                let q = t.ring.q();
                let mut sample = || (0..self.n).map(|_| rng.gen::<u64>() % q).collect::<Vec<u64>>();
                [sample(), sample()]
            })
            .collect();
        TowerCiphertext { towers }
    }

    fn check(&self, ct: &TowerCiphertext) -> Result<()> {
        if ct.towers.len() != self.towers.len()
            || ct.towers.iter().any(|t| t[0].len() != self.n || t[1].len() != self.n)
        {
            return Err(BfvError::ParamsMismatch);
        }
        Ok(())
    }

    /// Ciphertext multiplication without relinearization, single-threaded:
    /// per tower, 4 NTTs + 4 Hadamards + 1 addition + 3 iNTTs — the exact
    /// operation Fig. 6 times.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::ParamsMismatch`] for foreign ciphertexts.
    pub fn multiply(&self, a: &TowerCiphertext, b: &TowerCiphertext) -> Result<TowerProduct> {
        self.multiply_threaded(a, b, 1)
    }

    /// Ciphertext multiplication without relinearization across `threads`
    /// worker threads.
    ///
    /// Parallel units per phase: `4·towers` forward NTTs, `towers` tensor
    /// combinations, `3·towers` inverse NTTs. A unit is one whole
    /// transform on one thread, so the forward phase stops scaling at
    /// `4·towers` threads and the inverse phase at `3·towers`: counts
    /// past those plateau, the diminishing returns of Fig. 6.
    ///
    /// # Errors
    ///
    /// Returns [`BfvError::ParamsMismatch`] for foreign ciphertexts.
    pub fn multiply_threaded(
        &self,
        a: &TowerCiphertext,
        b: &TowerCiphertext,
        threads: usize,
    ) -> Result<TowerProduct> {
        self.check(a)?;
        self.check(b)?;
        let k = self.towers.len();

        // Phase 1: forward NTTs (4 per tower).
        let mut transformed: Vec<(usize, Vec<u64>)> = Vec::with_capacity(4 * k);
        for i in 0..k {
            transformed.push((i, a.towers[i][0].clone()));
            transformed.push((i, a.towers[i][1].clone()));
            transformed.push((i, b.towers[i][0].clone()));
            transformed.push((i, b.towers[i][1].clone()));
        }
        self.run_parallel(&mut transformed, threads, |tower, data| {
            self.towers[tower].plan.forward_inplace(data).expect("lengths validated");
        });

        // Phase 2: tensor combination (pointwise) per tower.
        let mut parts: Vec<(usize, Vec<u64>)> = Vec::with_capacity(3 * k);
        for i in 0..k {
            let ring = &self.towers[i].ring;
            let a0 = &transformed[4 * i].1;
            let a1 = &transformed[4 * i + 1].1;
            let b0 = &transformed[4 * i + 2].1;
            let b1 = &transformed[4 * i + 3].1;
            let mut t0 = vec![0u64; self.n];
            let mut t1 = vec![0u64; self.n];
            let mut t2 = vec![0u64; self.n];
            for j in 0..self.n {
                t0[j] = ring.mul(a0[j], b0[j]);
                t1[j] = ring.add(ring.mul(a0[j], b1[j]), ring.mul(a1[j], b0[j]));
                t2[j] = ring.mul(a1[j], b1[j]);
            }
            parts.push((i, t0));
            parts.push((i, t1));
            parts.push((i, t2));
        }

        // Phase 3: inverse NTTs (3 per tower).
        self.run_parallel(&mut parts, threads, |tower, data| {
            self.towers[tower].plan.inverse_inplace(data).expect("lengths validated");
        });

        let mut towers = Vec::with_capacity(k);
        let mut it = parts.into_iter();
        for _ in 0..k {
            let t0 = it.next().expect("3 parts per tower").1;
            let t1 = it.next().expect("3 parts per tower").1;
            let t2 = it.next().expect("3 parts per tower").1;
            towers.push([t0, t1, t2]);
        }
        Ok(TowerProduct { towers })
    }

    /// Runs `f` over every `(tower, data)` unit using up to `threads`
    /// workers; units have uniform cost, so contiguous chunks balance well.
    fn run_parallel<F>(&self, units: &mut [(usize, Vec<u64>)], threads: usize, f: F)
    where
        F: Fn(usize, &mut Vec<u64>) + Sync,
    {
        let threads = threads.max(1).min(units.len().max(1));
        if threads == 1 {
            for (tower, data) in units.iter_mut() {
                f(*tower, data);
            }
            return;
        }
        let chunk = units.len().div_ceil(threads);
        std::thread::scope(|scope| {
            for chunk_units in units.chunks_mut(chunk) {
                let f = &f;
                scope.spawn(move || {
                    for (tower, data) in chunk_units.iter_mut() {
                        f(*tower, data);
                    }
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_poly::naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn plans_match_paper_tower_counts() {
        let cpu12 = TowerEvaluator::new(1 << 6, 109).unwrap();
        assert_eq!(cpu12.tower_count(), 2);
        let cpu13 = TowerEvaluator::new(1 << 6, 218).unwrap();
        assert_eq!(cpu13.tower_count(), 4);
    }

    #[test]
    fn tower_product_matches_naive_tensor() {
        let ev = TowerEvaluator::new(64, 109).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let a = ev.random_ciphertext(&mut rng);
        let b = ev.random_ciphertext(&mut rng);
        let prod = ev.multiply(&a, &b).unwrap();
        for (i, tower) in ev.towers().iter().enumerate() {
            let ring = tower.ring();
            let t0 = naive::negacyclic_mul(ring, &a.towers[i][0], &b.towers[i][0]).unwrap();
            let t2 = naive::negacyclic_mul(ring, &a.towers[i][1], &b.towers[i][1]).unwrap();
            let x01 = naive::negacyclic_mul(ring, &a.towers[i][0], &b.towers[i][1]).unwrap();
            let x10 = naive::negacyclic_mul(ring, &a.towers[i][1], &b.towers[i][0]).unwrap();
            let t1: Vec<u64> = x01.iter().zip(&x10).map(|(&x, &y)| ring.add(x, y)).collect();
            assert_eq!(prod.towers[i][0], t0, "tower {i} part 0");
            assert_eq!(prod.towers[i][1], t1, "tower {i} part 1");
            assert_eq!(prod.towers[i][2], t2, "tower {i} part 2");
        }
    }

    #[test]
    fn threading_does_not_change_results() {
        let ev = TowerEvaluator::new(128, 218).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let a = ev.random_ciphertext(&mut rng);
        let b = ev.random_ciphertext(&mut rng);
        let seq = ev.multiply(&a, &b).unwrap();
        for threads in [2usize, 4, 8, 16] {
            let par = ev.multiply_threaded(&a, &b, threads).unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn foreign_ciphertexts_are_rejected() {
        let ev = TowerEvaluator::new(64, 109).unwrap();
        let other = TowerEvaluator::new(32, 109).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let a = ev.random_ciphertext(&mut rng);
        let b = other.random_ciphertext(&mut rng);
        assert!(ev.multiply(&a, &b).is_err());
    }
}
