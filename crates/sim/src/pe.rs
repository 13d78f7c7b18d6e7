//! The Processing Element.
//!
//! Section III-E of the paper: "CoFHEE comprises a singular modular
//! multiplier, along with modular adder and subtractor units", wrapped in
//! multiplexers that select between four modes — modular multiplication,
//! addition, subtraction, and the radix-2 butterfly (multiply, then add
//! and subtract) that serves NTT and iNTT. The multiplier is a pipelined
//! Barrett design (II = 1, latency 5); add/sub complete in one cycle.
//!
//! The functional arithmetic delegates to
//! [`Barrett128`](cofhee_arith::Barrett128) — the same reduction the RTL
//! implements — while activity counters feed the power model.
//!
//! The per-element methods (`mod_mul`, `butterfly`, …, built for the
//! tests) are the reference datapath, one operation and one activity
//! count at a time. The MDMC books a
//! command's totals through [`ProcessingElement::record_activity`] when
//! it prices the command, and computes it — faithful per-butterfly loop,
//! streamed pass or plan-backed transform — on the loaded ring, fetched
//! once per command.

use cofhee_arith::Barrett128;
#[cfg(test)]
use cofhee_arith::ModRing;

use crate::error::{Result, SimError};

/// Running activity counts, consumed by the power estimator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeActivity {
    /// Modular multiplications issued.
    pub mults: u64,
    /// Modular additions issued.
    pub adds: u64,
    /// Modular subtractions issued.
    pub subs: u64,
    /// Butterflies issued (each also counts its mult/add/sub).
    pub butterflies: u64,
}

/// The processing element: one Barrett multiplier + adder + subtractor.
#[derive(Debug, Clone)]
pub struct ProcessingElement {
    ring: Option<Barrett128>,
    mult_latency: u32,
    addsub_latency: u32,
    activity: PeActivity,
}

impl ProcessingElement {
    /// Builds a PE with the configured pipeline latencies; the modulus is
    /// loaded later via [`ProcessingElement::load_modulus`] (the chip's
    /// `Q`/`BARRETTCTL*` register writes).
    pub fn new(mult_latency: u32, addsub_latency: u32) -> Self {
        Self { ring: None, mult_latency, addsub_latency, activity: PeActivity::default() }
    }

    /// Loads the modulus — the effect of writing the `Q`, `BARRETTCTL1`
    /// and `BARRETTCTL2` configuration registers.
    ///
    /// # Errors
    ///
    /// Returns an arithmetic error for invalid moduli.
    pub fn load_modulus(&mut self, q: u128) -> Result<()> {
        self.ring = Some(Barrett128::new(q)?);
        Ok(())
    }

    /// The currently loaded modulus, if any.
    pub fn modulus(&self) -> Option<u128> {
        self.ring.as_ref().map(|r| r.q())
    }

    /// The loaded ring engine.
    ///
    /// # Errors
    ///
    /// Fails when no modulus is loaded.
    pub(crate) fn ring(&self) -> Result<&Barrett128> {
        self.ring.as_ref().ok_or_else(|| SimError::BadConfiguration {
            reason: "modulus not loaded (write Q/BARRETTCTL registers first)".into(),
        })
    }

    /// Pipeline latency of a modular multiplication, in cycles.
    pub fn mult_latency(&self) -> u32 {
        self.mult_latency
    }

    /// Latency of a modular addition or subtraction, in cycles.
    pub fn addsub_latency(&self) -> u32 {
        self.addsub_latency
    }

    /// Pipeline depth of the butterfly datapath (multiply then add/sub).
    #[cfg(test)]
    pub(crate) fn butterfly_latency(&self) -> u32 {
        self.mult_latency + self.addsub_latency
    }

    /// Modular multiplication.
    ///
    /// # Errors
    ///
    /// Fails when no modulus is loaded.
    #[cfg(test)]
    pub(crate) fn mod_mul(&mut self, a: u128, b: u128) -> Result<u128> {
        let r = *self.ring()?;
        self.activity.mults += 1;
        Ok(r.mul(a, b))
    }

    /// Modular addition.
    ///
    /// # Errors
    ///
    /// Fails when no modulus is loaded.
    #[cfg(test)]
    pub(crate) fn mod_add(&mut self, a: u128, b: u128) -> Result<u128> {
        let r = *self.ring()?;
        self.activity.adds += 1;
        Ok(r.add(a, b))
    }

    /// Modular subtraction.
    ///
    /// # Errors
    ///
    /// Fails when no modulus is loaded.
    #[cfg(test)]
    pub(crate) fn mod_sub(&mut self, a: u128, b: u128) -> Result<u128> {
        let r = *self.ring()?;
        self.activity.subs += 1;
        Ok(r.sub(a, b))
    }

    /// The radix-2 butterfly: `(u, v, w) → (u + w·v, u − w·v)` — the
    /// atomic NTT computation (Section IV-B).
    ///
    /// # Errors
    ///
    /// Fails when no modulus is loaded.
    #[cfg(test)]
    pub(crate) fn butterfly(&mut self, u: u128, v: u128, w: u128) -> Result<(u128, u128)> {
        let r = *self.ring()?;
        self.activity.butterflies += 1;
        self.activity.mults += 1;
        self.activity.adds += 1;
        self.activity.subs += 1;
        let m = r.mul(w, v);
        Ok((r.add(u, m), r.sub(u, m)))
    }

    /// Bulk-records the activity of a batch of operations — a priced
    /// command's — with the totals issuing them one by one through the
    /// per-element methods would count, so the power model sees identical
    /// totals either way.
    pub fn record_activity(&mut self, delta: PeActivity) {
        self.activity.mults += delta.mults;
        self.activity.adds += delta.adds;
        self.activity.subs += delta.subs;
        self.activity.butterflies += delta.butterflies;
    }

    /// Accumulated activity counts.
    pub fn activity(&self) -> PeActivity {
        self.activity
    }

    /// Clears the activity counters (start of a measurement window).
    #[cfg(test)]
    pub(crate) fn reset_activity(&mut self) {
        self.activity = PeActivity::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const Q: u128 = 324518553658426726783156020805633;

    fn pe() -> ProcessingElement {
        let mut pe = ProcessingElement::new(5, 1);
        pe.load_modulus(Q).unwrap();
        pe
    }

    #[test]
    fn requires_modulus_before_compute() {
        let mut pe = ProcessingElement::new(5, 1);
        assert!(pe.mod_mul(1, 2).is_err());
        pe.load_modulus(Q).unwrap();
        assert_eq!(pe.modulus(), Some(Q));
        assert!(pe.mod_mul(1, 2).is_ok());
    }

    #[test]
    fn arithmetic_matches_reference() {
        let mut pe = pe();
        let r = Barrett128::new(Q).unwrap();
        let (a, b) = (Q - 12345, Q / 3);
        assert_eq!(pe.mod_mul(a, b).unwrap(), r.mul(a, b));
        assert_eq!(pe.mod_add(a, b).unwrap(), r.add(a, b));
        assert_eq!(pe.mod_sub(a, b).unwrap(), r.sub(a, b));
    }

    #[test]
    fn butterfly_decomposes_into_primitives() {
        let mut pe = pe();
        let r = Barrett128::new(Q).unwrap();
        let (u, v, w) = (17u128, Q - 9, 123456789);
        let (hi, lo) = pe.butterfly(u, v, w).unwrap();
        let m = r.mul(w, v);
        assert_eq!(hi, r.add(u, m));
        assert_eq!(lo, r.sub(u, m));
    }

    #[test]
    fn butterfly_latency_is_mult_plus_addsub() {
        let pe = ProcessingElement::new(5, 1);
        assert_eq!(pe.butterfly_latency(), 6);
        assert_eq!(pe.mult_latency(), 5);
    }

    #[test]
    fn activity_counters_accumulate_and_reset() {
        let mut pe = pe();
        pe.mod_mul(1, 2).unwrap();
        pe.mod_add(1, 2).unwrap();
        pe.butterfly(1, 2, 3).unwrap();
        let a = pe.activity();
        assert_eq!(a.mults, 2);
        assert_eq!(a.adds, 2);
        assert_eq!(a.subs, 1);
        assert_eq!(a.butterflies, 1);
        pe.reset_activity();
        assert_eq!(pe.activity(), PeActivity::default());
    }

    #[test]
    fn rejects_even_modulus() {
        let mut pe = ProcessingElement::new(5, 1);
        assert!(pe.load_modulus(1 << 64).is_err());
    }
}
