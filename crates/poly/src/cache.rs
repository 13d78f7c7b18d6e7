//! The process-wide twiddle cache.
//!
//! Every consumer of a `(modulus, degree)` transform used to re-derive
//! the same tables at bring-up: each `CpuBackend`, every BFV tower and
//! batch encoder, and — worst of all — every simulated die in a farm,
//! once per modulus per chip. Root finding plus table generation is
//! `O(n log q)` work that is *identical* for identical keys, so this
//! module interns one immutable [`HarveyNtt`] plan per `(q, n)` pair
//! behind a process-global map (the fixed-prime specialization insight:
//! precompute per-modulus constants once, reuse them everywhere).
//!
//! Plans are handed out as `Arc`s: cloning is a refcount bump, the
//! tables themselves are shared across backends, evaluators, sessions
//! and dies. The cache never evicts — the working set is a handful of
//! parameter sets, each a few hundred KiB.
//!
//! Thread-safety: the store is a `OnceLock<Mutex<…>>` — lookups take a
//! process-global lock for the duration of a map probe (and, on a
//! miss, one table build). The lock guards only *plan acquisition*,
//! which happens at bring-up; the hot path holds plans by `Arc` and
//! never touches the cache again, so transforms — including the
//! per-limb threads of a parallel stream dispatch, which all read
//! interned plans concurrently — run lock-free. A poisoned lock is
//! recovered, not propagated: an interned plan is immutable, so a
//! panic elsewhere cannot leave it half-written.
//!
//! # Example
//!
//! ```
//! use cofhee_poly::cache::TwiddleCache;
//!
//! # fn main() -> Result<(), cofhee_poly::PolyError> {
//! let q = cofhee_arith::primes::ntt_prime(55, 64)? as u64;
//! let a = TwiddleCache::barrett64(q, 64)?;
//! let b = TwiddleCache::barrett64(q, 64)?;
//! assert!(std::sync::Arc::ptr_eq(&a, &b), "same key, same tables");
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use cofhee_arith::{Barrett128, Barrett64};

use crate::error::Result;
use crate::lazy::HarveyNtt;

/// Hit/miss counters and resident-entry counts for the process-global
/// cache. Counters are cumulative for the process lifetime (monotonic
/// across [`TwiddleCache::clear`], which only drops entries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwiddleCacheStats {
    /// Lookups served from a resident plan.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Resident word-width (`Barrett64`) plans.
    pub entries64: usize,
    /// Resident native-width (`Barrett128`) plans.
    pub entries128: usize,
}

#[derive(Default)]
struct Store {
    narrow: HashMap<(u64, usize), Arc<HarveyNtt<Barrett64>>>,
    wide: HashMap<(u128, usize), Arc<HarveyNtt<Barrett128>>>,
    hits: u64,
    misses: u64,
}

static STORE: OnceLock<Mutex<Store>> = OnceLock::new();

fn store() -> MutexGuard<'static, Store> {
    STORE
        .get_or_init(|| Mutex::new(Store::default()))
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The process-global `(modulus, degree) → transform plan` interner.
///
/// All methods are `&'static`-style associated functions: there is one
/// cache per process, shared by every backend, evaluator, and die.
#[derive(Debug, Clone, Copy)]
pub struct TwiddleCache;

impl TwiddleCache {
    /// The shared plan for a word-width modulus, building (and
    /// interning) it on first request.
    ///
    /// # Errors
    ///
    /// Propagates ring construction and root-finding failures; failed
    /// builds are never cached.
    pub fn barrett64(q: u64, n: usize) -> Result<Arc<HarveyNtt<Barrett64>>> {
        let mut s = store();
        if let Some(plan) = s.narrow.get(&(q, n)).cloned() {
            s.hits += 1;
            return Ok(plan);
        }
        s.misses += 1;
        let ring = Barrett64::new(q)?;
        let plan = Arc::new(HarveyNtt::new(&ring, n)?);
        s.narrow.insert((q, n), Arc::clone(&plan));
        Ok(plan)
    }

    /// The word-width plan for `(q, n)` when `q` is word-sized, `None`
    /// when it needs the native width — the one rule by which every
    /// host engine (`CpuBackend`, the simulator's functional kernel)
    /// picks the width it computes at. Word-sized means exactly that a
    /// [`Barrett64`] ring can be built for `q`, and is decided by
    /// building it.
    ///
    /// # Errors
    ///
    /// Propagates root-finding failures for a word-sized `q`.
    pub fn narrow(q: u128, n: usize) -> Result<Option<Arc<HarveyNtt<Barrett64>>>> {
        match u64::try_from(q).ok().filter(|&q| Barrett64::new(q).is_ok()) {
            Some(q) => Self::barrett64(q, n).map(Some),
            None => Ok(None),
        }
    }

    /// The shared plan for a native-width (up to 128-bit) modulus,
    /// building (and interning) it on first request.
    ///
    /// # Errors
    ///
    /// Propagates ring construction and root-finding failures; failed
    /// builds are never cached.
    pub fn barrett128(q: u128, n: usize) -> Result<Arc<HarveyNtt<Barrett128>>> {
        let mut s = store();
        if let Some(plan) = s.wide.get(&(q, n)).cloned() {
            s.hits += 1;
            return Ok(plan);
        }
        s.misses += 1;
        let ring = Barrett128::new(q)?;
        let plan = Arc::new(HarveyNtt::new(&ring, n)?);
        s.wide.insert((q, n), Arc::clone(&plan));
        Ok(plan)
    }

    /// Whether a plan for `(q, n)` is already resident (either width);
    /// never builds and never counts as a hit or miss.
    pub fn contains(q: u128, n: usize) -> bool {
        let s = store();
        s.wide.contains_key(&(q, n))
            || u64::try_from(q).map(|q64| s.narrow.contains_key(&(q64, n))).unwrap_or(false)
    }

    /// Cumulative hit/miss counters and resident-entry counts.
    pub fn stats() -> TwiddleCacheStats {
        let s = store();
        TwiddleCacheStats {
            hits: s.hits,
            misses: s.misses,
            entries64: s.narrow.len(),
            entries128: s.wide.len(),
        }
    }

    /// Drops every resident plan (outstanding `Arc`s stay valid).
    /// Counters are preserved.
    pub fn clear() {
        let mut s = store();
        s.narrow.clear();
        s.wide.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_arith::primes::ntt_prime;

    #[test]
    fn identical_keys_share_one_plan() {
        // An (unusual) key no other test uses, so residency checks are
        // deterministic even with the suite running in parallel.
        let n = 1 << 3;
        let q = ntt_prime(33, n).unwrap() as u64;
        assert!(!TwiddleCache::contains(q as u128, n));
        let a = TwiddleCache::barrett64(q, n).unwrap();
        assert!(TwiddleCache::contains(q as u128, n));
        let b = TwiddleCache::barrett64(q, n).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.n(), n);
        assert_eq!(a.ring().q(), q);
    }

    #[test]
    fn widths_are_keyed_independently() {
        let n = 1 << 3;
        let q = ntt_prime(35, n).unwrap();
        let wide = TwiddleCache::barrett128(q, n).unwrap();
        let narrow = TwiddleCache::barrett64(q as u64, n).unwrap();
        assert_eq!(wide.ring().q(), q);
        assert_eq!(narrow.ring().q() as u128, q);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let n = 1 << 4;
        let q = ntt_prime(37, n).unwrap() as u64;
        let before = TwiddleCache::stats();
        let _a = TwiddleCache::barrett64(q, n).unwrap();
        let _b = TwiddleCache::barrett64(q, n).unwrap();
        let after = TwiddleCache::stats();
        assert!(after.misses > before.misses);
        assert!(after.hits > before.hits);
    }

    #[test]
    fn failures_are_not_cached() {
        // 15 is not prime and has no 2n-th root of unity.
        assert!(TwiddleCache::barrett64(15, 8).is_err());
        assert!(!TwiddleCache::contains(15, 8));
    }
}
