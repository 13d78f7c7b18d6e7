//! Tenant sessions: the unit of multi-tenancy the farm schedules for.

use cofhee_bfv::{BfvParams, Evaluator, RelinKey};
use cofhee_ckks::{CkksEvaluator, CkksParams, CkksRelinKey};

use crate::error::{FarmError, Result};

/// Identifies an open session within one [`Scheduler`](crate::Scheduler).
///
/// Ids are scheduler-local and sequential (the open order), so a fixed
/// session-open sequence always yields the same ids — part of the
/// farm's determinism contract.
///
/// The id is **opaque**: only
/// [`Scheduler::open_session`](crate::Scheduler::open_session) issues
/// them, so callers cannot forge one, confuse it with a service-layer
/// tenant id, or depend on the scheduler's internal counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(u64);

impl SessionId {
    /// Only the scheduler mints ids (its open counter).
    pub(crate) fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw scheduler-local index — diagnostics and display only;
    /// there is deliberately no way to turn a `u64` back into an id.
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl core::fmt::Display for SessionId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// The scheme a session's key material and evaluator serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Exact integer arithmetic (the paper's native scheme).
    Bfv,
    /// Approximate arithmetic over packed reals.
    Ckks,
}

/// The scheme-specific half of a session.
#[derive(Debug, Clone)]
enum Backing {
    Bfv { params: BfvParams, evaluator: Evaluator, rlk: Option<RelinKey> },
    Ckks { params: CkksParams, evaluator: CkksEvaluator, rlk: Option<CkksRelinKey> },
}

/// One tenant's standing state on the farm: scheme parameters, the
/// public evaluation material (relinearization key), and an evaluator
/// handle used purely for job-stream recording and host-side finishing
/// (CRT recombination, rounding) — the polynomial work itself always
/// executes on farm dies.
///
/// A session serves exactly one scheme — BFV
/// ([`Session::new`]/[`Session::without_relin`]) or CKKS
/// ([`Session::new_ckks`]/[`Session::ckks_without_relin`]). Jobs of the
/// other scheme fail typed with
/// [`FarmError::SchemeMismatch`](crate::FarmError).
///
/// The tenant keeps the secret key; the farm only ever holds what a
/// real FHE service would: parameters, ciphertexts in flight, and
/// public key-switch material.
#[derive(Debug, Clone)]
pub struct Session {
    tenant: String,
    backing: Backing,
}

impl Session {
    /// Opens a BFV session for `tenant` under `params` with the
    /// tenant's relinearization key.
    ///
    /// # Errors
    ///
    /// Propagates evaluator bring-up failures (none for validated
    /// parameter sets).
    pub fn new(tenant: &str, params: &BfvParams, rlk: RelinKey) -> Result<Self> {
        let mut s = Self::without_relin(tenant, params)?;
        if let Backing::Bfv { rlk: slot, .. } = &mut s.backing {
            *slot = Some(rlk);
        }
        Ok(s)
    }

    /// Opens a BFV session that never uploaded relinearization material.
    /// Such a session can run every job kind except
    /// [`JobKind::MulRelin`](crate::JobKind::MulRelin), which fails
    /// with [`FarmError::MissingRelinKey`](crate::FarmError) — the
    /// check front-ends validate before admitting a multiply.
    ///
    /// # Errors
    ///
    /// Propagates evaluator bring-up failures (none for validated
    /// parameter sets).
    pub fn without_relin(tenant: &str, params: &BfvParams) -> Result<Self> {
        Ok(Self {
            tenant: tenant.to_string(),
            backing: Backing::Bfv {
                params: params.clone(),
                evaluator: Evaluator::new(params)?,
                rlk: None,
            },
        })
    }

    /// Opens a CKKS session for `tenant` with the tenant's
    /// relinearization key.
    ///
    /// # Errors
    ///
    /// Propagates evaluator bring-up failures (none for validated
    /// parameter sets).
    pub fn new_ckks(tenant: &str, params: &CkksParams, rlk: CkksRelinKey) -> Result<Self> {
        let mut s = Self::ckks_without_relin(tenant, params)?;
        if let Backing::Ckks { rlk: slot, .. } = &mut s.backing {
            *slot = Some(rlk);
        }
        Ok(s)
    }

    /// Opens a CKKS session without relinearization material (every job
    /// kind except `CkksMulRelin` runs).
    ///
    /// # Errors
    ///
    /// Propagates evaluator bring-up failures (none for validated
    /// parameter sets).
    pub fn ckks_without_relin(tenant: &str, params: &CkksParams) -> Result<Self> {
        Ok(Self {
            tenant: tenant.to_string(),
            backing: Backing::Ckks {
                params: params.clone(),
                evaluator: CkksEvaluator::new(params).map_err(FarmError::Ckks)?,
                rlk: None,
            },
        })
    }

    /// The tenant label (reports, debugging).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Which scheme this session serves.
    pub fn scheme(&self) -> Scheme {
        match &self.backing {
            Backing::Bfv { .. } => Scheme::Bfv,
            Backing::Ckks { .. } => Scheme::Ckks,
        }
    }

    /// The BFV half of the session; a CKKS session is a typed error.
    pub(crate) fn bfv(&self, id: SessionId) -> Result<(&BfvParams, &Evaluator, Option<&RelinKey>)> {
        match &self.backing {
            Backing::Bfv { params, evaluator, rlk } => Ok((params, evaluator, rlk.as_ref())),
            Backing::Ckks { .. } => Err(FarmError::SchemeMismatch { id: id.raw() }),
        }
    }

    /// The CKKS half of the session; a BFV session is a typed error.
    pub(crate) fn ckks(
        &self,
        id: SessionId,
    ) -> Result<(&CkksParams, &CkksEvaluator, Option<&CkksRelinKey>)> {
        match &self.backing {
            Backing::Ckks { params, evaluator, rlk } => Ok((params, evaluator, rlk.as_ref())),
            Backing::Bfv { .. } => Err(FarmError::SchemeMismatch { id: id.raw() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sessions_carry_tenant_material() {
        let params = BfvParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let kg = cofhee_bfv::KeyGenerator::new(&params, &mut rng);
        let rlk = kg.relin_key(16, &mut rng).unwrap();
        let s = Session::new("acme", &params, rlk).unwrap();
        assert_eq!(s.tenant(), "acme");
        assert_eq!(s.scheme(), Scheme::Bfv);
        let (held, _, rlk) = s.bfv(SessionId::new(4)).unwrap();
        assert_eq!(held.n(), 32);
        assert!(rlk.expect("uploaded").digit_count() > 0);
        assert!(matches!(s.ckks(SessionId::new(4)), Err(FarmError::SchemeMismatch { id: 4 })));
        assert_eq!(format!("{}", SessionId::new(4)), "session#4");
        assert_eq!(SessionId::new(4).raw(), 4);
    }

    #[test]
    fn sessions_without_relin_material_carry_none() {
        let params = BfvParams::insecure_testing(32).unwrap();
        let s = Session::without_relin("acme", &params).unwrap();
        assert!(s.bfv(SessionId::new(0)).unwrap().2.is_none());
    }

    #[test]
    fn ckks_sessions_are_scheme_tagged() {
        let params = cofhee_ckks::CkksParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let kg = cofhee_ckks::CkksKeyGenerator::new(&params);
        let sk = kg.secret_key(&mut rng).unwrap();
        let rlk = kg.relin_key(&sk, &mut rng).unwrap();
        let s = Session::new_ckks("approx", &params, rlk).unwrap();
        assert_eq!(s.scheme(), Scheme::Ckks);
        assert!(matches!(s.bfv(SessionId::new(0)), Err(FarmError::SchemeMismatch { id: 0 })));
        let (held, _, rlk) = s.ckks(SessionId::new(0)).unwrap();
        assert_eq!(held.n(), 32);
        assert!(rlk.is_some());
        let keyless = Session::ckks_without_relin("approx2", &params).unwrap();
        assert!(keyless.ckks(SessionId::new(1)).unwrap().2.is_none());
    }
}
