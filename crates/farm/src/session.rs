//! Tenant sessions: the unit of multi-tenancy the farm schedules for.

use std::sync::Arc;

use cofhee_bfv::{BfvError, BfvParams, Ciphertext, Evaluator, RelinKey};
use cofhee_ckks::{CkksCiphertext, CkksError, CkksEvaluator, CkksParams, CkksRelinKey};
use cofhee_core::JobPlan;

use crate::error::{FarmError, Result};
use crate::scheduler::{JobKind, JobResult};

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

/// The scheme-specific half of a session: the evaluator that records a
/// job's streams, shared with the host steps and finisher of its plan,
/// and the relinearization key a multiply uploads.
#[derive(Debug, Clone)]
enum Backing {
    Bfv { evaluator: Arc<Evaluator>, rlk: Option<RelinKey> },
    Ckks { evaluator: Arc<CkksEvaluator>, rlk: Option<CkksRelinKey> },
}

/// One tenant's standing state on the farm: the public evaluation
/// material (relinearization key) and an evaluator for the scheme
/// parameters, which lowers each job to a [`JobPlan`] — its streams
/// and the host-side work between and after them (CRT recombination,
/// rounding, digit decomposition). The polynomial work itself always
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
            backing: Backing::Bfv { evaluator: Arc::new(Evaluator::new(params)?), rlk: None },
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
            backing: Backing::Ckks { evaluator: Arc::new(CkksEvaluator::new(params)?), rlk: None },
        })
    }

    /// The tenant label (reports, debugging).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Lowers `kind` to the plan the scheduler places. The scheme crate
    /// records every phase here, so a job it refuses never reaches a die.
    ///
    /// # Errors
    ///
    /// [`FarmError::SchemeMismatch`] for a job of the other scheme,
    /// [`FarmError::MissingRelinKey`] for a multiply without key material,
    /// and recording failures.
    pub(crate) fn plan(
        &self,
        id: SessionId,
        kind: &JobKind,
    ) -> Result<JobPlan<JobResult, FarmError>> {
        let missing = || FarmError::MissingRelinKey { id: id.raw() };
        let bfv = |plan: JobPlan<Ciphertext, BfvError>| plan.map(JobResult::Bfv);
        let ckks = |plan: JobPlan<CkksCiphertext, CkksError>| plan.map(JobResult::Ckks);
        Ok(match (&self.backing, kind) {
            (Backing::Bfv { evaluator: ev, .. }, JobKind::Add(a, b)) => {
                bfv(ev.stream_plan(ev.add_stream(a, b)?))
            }
            (Backing::Bfv { evaluator: ev, .. }, JobKind::AddPlain(a, pt)) => {
                bfv(ev.stream_plan(ev.add_plain_stream(a, pt)?))
            }
            (Backing::Bfv { evaluator: ev, .. }, JobKind::MulPlain(a, pt)) => {
                bfv(ev.stream_plan(ev.mul_plain_stream(a, pt)?))
            }
            (Backing::Bfv { evaluator: ev, rlk }, JobKind::MulRelin(a, b)) => {
                bfv(ev.mul_relin_plan(a, b, rlk.as_ref().ok_or_else(missing)?)?)
            }
            (Backing::Ckks { evaluator: ev, .. }, JobKind::CkksAdd(a, b)) => {
                ckks(ev.limb_plan(ev.add_streams(a, b)?, a.level(), a.scale()))
            }
            (Backing::Ckks { evaluator: ev, .. }, JobKind::CkksMulPlain(a, pt)) => {
                let scale = a.scale() * pt.scale();
                ckks(ev.limb_plan(ev.mul_plain_streams(a, pt)?, a.level(), scale))
            }
            (Backing::Ckks { evaluator: ev, rlk }, JobKind::CkksMulRelin(a, b)) => {
                ckks(ev.mul_relin_rescale_plan(a, b, rlk.as_ref().ok_or_else(missing)?)?)
            }
            _ => return Err(FarmError::SchemeMismatch { id: id.raw() }),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_bfv::{Encryptor, KeyGenerator, Plaintext};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A BFV ciphertext of 1 under fresh keys for `params`.
    fn bfv_ct(params: &BfvParams, rng: &mut StdRng) -> Ciphertext {
        let kg = KeyGenerator::new(params, rng);
        let enc = Encryptor::new(params, kg.public_key(rng).unwrap());
        enc.encrypt(&Plaintext::constant(params, 1).unwrap(), rng).unwrap()
    }

    fn phase_names(plan: &JobPlan<JobResult, FarmError>) -> Vec<&'static str> {
        plan.phases.iter().map(|p| p.name).collect()
    }

    #[test]
    fn sessions_carry_tenant_material() {
        let params = BfvParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let kg = KeyGenerator::new(&params, &mut rng);
        let rlk = kg.relin_key(16, &mut rng).unwrap();
        let digits = rlk.digit_count();
        let s = Session::new("acme", &params, rlk).unwrap();
        assert_eq!(s.tenant(), "acme");
        let ct = bfv_ct(&params, &mut rng);
        let plan = s.plan(SessionId::new(4), &JobKind::MulRelin(ct.clone(), ct.clone())).unwrap();
        assert_eq!(phase_names(&plan), ["tensor", "relin"]);
        assert_eq!(plan.steps.len(), 1);
        assert_eq!(plan.phases[0].moduli, params.mult_basis().moduli());
        assert_eq!(
            (plan.phases[1].moduli.as_slice(), plan.phases[1].key_polys),
            (&[params.q()][..], 2 * digits)
        );
        let plan = s.plan(SessionId::new(4), &JobKind::Add(ct.clone(), ct)).unwrap();
        assert_eq!((phase_names(&plan), plan.steps.len()), (vec!["compute"], 0));
        assert_eq!(format!("{}", SessionId::new(4)), "session#4");
        assert_eq!(SessionId::new(4).raw(), 4);
    }

    #[test]
    fn sessions_without_relin_material_carry_none() {
        let params = BfvParams::insecure_testing(32).unwrap();
        let ct = bfv_ct(&params, &mut StdRng::seed_from_u64(3));
        let s = Session::without_relin("acme", &params).unwrap();
        assert!(matches!(
            s.plan(SessionId::new(0), &JobKind::MulRelin(ct.clone(), ct)),
            Err(FarmError::MissingRelinKey { id: 0 })
        ));
    }

    #[test]
    fn ckks_sessions_are_scheme_tagged() {
        let params = cofhee_ckks::CkksParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let kg = cofhee_ckks::CkksKeyGenerator::new(&params);
        let sk = kg.secret_key(&mut rng).unwrap();
        let rlk = kg.relin_key(&sk, &mut rng).unwrap();
        let enc = cofhee_ckks::CkksEncryptor::new(&params, kg.public_key(&sk, &mut rng).unwrap());
        let pt = cofhee_ckks::CkksEncoder::new(&params).encode(&[1.0]).unwrap();
        let ct = enc.encrypt(&pt, &mut rng).unwrap();
        let s = Session::new_ckks("approx", &params, rlk).unwrap();
        let plan =
            s.plan(SessionId::new(0), &JobKind::CkksMulRelin(ct.clone(), ct.clone())).unwrap();
        assert_eq!(phase_names(&plan), ["tensor", "relin", "rescale"]);
        let lower = params.top_level().lower().unwrap();
        assert_eq!(plan.phases[2].moduli, params.moduli_at(lower));
        let bfv = BfvParams::insecure_testing(32).unwrap();
        let bfv_ct = bfv_ct(&bfv, &mut rng);
        assert!(matches!(
            s.plan(SessionId::new(0), &JobKind::Add(bfv_ct.clone(), bfv_ct)),
            Err(FarmError::SchemeMismatch { id: 0 })
        ));
        let keyless = Session::ckks_without_relin("approx2", &params).unwrap();
        assert!(matches!(
            keyless.plan(SessionId::new(1), &JobKind::CkksMulRelin(ct.clone(), ct)),
            Err(FarmError::MissingRelinKey { id: 1 })
        ));
    }
}
