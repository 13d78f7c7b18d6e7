//! The ciphertext registry: a handle-addressed store with per-tenant
//! ownership, an access-control list, and byte accounting.
//!
//! The registry is the reason ciphertext polynomials never round-trip
//! through the request API: a tenant uploads inputs once, every
//! request references operands by [`CtHandle`], and results
//! materialize under handles allocated at admission. Each entry
//! carries an owner, an ACL (owner-only / shared with named tenants /
//! public), and the byte count charged against the owner's quota —
//! the Ciphertext Registry role of the CoFHE decomposition.
//!
//! Everything is keyed through `BTreeMap`s, so iteration order — and
//! with it every admission decision — is deterministic.

use std::collections::{BTreeMap, BTreeSet};

use cofhee_farm::JobResult;

use crate::error::DenyReason;
use crate::handle::{CtHandle, TenantId};

/// Who may read an entry besides its owner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Visibility {
    /// Owner only (the default for uploads and results).
    Private,
    /// Owner plus the named tenants.
    Shared(BTreeSet<TenantId>),
    /// Every tenant of the gateway.
    Public,
}

#[derive(Debug)]
enum EntryState {
    /// Reserved at admission; the producing job has not been placed.
    Pending,
    /// Materialized: the producing job finishes at `ready_at` in virtual
    /// time, and is readable from then on once the farm has computed
    /// `ct`.
    Ready { ct: Option<JobResult>, ready_at: u64 },
}

#[derive(Debug)]
struct Entry {
    owner: TenantId,
    visibility: Visibility,
    /// Parameter fingerprint (`q`, `n`) for compatibility validation.
    q: u128,
    n: usize,
    /// Bytes charged to the owner for this entry.
    bytes: u64,
    state: EntryState,
}

/// Bytes a ciphertext of `polys` components occupies at degree `n`
/// (u128 coefficients — what the registry actually stores).
pub fn ciphertext_bytes(polys: usize, n: usize) -> u64 {
    (polys as u64) * (n as u64) * 16
}

/// Bytes an entry's ciphertext occupies at degree `n` (CKKS counts every
/// live limb of every component).
pub(crate) fn stored_bytes(ct: &JobResult, n: usize) -> u64 {
    match ct {
        JobResult::Bfv(ct) => ciphertext_bytes(ct.len(), n),
        JobResult::Ckks(ct) => ct.bytes(),
    }
}

/// The handle-addressed ciphertext store.
///
/// All mutation goes through the [`Gateway`](crate::Gateway) — rejected
/// requests never reach any of the crate-internal mutators, which is
/// what makes "a reject never mutates the registry" a structural
/// guarantee rather than a convention.
#[derive(Debug, Default)]
pub struct CiphertextRegistry {
    entries: BTreeMap<u64, Entry>,
    bytes_by_tenant: BTreeMap<TenantId, u64>,
    next: u64,
}

impl CiphertextRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Entries currently stored (pending reservations included).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether `handle` exists (pending or ready).
    pub fn contains(&self, handle: CtHandle) -> bool {
        self.entries.contains_key(&handle.raw())
    }

    /// Whether `handle` has materialized: uploaded, or its producing job
    /// placed on the farm.
    pub fn is_ready(&self, handle: CtHandle) -> bool {
        matches!(self.entries.get(&handle.raw()).map(|e| &e.state), Some(EntryState::Ready { .. }))
    }

    /// Bytes currently charged against `tenant`'s registry quota.
    pub fn bytes_used(&self, tenant: TenantId) -> u64 {
        self.bytes_by_tenant.get(&tenant).copied().unwrap_or(0)
    }

    /// The entry's visibility, when it exists.
    pub fn visibility(&self, handle: CtHandle) -> Option<&Visibility> {
        self.entries.get(&handle.raw()).map(|e| &e.visibility)
    }

    /// The entry's owner, when it exists.
    pub fn owner(&self, handle: CtHandle) -> Option<TenantId> {
        self.entries.get(&handle.raw()).map(|e| e.owner)
    }

    /// Stores an uploaded ciphertext for `owner`, readable immediately.
    pub(crate) fn insert(&mut self, owner: TenantId, ct: JobResult, q: u128, n: usize) -> CtHandle {
        let bytes = stored_bytes(&ct, n);
        let handle = CtHandle::new(self.next);
        self.next += 1;
        self.entries.insert(
            handle.raw(),
            Entry {
                owner,
                visibility: Visibility::Private,
                q,
                n,
                bytes,
                state: EntryState::Ready { ct: Some(ct), ready_at: 0 },
            },
        );
        *self.bytes_by_tenant.entry(owner).or_insert(0) += bytes;
        handle
    }

    /// Reserves a result handle for an admitted request: charged
    /// `bytes` against the owner now, materialized by
    /// [`Self::materialize`] when the producing job finishes.
    pub(crate) fn reserve(&mut self, owner: TenantId, q: u128, n: usize, bytes: u64) -> CtHandle {
        let handle = CtHandle::new(self.next);
        self.next += 1;
        self.entries.insert(
            handle.raw(),
            Entry {
                owner,
                visibility: Visibility::Private,
                q,
                n,
                bytes,
                state: EntryState::Pending,
            },
        );
        *self.bytes_by_tenant.entry(owner).or_insert(0) += bytes;
        handle
    }

    /// Materializes a reserved handle: its producing job, placed on the
    /// farm, finishes at `ready_at` with a result of `bytes`, which the
    /// farm computes later ([`Self::fill`]).
    ///
    /// Eviction legitimately races with completion — the owner may drop
    /// a reserved result handle while its producing request is still
    /// queued or in flight — so a missing entry is ignored instead of
    /// panicking.
    ///
    /// The reservation was an estimate (CKKS multiplies rescale, so
    /// their results carry one limb fewer than the worst case the
    /// admission charged); the charge is re-trued to the materialized
    /// size here, so byte accounting always reflects what is stored.
    pub(crate) fn materialize(&mut self, handle: CtHandle, bytes: u64, ready_at: u64) {
        let Some(entry) = self.entries.get_mut(&handle.raw()) else {
            return;
        };
        debug_assert!(matches!(entry.state, EntryState::Pending), "materialize twice");
        let reserved = entry.bytes;
        entry.bytes = bytes;
        let used = self.bytes_by_tenant.entry(entry.owner).or_insert(0);
        *used = used.saturating_sub(reserved).saturating_add(bytes);
        entry.state = EntryState::Ready { ct: None, ready_at };
    }

    /// Stores the computed result of a materialized handle; a result
    /// whose handle was evicted meanwhile is discarded.
    pub(crate) fn fill(&mut self, handle: CtHandle, result: JobResult) {
        if let Some(Entry { state: EntryState::Ready { ct, .. }, .. }) =
            self.entries.get_mut(&handle.raw())
        {
            debug_assert!(ct.is_none(), "fill twice");
            *ct = Some(result);
        }
    }

    /// Validates that `reader` may use `handle` as an operand: it must
    /// exist and be owner-readable, shared, or public.
    pub(crate) fn readable(&self, handle: CtHandle, reader: TenantId) -> Result<(), DenyReason> {
        let entry = self.entries.get(&handle.raw()).ok_or(DenyReason::UnknownHandle(handle))?;
        let allowed = entry.owner == reader
            || match &entry.visibility {
                Visibility::Private => false,
                Visibility::Shared(with) => with.contains(&reader),
                Visibility::Public => true,
            };
        if allowed {
            Ok(())
        } else {
            Err(DenyReason::NotAuthorized(handle))
        }
    }

    /// The entry's parameter fingerprint, when it exists.
    pub(crate) fn params_of(&self, handle: CtHandle) -> Option<(u128, usize)> {
        self.entries.get(&handle.raw()).map(|e| (e.q, e.n))
    }

    /// Whether `handle` has materialized and its producing job finished
    /// by cycle `at` — computed or not.
    pub(crate) fn finished_by(&self, handle: CtHandle, at: u64) -> bool {
        matches!(
            self.entries.get(&handle.raw()).map(|e| &e.state),
            Some(EntryState::Ready { ready_at, .. }) if *ready_at <= at
        )
    }

    /// The ciphertext, if `handle` is ready by cycle `at` and computed.
    pub(crate) fn ready_ciphertext(&self, handle: CtHandle, at: u64) -> Option<&JobResult> {
        match self.entries.get(&handle.raw()).map(|e| &e.state) {
            Some(EntryState::Ready { ct, ready_at }) if *ready_at <= at => ct.as_ref(),
            _ => None,
        }
    }

    /// Shares `handle` with `with` (owner-only operation).
    pub(crate) fn share(
        &mut self,
        handle: CtHandle,
        owner: TenantId,
        with: TenantId,
    ) -> Result<(), DenyReason> {
        let entry = self.owned_entry(handle, owner)?;
        match &mut entry.visibility {
            Visibility::Shared(set) => {
                set.insert(with);
            }
            Visibility::Public => {}
            v @ Visibility::Private => {
                *v = Visibility::Shared(BTreeSet::from([with]));
            }
        }
        Ok(())
    }

    /// Makes `handle` readable by every tenant (owner-only operation).
    pub(crate) fn publish(&mut self, handle: CtHandle, owner: TenantId) -> Result<(), DenyReason> {
        self.owned_entry(handle, owner)?.visibility = Visibility::Public;
        Ok(())
    }

    /// Removes `handle` and refunds its bytes (owner-only operation).
    pub(crate) fn evict(&mut self, handle: CtHandle, owner: TenantId) -> Result<(), DenyReason> {
        self.owned_entry(handle, owner)?;
        let entry = self.entries.remove(&handle.raw()).expect("checked above");
        let used = self.bytes_by_tenant.entry(owner).or_insert(0);
        *used = used.saturating_sub(entry.bytes);
        Ok(())
    }

    fn owned_entry(&mut self, handle: CtHandle, owner: TenantId) -> Result<&mut Entry, DenyReason> {
        let entry = self.entries.get_mut(&handle.raw()).ok_or(DenyReason::UnknownHandle(handle))?;
        if entry.owner != owner {
            return Err(DenyReason::NotAuthorized(handle));
        }
        Ok(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cofhee_bfv::{BfvParams, Ciphertext, Encryptor, KeyGenerator, Plaintext};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ct(params: &BfvParams, v: u64, rng: &mut StdRng) -> Ciphertext {
        let kg = KeyGenerator::new(params, rng);
        let enc = Encryptor::new(params, kg.public_key(rng).unwrap());
        let mut coeffs = vec![0u64; params.n()];
        coeffs[0] = v;
        enc.encrypt(&Plaintext::new(params, coeffs).unwrap(), rng).unwrap()
    }

    #[test]
    fn ownership_and_acl_gate_reads() {
        let params = BfvParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (alice, bob, carol) = (TenantId::new(0), TenantId::new(1), TenantId::new(2));
        let mut reg = CiphertextRegistry::new();
        let h = reg.insert(alice, JobResult::Bfv(ct(&params, 5, &mut rng)), params.q(), params.n());

        assert!(reg.readable(h, alice).is_ok());
        assert_eq!(reg.readable(h, bob), Err(DenyReason::NotAuthorized(h)));
        assert_eq!(reg.owner(h), Some(alice));

        // Sharing grants exactly the named tenant.
        reg.share(h, alice, bob).unwrap();
        assert!(reg.readable(h, bob).is_ok());
        assert_eq!(reg.readable(h, carol), Err(DenyReason::NotAuthorized(h)));

        // Only the owner may share or publish.
        assert_eq!(reg.share(h, bob, carol), Err(DenyReason::NotAuthorized(h)));
        reg.publish(h, alice).unwrap();
        assert!(reg.readable(h, carol).is_ok());
        assert_eq!(reg.visibility(h), Some(&Visibility::Public));

        let missing = CtHandle::new(99);
        assert_eq!(reg.readable(missing, alice), Err(DenyReason::UnknownHandle(missing)));
    }

    #[test]
    fn bytes_are_charged_reserved_and_refunded() {
        let params = BfvParams::insecure_testing(32).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let alice = TenantId::new(0);
        let mut reg = CiphertextRegistry::new();
        let per_ct = ciphertext_bytes(2, params.n());
        let h = reg.insert(alice, JobResult::Bfv(ct(&params, 5, &mut rng)), params.q(), params.n());
        assert_eq!(reg.bytes_used(alice), per_ct);

        let r = reg.reserve(alice, params.q(), params.n(), per_ct);
        assert_eq!(reg.bytes_used(alice), 2 * per_ct);
        assert!(!reg.is_ready(r));
        assert!(reg.ready_ciphertext(r, u64::MAX).is_none());

        reg.materialize(r, per_ct, 500);
        assert!(reg.is_ready(r));
        assert!(!reg.finished_by(r, 499), "not ready before its finish cycle");
        assert!(reg.finished_by(r, 500));
        assert!(reg.ready_ciphertext(r, 500).is_none(), "not computed yet");
        reg.fill(r, JobResult::Bfv(ct(&params, 6, &mut rng)));
        assert!(reg.ready_ciphertext(r, 499).is_none(), "not ready before its finish cycle");
        assert!(reg.ready_ciphertext(r, 500).is_some());

        assert_eq!(reg.evict(h, TenantId::new(7)), Err(DenyReason::NotAuthorized(h)));
        reg.evict(h, alice).unwrap();
        assert_eq!(reg.bytes_used(alice), per_ct);
        assert!(!reg.contains(h));
    }
}
