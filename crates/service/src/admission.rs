//! Admission-drain policies: which tenant's queued request dispatches
//! next when a farm slot frees.
//!
//! Backpressure itself is policy-independent — every tenant has a
//! bounded FIFO queue and the newest request is rejected when it fills
//! ([`AdmitError::QueueFull`](crate::AdmitError::QueueFull)). What a
//! policy decides is the *drain order*: given the set of tenants whose
//! queue heads are dispatchable right now, which one gets the slot.
//! [`RejectNewest`] drains globally oldest-first (the throughput
//! baseline a flooding tenant dominates); [`TenantFair`] drains by
//! weighted round-robin so no tenant can starve the others — the
//! Aggregator role of the CoFHE decomposition.

use crate::handle::TenantId;

/// What a policy sees about one dispatchable tenant queue: only
/// virtual-time state, so drain decisions are deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueView {
    /// The tenant whose queue head is dispatchable.
    pub tenant: TenantId,
    /// The tenant's configured fair-share weight.
    pub weight: u32,
    /// Virtual cycle the head request was admitted at.
    pub head_arrival: u64,
    /// The head request's gateway-wide admission sequence number
    /// (the deterministic tiebreak for equal arrivals).
    pub head_seq: u64,
}

/// Picks which dispatchable queue gets the next free farm slot.
///
/// `ready` lists every tenant whose queue head could run right now
/// (operands materialized); policies are work-conserving by
/// construction — returning `None` leaves the slot idle until the next
/// event, so only return it for an empty `ready`.
pub trait AdmissionPolicy: std::fmt::Debug {
    /// Stable label for reports.
    fn name(&self) -> &'static str;
    /// Index into `ready` of the queue to drain, or `None` if `ready`
    /// is empty.
    fn pick(&mut self, ready: &[QueueView]) -> Option<usize>;
}

/// Globally oldest-first drain (FIFO by admission time).
///
/// The classic single-queue service: backpressure still rejects the
/// newest request per tenant, but the drain order ignores tenancy — a
/// tenant that floods its queue holds the oldest backlog and therefore
/// captures nearly every slot. The `service_saturation` bench
/// quantifies exactly that capture; [`TenantFair`] is the fix.
#[derive(Debug, Default, Clone, Copy)]
pub struct RejectNewest;

impl AdmissionPolicy for RejectNewest {
    fn name(&self) -> &'static str {
        "reject-newest"
    }

    fn pick(&mut self, ready: &[QueueView]) -> Option<usize> {
        (0..ready.len()).min_by_key(|&i| (ready[i].head_arrival, ready[i].head_seq))
    }
}

/// Weighted round-robin drain across tenants (deficit round-robin over
/// whole requests).
///
/// Serves up to `weight` consecutive requests from the cursor tenant,
/// then rotates to the next ready tenant by id (wrapping). A flooding
/// tenant gets exactly its weighted turn and no more, which is what
/// keeps the Jain fairness index pinned near 1 under abuse — the
/// property the CI smoke gate asserts.
#[derive(Debug, Default, Clone, Copy)]
pub struct TenantFair {
    /// Raw id of the tenant currently holding the turn.
    cursor: u64,
    /// Serves the cursor tenant still has in this turn.
    credit: u32,
}

impl AdmissionPolicy for TenantFair {
    fn name(&self) -> &'static str {
        "tenant-fair"
    }

    fn pick(&mut self, ready: &[QueueView]) -> Option<usize> {
        if ready.is_empty() {
            return None;
        }
        // Spend remaining credit on the cursor tenant while it stays
        // ready; otherwise its turn ends early (work conservation).
        if self.credit > 0 {
            if let Some(i) = ready.iter().position(|q| q.tenant.raw() == self.cursor) {
                self.credit -= 1;
                return Some(i);
            }
            self.credit = 0;
        }
        // Rotate: the nearest ready tenant strictly after the cursor,
        // wrapping around to the smallest id.
        let next = (0..ready.len())
            .min_by_key(|&i| {
                let id = ready[i].tenant.raw();
                (u64::from(id <= self.cursor), id)
            })
            .expect("ready is non-empty");
        self.cursor = ready[next].tenant.raw();
        self.credit = ready[next].weight.max(1) - 1;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(tenant: u64, weight: u32, arrival: u64, seq: u64) -> QueueView {
        QueueView { tenant: TenantId::new(tenant), weight, head_arrival: arrival, head_seq: seq }
    }

    #[test]
    fn reject_newest_drains_globally_oldest_first() {
        let mut p = RejectNewest;
        let ready = vec![view(0, 1, 50, 7), view(1, 1, 10, 3), view(2, 1, 10, 2)];
        // Oldest arrival wins; equal arrivals break by admission seq.
        assert_eq!(p.pick(&ready), Some(2));
        assert_eq!(p.pick(&[]), None);
        assert_eq!(p.name(), "reject-newest");
    }

    #[test]
    fn tenant_fair_rotates_across_tenants() {
        let mut p = TenantFair::default();
        let ready = vec![view(0, 1, 0, 0), view(1, 1, 0, 1), view(2, 1, 0, 2)];
        let picks: Vec<u64> = (0..6).map(|_| ready[p.pick(&ready).unwrap()].tenant.raw()).collect();
        assert_eq!(picks, vec![1, 2, 0, 1, 2, 0], "round-robin regardless of arrival order");
    }

    #[test]
    fn tenant_fair_honours_weights_and_stays_work_conserving() {
        let mut p = TenantFair::default();
        let ready = vec![view(0, 3, 0, 0), view(1, 1, 0, 1)];
        let picks: Vec<u64> = (0..8).map(|_| ready[p.pick(&ready).unwrap()].tenant.raw()).collect();
        // Tenant 0 gets 3 serves per turn, tenant 1 gets 1.
        assert_eq!(picks, vec![1, 0, 0, 0, 1, 0, 0, 0]);

        // Credit is abandoned when the cursor tenant stops being ready:
        // the slot goes to whoever is, never idle.
        let only_one = vec![view(1, 1, 0, 1)];
        let mut q = TenantFair::default();
        assert_eq!(q.pick(&[view(0, 5, 0, 0)]), Some(0));
        assert_eq!(q.pick(&only_one), Some(0), "tenant 1 serves while 0 is empty");
        assert_eq!(q.pick(&[]), None);
    }
}
