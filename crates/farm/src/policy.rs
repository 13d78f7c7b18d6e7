//! Stream placement: the [`PlacementPolicy`] trait and the farm's one
//! rule, [`WorkStealing`].
//!
//! The scheduler decomposes every job into per-limb [`OpStream`]s
//! (see `cofhee_bfv`'s job layer) and asks a [`PlacementPolicy`] which
//! die each stream should run on. A policy sees only the farm's
//! virtual-time status — the cycle each die's backlog drains at — so
//! it is deterministic by construction: the same job list against
//! the same farm always produces the same placements. (A die's queue
//! depth is telemetry, reconstructed once per report as
//! `ChipStats::max_queue_depth`, not a placement input.)
//!
//! [`OpStream`]: cofhee_core::OpStream

use core::fmt;

/// A die's scheduling-relevant status at one placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DieStatus {
    /// Die index within the farm.
    pub chip: usize,
    /// Virtual cycle at which the die's current backlog finishes.
    pub busy_until: u64,
}

/// Chooses a die for each stream.
///
/// Implementations must be deterministic functions of their own state
/// and the presented statuses — the farm's reproducibility guarantees
/// (bit-identical ciphertexts *and* telemetry across runs) rest on it.
pub trait PlacementPolicy: fmt::Debug + Send {
    /// Policy label for reports.
    fn name(&self) -> &'static str;

    /// Picks the die (index into `dies`) to place a stream that becomes
    /// ready at virtual cycle `ready`. `dies` is never empty.
    fn place(&mut self, dies: &[DieStatus], ready: u64) -> usize;
}

/// Idealized work stealing: every stream goes to the die that frees up
/// earliest (`max(busy_until, ready)` minimal; ties to the lowest die
/// index). This is the virtual-time equivalent of an idle worker always
/// stealing the next pending stream the moment it runs dry, and the
/// farm's one placement rule.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkStealing;

impl PlacementPolicy for WorkStealing {
    fn name(&self) -> &'static str {
        "work-stealing"
    }

    fn place(&mut self, dies: &[DieStatus], ready: u64) -> usize {
        dies.iter()
            .min_by_key(|d| (d.busy_until.max(ready), d.chip))
            .expect("farm is non-empty")
            .chip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dies() -> Vec<DieStatus> {
        vec![
            DieStatus { chip: 0, busy_until: 900 },
            DieStatus { chip: 1, busy_until: 200 },
            DieStatus { chip: 2, busy_until: 500 },
        ]
    }

    #[test]
    fn work_stealing_picks_the_earliest_free_die() {
        assert_eq!(WorkStealing.place(&dies(), 0), 1);
        // A late-ready stream sees all dies as equally free: lowest id.
        assert_eq!(WorkStealing.place(&dies(), 10_000), 0);
    }
}
