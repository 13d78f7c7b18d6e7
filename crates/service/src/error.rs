//! The unified service error surface.
//!
//! Callers need to tell three situations apart without string
//! inspection: a request that was *rejected at the door* (admission),
//! one that was *malformed or unauthorized* (validation), and one that
//! *failed while executing* (farm/backend faults). [`ServiceError`]
//! wraps every lower layer with `From` impls and exposes a stable
//! [`ServiceError::kind`] discriminant for exactly that match.

use core::fmt;

use cofhee_farm::FarmError;

use crate::handle::CtHandle;

/// Why a request was denied at validation (the `Denied` admission
/// outcome carries one of these).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DenyReason {
    /// The tenant id was never registered with this gateway.
    UnknownTenant,
    /// An operand handle does not exist in the registry.
    UnknownHandle(CtHandle),
    /// An operand exists but the submitting tenant may not read it
    /// (not the owner, not shared with it, not public).
    NotAuthorized(CtHandle),
    /// An operand was registered under a different parameter set
    /// (modulus/degree) than the tenant's session.
    ParamsMismatch(CtHandle),
    /// A `MulRelin` request under a session that never uploaded
    /// relinearization material.
    MissingRelinKey,
    /// An inline plaintext operand uses a different plaintext modulus
    /// than the tenant's session.
    PlaintextModulusMismatch,
    /// The request's scheme (BFV vs CKKS) does not match the tenant's
    /// session scheme.
    SchemeMismatch,
    /// The gateway stopped admitting after an execution fault (fail
    /// closed); the fault surfaces from the next `drain` call.
    Faulted,
}

impl fmt::Display for DenyReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTenant => write!(f, "tenant is not registered"),
            Self::UnknownHandle(h) => write!(f, "{h} does not exist"),
            Self::NotAuthorized(h) => write!(f, "{h} is not readable by the submitting tenant"),
            Self::ParamsMismatch(h) => write!(f, "{h} belongs to a different parameter set"),
            Self::MissingRelinKey => write!(f, "session has no relinearization key"),
            Self::PlaintextModulusMismatch => {
                write!(f, "inline plaintext uses a different plaintext modulus")
            }
            Self::SchemeMismatch => {
                write!(f, "request scheme does not match the tenant's session scheme")
            }
            Self::Faulted => write!(f, "gateway is faulted and no longer admits requests"),
        }
    }
}

/// Which per-tenant quota a rejected request would have exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaKind {
    /// Unfinished requests (queued plus dispatched).
    InFlightJobs,
    /// Registry bytes owned by the tenant, counting the reservation the
    /// request's result would add.
    RegistryBytes,
}

impl fmt::Display for QuotaKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InFlightJobs => write!(f, "in-flight jobs"),
            Self::RegistryBytes => write!(f, "registry bytes"),
        }
    }
}

/// Why [`Gateway::submit`](crate::Gateway::submit) rejected a request.
///
/// Rejections are *cheap and harmless*: a rejected request never
/// reserves a handle, never touches the registry, and never reaches
/// the farm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdmitError {
    /// Admitting would exceed one of the tenant's quotas.
    QuotaExceeded {
        /// The exceeded quota.
        quota: QuotaKind,
        /// The configured limit.
        limit: u64,
        /// What admission would have brought usage to.
        requested: u64,
    },
    /// The tenant's bounded request queue is full (reject-newest
    /// backpressure).
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// The request failed validation.
    Denied {
        /// What was wrong with it.
        reason: DenyReason,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QuotaExceeded { quota, limit, requested } => {
                write!(f, "quota exceeded: {quota} limit {limit}, admission would use {requested}")
            }
            Self::QueueFull { capacity } => {
                write!(f, "tenant queue is full ({capacity} requests)")
            }
            Self::Denied { reason } => write!(f, "denied: {reason}"),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Stable discriminant over everything the service layer can fail
/// with: match on this instead of inspecting error strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// Rejected at the door by quotas or backpressure — retry later.
    Admission,
    /// The request itself was malformed or unauthorized — retrying the
    /// same request can never succeed.
    Validation,
    /// Admitted but failed while executing (farm, backend, or BFV
    /// fault).
    Execution,
    /// The referenced ticket, handle, or result does not exist or is
    /// not ready yet.
    NotFound,
}

/// Errors raised by the service front-end.
///
/// Wraps [`AdmitError`] and [`FarmError`] — the admission path and the
/// farm (whose errors carry any scheme or backend fault) — with `From`
/// impls so both propagate with `?`, and classifies each variant under
/// a stable [`ErrorKind`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServiceError {
    /// A rejection from the admission path.
    Admit(AdmitError),
    /// A ticket id this gateway never issued.
    UnknownTicket {
        /// The offending ticket id.
        ticket: u64,
    },
    /// The handle's producing request has not finished at the current
    /// virtual cycle, or the farm has not computed it yet — drain
    /// before downloading.
    ResultPending {
        /// The not-yet-materialized handle.
        handle: CtHandle,
    },
    /// The handle holds a ciphertext of the other scheme — use the
    /// matching download accessor (`download` vs `download_ckks`).
    WrongScheme {
        /// The handle whose stored scheme differs from the accessor.
        handle: CtHandle,
    },
    /// Error from the farm layer (scheduling, die faults).
    Farm(FarmError),
}

impl ServiceError {
    /// The stable classification callers match on: admission vs
    /// validation vs execution vs not-found.
    pub fn kind(&self) -> ErrorKind {
        match self {
            Self::Admit(AdmitError::QuotaExceeded { .. } | AdmitError::QueueFull { .. }) => {
                ErrorKind::Admission
            }
            Self::Admit(AdmitError::Denied { .. }) | Self::WrongScheme { .. } => {
                ErrorKind::Validation
            }
            Self::UnknownTicket { .. } | Self::ResultPending { .. } => ErrorKind::NotFound,
            Self::Farm(_) => ErrorKind::Execution,
        }
    }
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Admit(e) => write!(f, "admission: {e}"),
            Self::UnknownTicket { ticket } => write!(f, "ticket {ticket} was never issued"),
            Self::ResultPending { handle } => {
                write!(f, "{handle} has not materialized yet — drain the gateway further")
            }
            Self::WrongScheme { handle } => {
                write!(f, "{handle} stores a ciphertext of the other scheme")
            }
            Self::Farm(e) => write!(f, "farm error: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Admit(e) => Some(e),
            Self::Farm(e) => Some(e),
            _ => None,
        }
    }
}

impl From<AdmitError> for ServiceError {
    fn from(e: AdmitError) -> Self {
        Self::Admit(e)
    }
}

impl From<FarmError> for ServiceError {
    fn from(e: FarmError) -> Self {
        Self::Farm(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = core::result::Result<T, ServiceError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_separate_admission_validation_execution_and_not_found() {
        let quota = ServiceError::from(AdmitError::QuotaExceeded {
            quota: QuotaKind::InFlightJobs,
            limit: 4,
            requested: 5,
        });
        let queue = ServiceError::from(AdmitError::QueueFull { capacity: 8 });
        let denied = ServiceError::from(AdmitError::Denied { reason: DenyReason::UnknownTenant });
        let exec = ServiceError::from(FarmError::EmptyFarm);
        let missing = ServiceError::UnknownTicket { ticket: 3 };
        let pending = ServiceError::ResultPending { handle: CtHandle::new(1) };
        assert_eq!(quota.kind(), ErrorKind::Admission);
        assert_eq!(queue.kind(), ErrorKind::Admission);
        assert_eq!(denied.kind(), ErrorKind::Validation);
        assert_eq!(exec.kind(), ErrorKind::Execution);
        assert_eq!(missing.kind(), ErrorKind::NotFound);
        assert_eq!(pending.kind(), ErrorKind::NotFound);
    }

    #[test]
    fn sources_chain_and_displays_are_informative() {
        use std::error::Error;
        let e = ServiceError::from(FarmError::UnknownSession { id: 9 });
        assert!(e.source().is_some());
        assert!(e.to_string().contains('9'));
        let d = AdmitError::Denied { reason: DenyReason::NotAuthorized(CtHandle::new(12)) };
        assert!(d.to_string().contains("ct#12"), "{d}");
        let q = AdmitError::QuotaExceeded {
            quota: QuotaKind::RegistryBytes,
            limit: 1024,
            requested: 2048,
        };
        assert!(q.to_string().contains("1024"), "{q}");
    }
}
