//! Error types for the driver layer.

use core::fmt;

use cofhee_arith::ArithError;
use cofhee_poly::PolyError;
use cofhee_sim::SimError;

/// Errors raised by the CoFHEE driver.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// The requested degree does not match the device bring-up.
    DegreeMismatch {
        /// Degree the device was brought up with.
        device: usize,
        /// Degree the operation requested.
        requested: usize,
    },
    /// An input polynomial had the wrong number of coefficients.
    BadOperandLength {
        /// Expected length.
        expected: usize,
        /// Provided length.
        found: usize,
    },
    /// A backend was handed a foreign or already-freed polynomial handle.
    BadHandle {
        /// The offending handle id.
        id: u64,
    },
    /// A recorded stream needs more simultaneously live polynomials than
    /// the chip's SRAM banks can hold; split the stream or reduce `n`.
    SlotsExhausted {
        /// Live polynomials the stream needed at its peak.
        live: usize,
        /// On-chip polynomial slots available to the scheduler.
        slots: usize,
    },
    /// A stream ran before one of its deferred uploads was filled.
    UnfilledUpload,
    /// Error from the chip simulator.
    Sim(SimError),
    /// Error from the polynomial layer.
    Poly(PolyError),
    /// Error from the arithmetic layer.
    Arith(ArithError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DegreeMismatch { device, requested } => {
                write!(f, "device is configured for n = {device}, operation needs {requested}")
            }
            Self::BadOperandLength { expected, found } => {
                write!(f, "operand has {found} coefficients, expected {expected}")
            }
            Self::BadHandle { id } => {
                write!(f, "polynomial handle {id} is foreign to this backend or already freed")
            }
            Self::SlotsExhausted { live, slots } => {
                write!(
                    f,
                    "stream needs {live} live polynomials but the banks hold {slots} slots; \
                     split the stream or reduce n"
                )
            }
            Self::UnfilledUpload => write!(f, "a deferred upload ran before it was filled"),
            Self::Sim(e) => write!(f, "chip error: {e}"),
            Self::Poly(e) => write!(f, "polynomial error: {e}"),
            Self::Arith(e) => write!(f, "arithmetic error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Sim(e) => Some(e),
            Self::Poly(e) => Some(e),
            Self::Arith(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<PolyError> for CoreError {
    fn from(e: PolyError) -> Self {
        Self::Poly(e)
    }
}

impl From<ArithError> for CoreError {
    fn from(e: ArithError) -> Self {
        Self::Arith(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = core::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error;
        let e = CoreError::DegreeMismatch { device: 8192, requested: 4096 };
        assert!(e.to_string().contains("8192"));
        let e = CoreError::from(SimError::FifoFull { capacity: 32 });
        assert!(e.source().is_some());
    }
}
