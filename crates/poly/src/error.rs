//! Error types for the polynomial substrate.

use core::fmt;

use cofhee_arith::ArithError;

/// Errors produced by the polynomial substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PolyError {
    /// Two polynomials had different degrees.
    DegreeMismatch {
        /// Degree of the left operand.
        left: usize,
        /// Degree of the right operand.
        right: usize,
    },
    /// A coefficient buffer had the wrong length.
    LengthMismatch {
        /// Expected number of coefficients.
        expected: usize,
        /// Number provided.
        found: usize,
    },
    /// An element handed over as already reduced was not in `[0, q)`.
    NonCanonical {
        /// Index of the first offending element.
        index: usize,
        /// The modulus it should have been below.
        modulus: u128,
    },
    /// An error bubbled up from the arithmetic substrate.
    Arith(ArithError),
}

impl fmt::Display for PolyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DegreeMismatch { left, right } => {
                write!(f, "polynomial degree mismatch: {left} vs {right}")
            }
            Self::LengthMismatch { expected, found } => {
                write!(f, "coefficient length mismatch: expected {expected}, found {found}")
            }
            Self::NonCanonical { index, modulus } => {
                write!(f, "element {index} is not reduced modulo {modulus}")
            }
            Self::Arith(e) => write!(f, "arithmetic error: {e}"),
        }
    }
}

impl std::error::Error for PolyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Arith(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ArithError> for PolyError {
    fn from(e: ArithError) -> Self {
        Self::Arith(e)
    }
}

/// Convenience alias used across the crate.
pub type Result<T> = core::result::Result<T, PolyError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = PolyError::DegreeMismatch { left: 4, right: 8 };
        assert!(e.to_string().contains("4 vs 8"));
        let e = PolyError::from(ArithError::InvalidDegree { n: 3 });
        assert!(e.to_string().contains("arithmetic error"));
    }

    #[test]
    fn source_chains_to_arith() {
        use std::error::Error;
        let e = PolyError::from(ArithError::NotInvertible { value: 0 });
        assert!(e.source().is_some());
        let e2 = PolyError::LengthMismatch { expected: 1, found: 2 };
        assert!(e2.source().is_none());
    }
}
