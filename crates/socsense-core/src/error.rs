//! Error type for the core estimator and bound computations.

use std::error::Error;
use std::fmt;

/// Errors produced by model construction, estimation, and bound
/// computation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SenseError {
    /// A probability parameter fell outside `[0, 1]` or was not finite.
    InvalidProbability {
        /// Parameter name (`"a"`, `"z"`, ...).
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Two jointly-used structures disagree on a dimension.
    DimensionMismatch {
        /// What disagreed.
        what: &'static str,
        /// Expected extent.
        expected: usize,
        /// Actual extent.
        actual: usize,
    },
    /// A computation requires at least one source / assertion.
    EmptyData,
    /// The exact bound was requested for more sources than the exponential
    /// enumeration supports; use the Gibbs approximation instead.
    TooManySources {
        /// Requested source count.
        n: usize,
        /// Maximum supported by the exact enumeration.
        max: usize,
    },
    /// A configuration value was outside its valid range.
    BadConfig {
        /// Description of the violated constraint.
        what: &'static str,
    },
}

impl fmt::Display for SenseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SenseError::InvalidProbability { name, value } => {
                write!(f, "parameter {name} = {value} is not a probability")
            }
            SenseError::DimensionMismatch {
                what,
                expected,
                actual,
            } => write!(f, "{what}: expected {expected}, got {actual}"),
            SenseError::EmptyData => write!(f, "input data is empty"),
            SenseError::TooManySources { n, max } => write!(
                f,
                "exact bound over {n} sources exceeds the enumeration limit of {max}; use the Gibbs approximation"
            ),
            SenseError::BadConfig { what } => write!(f, "invalid configuration: {what}"),
        }
    }
}

impl Error for SenseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_chain() {
        let e = SenseError::TooManySources { n: 40, max: 30 };
        assert!(e.to_string().contains("40"));
        // Every variant is a leaf: no error wraps another.
        assert!(e.source().is_none());
        let e = SenseError::BadConfig { what: "tol" };
        assert!(e.to_string().contains("tol"));
    }
}
