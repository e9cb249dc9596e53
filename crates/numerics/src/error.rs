use std::fmt;

/// Error type for every fallible operation in this crate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// Matrix/vector dimensions do not agree for the requested operation.
    DimensionMismatch {
        /// What the caller supplied.
        found: (usize, usize),
        /// What the operation required.
        expected: (usize, usize),
    },
    /// A factorization or solve encountered a (numerically) singular matrix.
    Singular {
        /// Pivot column at which elimination broke down.
        column: usize,
    },
    /// A sparse matrix is singular by structure alone: an empty row or
    /// column, or no structurally nonsingular row/column permutation
    /// exists. No value assignment can make such a matrix invertible.
    StructurallySingular {
        /// Row or column index implicated in the structural deficiency.
        index: usize,
    },
    /// An argument was out of the valid domain (empty grid, non-monotone
    /// abscissae, non-positive step, ...).
    InvalidArgument(&'static str),
    /// A computation produced a NaN or infinity where a finite value was
    /// required (diverging iteration, overflowing model evaluation, ...).
    NonFinite {
        /// Where the non-finite value appeared.
        context: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::DimensionMismatch { found, expected } => write!(
                f,
                "dimension mismatch: found {}x{}, expected {}x{}",
                found.0, found.1, expected.0, expected.1
            ),
            Error::Singular { column } => {
                write!(f, "matrix is singular at pivot column {column}")
            }
            Error::StructurallySingular { index } => {
                write!(f, "matrix is structurally singular at row/column {index}")
            }
            Error::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
            Error::NonFinite { context } => {
                write!(f, "non-finite value encountered in {context}")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::Singular { column: 3 };
        assert!(e.to_string().contains("column 3"));
        let e = Error::DimensionMismatch {
            found: (2, 3),
            expected: (3, 3),
        };
        assert!(e.to_string().contains("2x3"));
        assert!(Error::InvalidArgument("empty grid")
            .to_string()
            .contains("empty grid"));
        assert!(Error::NonFinite {
            context: "newton update"
        }
        .to_string()
        .contains("newton update"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
