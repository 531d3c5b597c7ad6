//! Error type shared across the PGM substrate.

use crate::var::Var;
use std::fmt;

/// Errors raised when constructing or manipulating models and potentials.
#[derive(Debug, Clone, PartialEq)]
pub enum PgmError {
    /// A variable index referenced a domain entry that does not exist.
    UnknownVar(Var),
    /// A variable name lookup failed.
    UnknownName(String),
    /// A cardinality of zero (or otherwise invalid) was supplied.
    InvalidCardinality { var: Var, card: u32 },
    /// Two potentials disagree on the cardinality of a shared variable.
    CardinalityMismatch { var: Var, left: u32, right: u32 },
    /// An operation required `sub` to be contained in `sup`.
    ScopeNotContained { sub: String, sup: String },
    /// The requested table would exceed the dense-materialization limit.
    TableTooLarge { entries: u64, limit: u64 },
    /// A CPT row does not sum to one.
    UnnormalizedCpt { var: Var, row: usize, sum: f64 },
    /// Adding an edge would create a directed cycle.
    CycleDetected,
    /// A CPT has the wrong scope (must be {var} ∪ parents).
    BadCptScope { var: Var },
    /// The network has no variables.
    EmptyNetwork,
    /// Generator was asked for an impossible configuration.
    InfeasibleGenerator(String),
    /// A value assignment was out of range for the variable's cardinality.
    ValueOutOfRange { var: Var, value: u32, card: u32 },
    /// Evidence of probability zero under the model — a zero-probability
    /// assignment, or two values for one variable: no distribution is
    /// conditioned on it.
    ImpossibleEvidence(Vec<(Var, u32)>),
    /// A serving request named a tenant no shard is registered for.
    UnknownTenant(u32),
    /// A tenant id was registered twice with a sharded engine.
    DuplicateTenant(u32),
    /// A numeric answer was asked of an engine, query plan or
    /// materialization that carries no tables (symbolic, size-only mode).
    SymbolicEngine,
    /// A set of tree nodes offered as a shortcut's subtree — cliques to
    /// build one over, or reduced-tree nodes to replace by one — is not a
    /// non-empty connected region of the tree.
    InvalidRegion {
        /// What is wrong with the region.
        detail: String,
    },
    /// A variable-elimination plan read a table its run does not hold: a
    /// step's table a second time, or one no earlier step made.
    InvalidPlan {
        /// Which read failed.
        detail: String,
    },
    /// An I/O failure while reading or writing a materialization-store
    /// file (open, read, write, sync).
    StoreIo {
        /// Path of the store file involved.
        path: String,
        /// The underlying I/O error, rendered.
        msg: String,
    },
    /// A materialization-store file failed validation: bad magic, a
    /// checksum mismatch, a truncated section, or a shape that does not
    /// match the tree it is being attached to. Never unsafe, never a
    /// silent wrong answer — the load fails loudly instead.
    CorruptStore {
        /// Path of the store file (or a caller-supplied context label).
        path: String,
        /// What exactly failed to validate.
        detail: String,
    },
    /// A materialization-store file carries a format version this build
    /// does not understand.
    StoreVersion {
        /// Version stamped in the file header.
        found: u64,
        /// Version this build reads and writes.
        expected: u64,
    },
}

impl fmt::Display for PgmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PgmError::UnknownVar(v) => write!(f, "unknown variable {v}"),
            PgmError::UnknownName(n) => write!(f, "unknown variable name {n:?}"),
            PgmError::InvalidCardinality { var, card } => {
                write!(f, "invalid cardinality {card} for {var}")
            }
            PgmError::CardinalityMismatch { var, left, right } => {
                write!(f, "cardinality mismatch for {var}: {left} vs {right}")
            }
            PgmError::ScopeNotContained { sub, sup } => {
                write!(f, "scope {sub} is not contained in {sup}")
            }
            PgmError::TableTooLarge { entries, limit } => {
                write!(f, "table with {entries} entries exceeds limit {limit}")
            }
            PgmError::UnnormalizedCpt { var, row, sum } => {
                write!(f, "CPT for {var} row {row} sums to {sum}, expected 1")
            }
            PgmError::CycleDetected => write!(f, "edge insertion would create a cycle"),
            PgmError::BadCptScope { var } => {
                write!(f, "CPT scope for {var} must equal {{var}} ∪ parents")
            }
            PgmError::EmptyNetwork => write!(f, "network has no variables"),
            PgmError::InfeasibleGenerator(msg) => write!(f, "infeasible generator config: {msg}"),
            PgmError::ValueOutOfRange { var, value, card } => {
                write!(
                    f,
                    "value {value} out of range for {var} with cardinality {card}"
                )
            }
            PgmError::ImpossibleEvidence(evidence) => {
                write!(f, "evidence {evidence:?} has probability zero")
            }
            PgmError::UnknownTenant(t) => write!(f, "no shard registered for tenant {t}"),
            PgmError::DuplicateTenant(t) => write!(f, "tenant {t} is already registered"),
            PgmError::SymbolicEngine => {
                write!(f, "numeric answer requested in symbolic (size-only) mode")
            }
            PgmError::InvalidRegion { detail } => {
                write!(f, "invalid replacement region: {detail}")
            }
            PgmError::InvalidPlan { detail } => {
                write!(f, "invalid elimination plan: {detail}")
            }
            PgmError::StoreIo { path, msg } => {
                write!(f, "store I/O failure on {path}: {msg}")
            }
            PgmError::CorruptStore { path, detail } => {
                write!(f, "corrupt store file {path}: {detail}")
            }
            PgmError::StoreVersion { found, expected } => {
                write!(
                    f,
                    "store format version {found} is not the supported version {expected}"
                )
            }
        }
    }
}

impl std::error::Error for PgmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_meaningfully() {
        let e = PgmError::CardinalityMismatch {
            var: Var(2),
            left: 2,
            right: 3,
        };
        assert!(e.to_string().contains("x2"));
        assert!(e.to_string().contains("2 vs 3"));
        let e = PgmError::TableTooLarge {
            entries: 100,
            limit: 10,
        };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn store_errors_display_meaningfully() {
        let e = PgmError::StoreIo {
            path: "/tmp/t0-e1.pnut".into(),
            msg: "No such file or directory".into(),
        };
        assert!(e.to_string().contains("/tmp/t0-e1.pnut"));
        let e = PgmError::CorruptStore {
            path: "epoch.pnut".into(),
            detail: "checksum mismatch".into(),
        };
        assert!(e.to_string().contains("checksum mismatch"));
        let e = PgmError::StoreVersion {
            found: 9,
            expected: 1,
        };
        assert!(e.to_string().contains('9'));
        assert!(e.to_string().contains('1'));
    }

    #[test]
    fn mode_and_region_errors_say_what_happened() {
        assert!(PgmError::SymbolicEngine.to_string().contains("symbolic"));
        let e = PgmError::InvalidRegion {
            detail: "not connected: 2 tops".into(),
        };
        assert!(e.to_string().contains("region"));
        assert!(e.to_string().contains("2 tops"));
        let e = PgmError::InvalidPlan {
            detail: "step 3 read twice".into(),
        };
        assert!(e.to_string().contains("elimination plan"));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&PgmError::CycleDetected);
    }
}
