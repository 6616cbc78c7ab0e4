//! Error types of the ScratchPipe runtime.

use std::fmt;

/// Errors produced by scratchpad management and the pipeline runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScratchError {
    /// The Plan stage needed a victim but every slot is held by the
    /// sliding window. Per paper §VI-D the scratchpad must be provisioned
    /// for the worst-case working set of the concurrent mini-batches; this
    /// error reports a violation of that provisioning rule.
    CapacityExhausted {
        /// Table whose scratchpad ran out of evictable slots.
        table: usize,
        /// Plan cycle at which the exhaustion occurred.
        cycle: u64,
        /// Configured slot count of the table's scratchpad.
        slots: usize,
    },
    /// A hazard check failed — the pipeline was about to perform an access
    /// ordering that would corrupt training (only reachable when the
    /// sliding window is mis-configured, e.g. in the negative tests).
    HazardViolation {
        /// Human-readable description of the violated invariant.
        detail: String,
    },
    /// Configuration rejected at construction.
    InvalidConfig {
        /// What was wrong.
        detail: String,
    },
    /// A fault deliberately injected by an active
    /// [`FaultPlan`](crate::faults::FaultPlan) — never produced by real
    /// pipeline logic.
    Injected {
        /// Iteration the fault fired at.
        iteration: usize,
        /// Stage the fault fired in.
        stage: String,
    },
    /// A worker task panicked inside [`WorkerPool::run_tasks`]
    /// (caught via `catch_unwind` and converted, so one bad shard cannot
    /// poison the whole scope).
    ///
    /// [`WorkerPool::run_tasks`]: crate::workers::WorkerPool::run_tasks
    WorkerPanic {
        /// Submission-order index of the panicking task.
        task: usize,
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// A supervised run exhausted its retry budget on every rung of the
    /// degradation ladder. Carries the full fault provenance; the tables
    /// are left at the last committed iteration.
    Aborted {
        /// First iteration that could not be committed.
        iteration: usize,
        /// Total attempts spent on that iteration across all rungs.
        attempts: u32,
        /// Name of the schedule rung of the final attempt.
        schedule: String,
        /// The error of the final failed attempt.
        cause: Box<ScratchError>,
    },
}

impl fmt::Display for ScratchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScratchError::CapacityExhausted { table, cycle, slots } => write!(
                f,
                "scratchpad of table {table} exhausted at plan cycle {cycle}: all {slots} slots held by the sliding window"
            ),
            ScratchError::HazardViolation { detail } => {
                write!(f, "pipeline hazard violation: {detail}")
            }
            ScratchError::InvalidConfig { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
            ScratchError::Injected { iteration, stage } => {
                write!(f, "injected fault at iteration {iteration}, stage {stage}")
            }
            ScratchError::WorkerPanic { task, detail } => {
                write!(f, "worker task {task} panicked: {detail}")
            }
            ScratchError::Aborted {
                iteration,
                attempts,
                schedule,
                cause,
            } => write!(
                f,
                "supervised run aborted at iteration {iteration} after {attempts} attempts \
                 (final schedule {schedule}): {cause}"
            ),
        }
    }
}

impl std::error::Error for ScratchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = ScratchError::CapacityExhausted {
            table: 3,
            cycle: 17,
            slots: 128,
        };
        let s = e.to_string();
        assert!(s.contains("table 3") && s.contains("cycle 17") && s.contains("128"));

        let e = ScratchError::HazardViolation {
            detail: "stale read".to_owned(),
        };
        assert!(e.to_string().contains("stale read"));

        let e = ScratchError::InvalidConfig {
            detail: "zero slots".to_owned(),
        };
        assert!(e.to_string().contains("zero slots"));
    }

    #[test]
    fn error_trait_is_implemented() {
        fn takes_error<E: std::error::Error>(_: E) {}
        takes_error(ScratchError::InvalidConfig {
            detail: String::new(),
        });
    }
}
