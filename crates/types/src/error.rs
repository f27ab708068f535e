//! Typed errors for the simulation core.
//!
//! Large design-space sweeps run thousands of configurations; one
//! malformed config or one livelocked machine must fail *fast* with a
//! diagnostic instead of aborting or hanging the whole sweep. Every
//! fallible constructor and the run loop itself therefore report a
//! [`SimError`] instead of panicking.

use std::fmt;

/// Machine state captured when the forward-progress watchdog fires.
///
/// All fields are plain data so the diagnostic can cross crate
/// boundaries (the ROB, MSHRs and walker live in different crates).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeadlockDiag {
    /// Core cycle at which the watchdog fired.
    pub cycle: u64,
    /// Last cycle at which an instruction made forward progress.
    pub last_progress_cycle: u64,
    /// Instructions dispatched before the machine stopped progressing.
    pub instructions: u64,
    /// ROB occupancy (entries) when the watchdog fired.
    pub rob_occupancy: usize,
    /// Human-readable description of the ROB-head instruction.
    pub rob_head: String,
    /// Outstanding MSHR entries at `(L1D, L2C, LLC)`.
    pub mshr_outstanding: [usize; 3],
    /// Page walks completed before the stall.
    pub walks_completed: u64,
}

impl fmt::Display for DeadlockDiag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no retirement between cycle {} and cycle {} ({} instructions in); \
             ROB holds {} entries (head: {}); MSHR outstanding L1D={} L2C={} LLC={}; \
             {} walks completed",
            self.last_progress_cycle,
            self.cycle,
            self.instructions,
            self.rob_occupancy,
            self.rob_head,
            self.mshr_outstanding[0],
            self.mshr_outstanding[1],
            self.mshr_outstanding[2],
            self.walks_completed,
        )
    }
}

/// An error raised by the simulation core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A configuration failed validation (bad geometry, zero capacity…).
    Config(String),
    /// A page walk touched a page-table path that does not exist.
    Walk {
        /// The virtual page number whose walk failed.
        vpn: u64,
        /// Numeric page-table level (1 = leaf … 5 = root) that was
        /// missing.
        level: u8,
    },
    /// The forward-progress watchdog fired: no instruction retired for
    /// the configured number of cycles.
    Deadlock(Box<DeadlockDiag>),
    /// A workload could not be built or replayed.
    Workload(String),
    /// The run was cancelled through a
    /// [`CancelToken`](crate::cancel::CancelToken) — typically a sweep
    /// scheduler's per-job deadline. Carries the instructions retired
    /// before the loop wound down; partial statistics ride in the
    /// surrounding failure the same way deadlock diagnostics do.
    Cancelled {
        /// Instructions retired before the cancellation was observed.
        instructions: u64,
    },
}

impl SimError {
    /// Build a [`SimError::Config`] from a message.
    pub fn config(msg: impl Into<String>) -> Self {
        SimError::Config(msg.into())
    }

    /// Build a [`SimError::Workload`] from a message.
    pub fn workload(msg: impl Into<String>) -> Self {
        SimError::Workload(msg.into())
    }

    /// True if this is a deadlock report.
    pub fn is_deadlock(&self) -> bool {
        matches!(self, SimError::Deadlock(_))
    }

    /// True if this run was cancelled through a `CancelToken`.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, SimError::Cancelled { .. })
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Walk { vpn, level } => write!(
                f,
                "page-table path missing at level {level} while walking vpn {vpn:#x} \
                 (page was never mapped)"
            ),
            SimError::Deadlock(diag) => write!(f, "simulation deadlock: {diag}"),
            SimError::Workload(msg) => write!(f, "workload error: {msg}"),
            SimError::Cancelled { instructions } => write!(
                f,
                "run cancelled after {instructions} instructions (deadline or shutdown)"
            ),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_cause() {
        let e = SimError::config("ways must be non-zero");
        assert!(e.to_string().contains("ways must be non-zero"));
        let w = SimError::Walk {
            vpn: 0x42,
            level: 1,
        };
        assert!(w.to_string().contains("level 1"));
        assert!(w.to_string().contains("0x42"));
    }

    #[test]
    fn deadlock_diag_renders_all_fields() {
        let d = DeadlockDiag {
            cycle: 2_000_100,
            last_progress_cycle: 100,
            instructions: 352,
            rob_occupancy: 352,
            rob_head: "load".to_string(),
            mshr_outstanding: [1, 2, 3],
            walks_completed: 9,
        };
        let e = SimError::Deadlock(Box::new(d));
        assert!(e.is_deadlock());
        let s = e.to_string();
        for needle in ["2000100", "352", "L1D=1", "L2C=2", "LLC=3", "9 walks"] {
            assert!(s.contains(needle), "missing {needle:?} in {s}");
        }
    }

    #[test]
    fn errors_are_cloneable_and_comparable() {
        let a = SimError::workload("trace truncated");
        assert_eq!(a.clone(), a);
        assert!(!a.is_deadlock());
    }

    #[test]
    fn cancelled_reports_progress_and_is_not_a_deadlock() {
        let e = SimError::Cancelled { instructions: 123 };
        assert!(e.is_cancelled());
        assert!(!e.is_deadlock());
        assert!(e.to_string().contains("123 instructions"), "{e}");
    }
}
