//! Open-arrivals service accounting: the admission queue's byte budget
//! and the exact counters the overload-control contract promises.
//!
//! The contract mirrors the telemetry ring: a bounded structure (the
//! admission queue) with an explicit byte budget
//! ([`DEFAULT_QUEUE_BUDGET_BYTES`]), and *exact* counters for everything
//! the bound caused — shed arrivals, deferred arrivals, deadline drops,
//! saturated windows. Under any offered load the identity
//! `generated == admitted + shed + deficit` holds window by window, so a
//! sweep can assert loss accounting to the last job.

use crate::state::JobSlabs;
use linger_stats::BatchMeans;
use serde::{Deserialize, Serialize};

/// Default admission-queue byte budget (64 MiB of job rows).
pub const DEFAULT_QUEUE_BUDGET_BYTES: usize = 64 << 20;

/// Windows per throughput batch for the steady-state batch-means
/// estimator (128 windows = 256 simulated seconds per batch).
pub const THROUGHPUT_BATCH_WINDOWS: usize = 128;

/// Completions per latency batch for the batch-means estimator.
pub const LATENCY_BATCH_JOBS: usize = 64;

/// Effective admission-queue capacity in entries: the configured entry
/// capacity clamped by the byte budget divided by the per-job row cost.
pub fn effective_queue_capacity(configured: usize, budget_bytes: usize) -> usize {
    configured.min((budget_bytes / JobSlabs::job_row_bytes()).max(1))
}

/// Exact service-mode counters plus the steady-state estimators.
///
/// All counters are window-ordered deterministic tallies — byte-identical
/// across worker counts and shard plans, like every other simulator
/// output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Arrivals the process offered over the run.
    pub generated: u64,
    /// Arrivals admitted into the queue (includes drained deficit).
    pub admitted: u64,
    /// Arrivals dropped at a full queue (shed / deadline policies).
    pub shed: u64,
    /// Arrival deferral events charged to backpressure (each arrival
    /// counts once when it is first deferred).
    pub deferred: u64,
    /// Arrivals currently blocked upstream (backpressure deficit).
    pub deficit: u64,
    /// Largest deficit ever reached.
    pub peak_deficit: u64,
    /// Queued jobs dropped for exceeding the deadline.
    pub deadline_dropped: u64,
    /// Windows in which admission hit the capacity limit.
    pub saturated_windows: u64,
    /// Largest admission-queue depth observed at a window boundary.
    pub peak_queue_depth: usize,
    /// Largest live job-slab row count observed at a window boundary
    /// (the flat-memory witness: bounded capacity ⇒ bounded rows).
    pub peak_live_rows: usize,
    /// Effective queue capacity in entries (`usize::MAX` = unbounded).
    pub queue_capacity: usize,
    /// The byte budget the capacity was clamped under.
    pub queue_budget_bytes: usize,
    /// Per-window completed-job counts, batch-means aggregated.
    pub throughput: BatchMeans,
    /// Completion latency (seconds), batch-means aggregated.
    pub latency: BatchMeans,
}

impl ServiceStats {
    /// Fresh counters for a run under the given effective capacity.
    pub fn new(queue_capacity: usize, queue_budget_bytes: usize) -> Self {
        ServiceStats {
            generated: 0,
            admitted: 0,
            shed: 0,
            deferred: 0,
            deficit: 0,
            peak_deficit: 0,
            deadline_dropped: 0,
            saturated_windows: 0,
            peak_queue_depth: 0,
            peak_live_rows: 0,
            queue_capacity,
            queue_budget_bytes,
            throughput: BatchMeans::new(THROUGHPUT_BATCH_WINDOWS),
            latency: BatchMeans::new(LATENCY_BATCH_JOBS),
        }
    }

    /// The loss-accounting identity every window must preserve.
    pub fn accounting_holds(&self) -> bool {
        self.generated == self.admitted + self.shed + self.deficit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_clamps_to_budget() {
        let row = JobSlabs::job_row_bytes();
        // Budget for exactly 10 rows.
        assert_eq!(effective_queue_capacity(1000, 10 * row), 10);
        // Configured capacity below the budget wins.
        assert_eq!(effective_queue_capacity(4, 10 * row), 4);
        // A degenerate budget still admits one entry.
        assert_eq!(effective_queue_capacity(1000, 0), 1);
    }

    #[test]
    fn fresh_stats_account() {
        let s = ServiceStats::new(64, DEFAULT_QUEUE_BUDGET_BYTES);
        assert!(s.accounting_holds());
        assert_eq!(s.queue_capacity, 64);
        assert_eq!(s.throughput.batches(), 0);
    }
}
