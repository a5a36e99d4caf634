//! `linger-telemetry`: deterministic observability for the linger
//! simulators.
//!
//! The contract, enforced by the simulators' tests: telemetry reads
//! simulation state but never mutates it, draws no random numbers, and
//! records only *simulated* time — so every figure is byte-identical
//! with telemetry off, on, at any `--jobs`. The disabled path is one
//! `Option` branch per emission site ([`Recorder::record`] takes a
//! closure that never runs), and the enabled path is memory-bounded by
//! the journal's ring capacity.
//!
//! * [`event`] — the typed event vocabulary (windows, decisions with
//!   their cost-model inputs, migrations, faults, completions).
//! * [`journal`] — the bounded ring journal, the [`Sink`] trait with
//!   its no-op default, JSON-lines spill/load, and [`Recorder`].
//! * [`metrics`] — the process-wide counter registry embedded in
//!   `BENCH_runall.json`, plus offline per-journal aggregation into
//!   counters, gauges, and `linger_stats` histograms.
//! * [`chrome`] — Chrome trace-event export (opens in Perfetto as a
//!   per-node timeline).
//! * [`inspect`] — run summaries and decision-level diffs between two
//!   journals.
//!
//! Environment: `LINGER_TELEMETRY=1` enables recording (into a ring of
//! [`DEFAULT_CAPACITY`] events per journal), and `LINGER_TELEMETRY_DIR`
//! makes the cluster simulator spill each run's journal there as JSON
//! lines.

#![warn(missing_docs)]

pub mod chrome;
pub mod event;
pub mod inspect;
pub mod journal;
pub mod metrics;

pub use chrome::chrome_trace;
pub use event::{DecisionAction, Event, EventKind};
pub use inspect::{diff, render_diff, render_summary, summarize, DiffReport, Divergence, JournalSummary};
pub use journal::{
    read_events_jsonl, write_events_jsonl, Journal, JournalCounts, NullSink, Recorder, Sink,
    DEFAULT_CAPACITY,
};
pub use metrics::{
    AdmissionTotals, Gauge, MetricsRegistry, PolicyCounts, StealTotals, TelemetrySummary,
};
