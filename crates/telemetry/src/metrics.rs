//! Metrics: a process-wide registry the harness embeds in
//! `BENCH_runall.json`, and an offline aggregator that turns one
//! journal into counters, gauges, and fixed-bucket histograms.
//!
//! The global registry is fed by whole-journal `absorb` calls (one
//! mutex acquisition per finished simulation, never per event), keyed
//! by a caller-supplied label — the policy abbreviation for cluster
//! runs. Sums of counters are commutative, so the summary is identical
//! at any `--jobs` even though absorption order is not.

use crate::event::{DecisionAction, Event, EventKind};
use crate::journal::{Journal, JournalCounts, ACTION_SLOTS, KIND_NAMES, KIND_SLOTS};
use linger_stats::Histogram;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Aggregated counters for one label (policy) in the global registry.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PolicyCounts {
    /// Events recorded under this label.
    pub events: u64,
    /// Events dropped to ring-capacity bounds.
    pub dropped: u64,
    /// Decision totals by action name.
    pub decisions: BTreeMap<String, u64>,
}

/// Snapshot of the process-wide registry, embedded in
/// `BENCH_runall.json` when telemetry is on.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Total events recorded across every absorbed journal.
    pub events: u64,
    /// Events dropped to ring-capacity bounds.
    pub dropped: u64,
    /// Journals absorbed.
    pub journals: u64,
    /// Event totals by kind name.
    pub by_kind: BTreeMap<String, u64>,
    /// Per-label (policy) counters.
    pub policies: BTreeMap<String, PolicyCounts>,
}

#[derive(Default)]
struct RegistryState {
    journals: u64,
    by_kind: [u64; KIND_SLOTS],
    dropped: u64,
    events: u64,
    policies: BTreeMap<String, ([u64; ACTION_SLOTS], u64, u64)>,
}

/// The process-wide telemetry registry.
pub struct GlobalRegistry {
    state: Mutex<RegistryState>,
}

impl GlobalRegistry {
    fn lock(&self) -> std::sync::MutexGuard<'_, RegistryState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Merge one finished journal's exact counters under `label`.
    pub fn absorb(&self, label: &str, journal: &Journal) {
        self.absorb_counts(label, journal.counts());
    }

    /// Merge pre-extracted counters under `label`.
    pub fn absorb_counts(&self, label: &str, c: JournalCounts) {
        let mut st = self.lock();
        st.journals += 1;
        st.events += c.events;
        st.dropped += c.dropped;
        for (slot, n) in c.by_kind.iter().enumerate() {
            st.by_kind[slot] += n;
        }
        let entry = st.policies.entry(label.to_string()).or_default();
        for (slot, n) in c.decisions.iter().enumerate() {
            entry.0[slot] += n;
        }
        entry.1 += c.events;
        entry.2 += c.dropped;
    }

    /// Current totals.
    pub fn summary(&self) -> TelemetrySummary {
        let st = self.lock();
        let mut by_kind = BTreeMap::new();
        for (slot, n) in st.by_kind.iter().enumerate() {
            if *n > 0 {
                by_kind.insert(KIND_NAMES[slot].to_string(), *n);
            }
        }
        let mut policies = BTreeMap::new();
        for (label, (acts, events, dropped)) in &st.policies {
            let mut decisions = BTreeMap::new();
            for a in DecisionAction::ALL {
                let n = acts[a as usize];
                if n > 0 {
                    decisions.insert(a.name().to_string(), n);
                }
            }
            policies.insert(
                label.clone(),
                PolicyCounts { events: *events, dropped: *dropped, decisions },
            );
        }
        TelemetrySummary {
            events: st.events,
            dropped: st.dropped,
            journals: st.journals,
            by_kind,
            policies,
        }
    }

    /// Drop everything (tests and repeated harness phases).
    pub fn reset(&self) {
        *self.lock() = RegistryState::default();
    }
}

/// The shared registry instance.
pub fn global() -> &'static GlobalRegistry {
    static GLOBAL: OnceLock<GlobalRegistry> = OnceLock::new();
    GLOBAL.get_or_init(|| GlobalRegistry { state: Mutex::new(RegistryState::default()) })
}

/// Payload-level admission-control totals aggregated from the
/// open-arrivals event kinds (PR 9 vocabulary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AdmissionTotals {
    /// Arrivals the process offered (sum of `arrival_burst.offered`).
    pub offered: u64,
    /// Arrivals admitted into the queue (sum of `arrival_burst.admitted`).
    pub admitted: u64,
    /// Arrivals dropped at a full queue (sum of `admission_shed.count`).
    pub shed: u64,
    /// Arrivals newly deferred upstream (sum of `admission_defer.count`).
    pub deferred: u64,
    /// Largest upstream deficit observed (`admission_defer.deficit`).
    pub peak_deficit: u64,
    /// Queued jobs dropped past their deadline (`deadline_drop` events).
    pub deadline_drops: u64,
    /// Total time those dropped jobs had waited, seconds.
    pub deadline_wait_secs: f64,
}

impl AdmissionTotals {
    /// True when no admission-control event carried a payload.
    pub fn is_empty(&self) -> bool {
        self.offered == 0
            && self.admitted == 0
            && self.shed == 0
            && self.deferred == 0
            && self.deadline_drops == 0
    }
}

/// Payload-level work-stealing totals aggregated from the steal kinds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StealTotals {
    /// Probes sent (`steal_attempt` events; every probe ends in a hit
    /// or a miss, so `attempts == hits + misses`).
    pub attempts: u64,
    /// Probes that found stealable work (`steal_hit` events).
    pub hits: u64,
    /// Probes that found nothing (`steal_miss` events).
    pub misses: u64,
    /// Thieves that exhausted their probe budget (`steal_abandon`).
    pub abandons: u64,
    /// Jobs moved between deques (sum of `steal_hit.batch`).
    pub stolen_jobs: u64,
    /// Total round-trip latency charged to successful steals, seconds.
    pub delay_secs: f64,
}

impl StealTotals {
    /// True when no steal event was observed.
    pub fn is_empty(&self) -> bool {
        self.attempts == 0 && self.abandons == 0
    }
}

/// A last/max gauge over a per-window series.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Gauge {
    /// Most recent observation.
    pub last: f64,
    /// Largest observation.
    pub max: f64,
    /// Number of observations.
    pub samples: u64,
}

impl Gauge {
    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.last = v;
        if self.samples == 0 || v > self.max {
            self.max = v;
        }
        self.samples += 1;
    }
}

/// Default byte budget for [`MetricsRegistry`]'s keyed maps (16 MiB).
pub const DEFAULT_METRICS_BUDGET_BYTES: usize = 16 << 20;

/// Approximate resident cost of one keyed-map entry (key + count +
/// B-tree node overhead). Deliberately conservative: the budget is a
/// guarantee against unbounded growth, not an exact allocator model.
const MAP_ENTRY_BYTES: usize = 48;

/// Offline aggregation of one journal: counters per kind and per node,
/// per-window activity, queue-depth gauge, and fixed-bucket histograms
/// of the quantities that drive the figures.
///
/// The per-node and per-window maps are the registry's only state whose
/// size follows the *input* (fleet size × horizon) rather than the fixed
/// event vocabulary, so they carry an explicit byte budget mirroring the
/// telemetry ring contract: once `budget_bytes` of entries are resident,
/// *new* keys are dropped (and counted exactly in `dropped_keys`) while
/// already-tracked keys keep counting. [`MetricsRegistry::from_events`]
/// uses [`DEFAULT_METRICS_BUDGET_BYTES`] and
/// [`MetricsRegistry::from_events_with_budget`] takes any budget; the
/// histograms, kind/action counters, and scalar totals are
/// vocabulary-bounded and always exact.
pub struct MetricsRegistry {
    /// Event totals by kind name (resident events only).
    pub counters: BTreeMap<String, u64>,
    /// Decision totals by action name.
    pub decisions: BTreeMap<String, u64>,
    /// Events per node id.
    pub per_node: BTreeMap<u32, u64>,
    /// Number of `WindowStart` events seen.
    pub windows: u64,
    /// Highest window index observed.
    pub max_window: u32,
    /// Queue depth at each window boundary.
    pub queue_depth: Gauge,
    /// Linger-episode age (seconds) at each migrate decision.
    pub linger_age: Histogram,
    /// Host utilization read by each decision.
    pub decision_host_cpu: Histogram,
    /// Job completion times (seconds) from `Complete` events.
    pub completion_secs: Histogram,
    /// Events per window (activity histogram).
    pub events_per_window: Histogram,
    /// Sums of the per-state breakdown over completed jobs, seconds:
    /// `[queued, running, lingering, paused, migrating]`.
    pub breakdown_totals: [f64; 5],
    /// Completed jobs observed.
    pub completions: u64,
    /// Total migrations reported by completed jobs.
    pub migrations: u64,
    /// Admission-control aggregates from the open-arrivals kinds
    /// (`arrival_burst` / `admission_shed` / `admission_defer` /
    /// `deadline_drop` payloads, not just event counts).
    pub admission: AdmissionTotals,
    /// Work-stealing aggregates from the steal kinds
    /// (`steal_attempt` / `steal_hit` / `steal_miss` / `steal_abandon`).
    pub stealing: StealTotals,
    /// Byte budget the keyed maps were held under.
    pub budget_bytes: usize,
    /// Map keys dropped because admitting them would exceed the budget.
    pub dropped_keys: u64,
}

impl MetricsRegistry {
    /// Aggregate a (snapshot of a) journal under the default budget
    /// ([`DEFAULT_METRICS_BUDGET_BYTES`], 16 MiB).
    pub fn from_events(events: &[Event]) -> MetricsRegistry {
        Self::from_events_with_budget(events, DEFAULT_METRICS_BUDGET_BYTES)
    }

    /// Aggregate under an explicit keyed-map byte budget.
    pub fn from_events_with_budget(events: &[Event], budget_bytes: usize) -> MetricsRegistry {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut decisions: BTreeMap<String, u64> = BTreeMap::new();
        let mut per_node: BTreeMap<u32, u64> = BTreeMap::new();
        let mut per_window: BTreeMap<u32, u64> = BTreeMap::new();
        let mut windows = 0u64;
        let mut max_window = 0u32;
        let mut queue_depth = Gauge::default();
        let mut linger_age = Histogram::new(0.0, 120.0, 60);
        let mut decision_host_cpu = Histogram::new(0.0, 1.0, 20);
        let mut completion_secs = Histogram::new(0.0, 7200.0, 72);
        let mut breakdown_totals = [0.0f64; 5];
        let mut completions = 0u64;
        let mut migrations = 0u64;
        let mut admission = AdmissionTotals::default();
        let mut stealing = StealTotals::default();
        let max_entries = budget_bytes / MAP_ENTRY_BYTES;
        let mut dropped_keys = 0u64;
        for ev in events {
            *counters.entry(ev.kind.name().to_string()).or_default() += 1;
            if let Some(n) = ev.node {
                if let Some(c) = per_node.get_mut(&n) {
                    *c += 1;
                } else if per_node.len() + per_window.len() < max_entries {
                    per_node.insert(n, 1);
                } else {
                    dropped_keys += 1;
                }
            }
            if let Some(c) = per_window.get_mut(&ev.window) {
                *c += 1;
            } else if per_node.len() + per_window.len() < max_entries {
                per_window.insert(ev.window, 1);
            } else {
                dropped_keys += 1;
            }
            max_window = max_window.max(ev.window);
            match &ev.kind {
                EventKind::WindowStart { queue_depth: d } => {
                    windows += 1;
                    queue_depth.observe(*d as f64);
                }
                EventKind::Decision { action, host_cpu, age_secs, .. } => {
                    *decisions.entry(action.name().to_string()).or_default() += 1;
                    if let Some(h) = host_cpu {
                        decision_host_cpu.add(*h);
                    }
                    if *action == DecisionAction::Migrate {
                        if let Some(age) = age_secs {
                            linger_age.add(*age);
                        }
                    }
                }
                EventKind::Complete {
                    queued_secs,
                    running_secs,
                    lingering_secs,
                    paused_secs,
                    migrating_secs,
                    completion_secs: total,
                    migrations: m,
                } => {
                    completions += 1;
                    migrations += *m as u64;
                    completion_secs.add(*total);
                    breakdown_totals[0] += *queued_secs;
                    breakdown_totals[1] += *running_secs;
                    breakdown_totals[2] += *lingering_secs;
                    breakdown_totals[3] += *paused_secs;
                    breakdown_totals[4] += *migrating_secs;
                }
                EventKind::ArrivalBurst { offered, admitted, .. } => {
                    admission.offered += *offered as u64;
                    admission.admitted += *admitted as u64;
                }
                EventKind::AdmissionShed { count } => {
                    admission.shed += *count as u64;
                }
                EventKind::AdmissionDefer { count, deficit } => {
                    admission.deferred += *count as u64;
                    admission.peak_deficit = admission.peak_deficit.max(*deficit);
                }
                EventKind::DeadlineDrop { waited_secs } => {
                    admission.deadline_drops += 1;
                    admission.deadline_wait_secs += *waited_secs;
                }
                EventKind::StealAttempt { .. } => {
                    stealing.attempts += 1;
                }
                EventKind::StealHit { batch, delay_secs, .. } => {
                    stealing.hits += 1;
                    stealing.stolen_jobs += *batch as u64;
                    stealing.delay_secs += *delay_secs;
                }
                EventKind::StealMiss { .. } => {
                    stealing.misses += 1;
                }
                EventKind::StealAbandon { .. } => {
                    stealing.abandons += 1;
                }
                _ => {}
            }
        }
        let mut events_per_window = Histogram::new(0.0, 64.0, 32);
        for n in per_window.values() {
            events_per_window.add(*n as f64);
        }
        MetricsRegistry {
            counters,
            decisions,
            per_node,
            windows,
            max_window,
            queue_depth,
            linger_age,
            decision_host_cpu,
            completion_secs,
            events_per_window,
            breakdown_totals,
            completions,
            migrations,
            admission,
            stealing,
            budget_bytes,
            dropped_keys,
        }
    }

    /// Mean completion time over observed `Complete` events.
    pub fn avg_completion_secs(&self) -> f64 {
        if self.completions == 0 {
            0.0
        } else {
            // Histogram bins quantize; use the exact breakdown sums.
            let total: f64 = self.breakdown_totals.iter().sum();
            total / self.completions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn decision(action: DecisionAction, h: f64, age: Option<f64>) -> Event {
        Event::new(0, 0, EventKind::Decision {
            action,
            host_cpu: Some(h),
            dest_cpu: None,
            age_secs: age,
            migration_secs: None,
            dest: None,
        })
    }

    #[test]
    fn registry_counts_decisions_and_windows() {
        let events = vec![
            Event::new(0, 0, EventKind::WindowStart { queue_depth: 2 }),
            decision(DecisionAction::Linger, 0.4, None).on_node(1).for_job(0),
            decision(DecisionAction::Migrate, 0.8, Some(6.0)).on_node(1).for_job(0),
            Event::new(1, 2_000_000_000, EventKind::WindowStart { queue_depth: 5 }),
            Event::new(1, 2_000_000_000, EventKind::Complete {
                queued_secs: 2.0,
                running_secs: 10.0,
                lingering_secs: 4.0,
                paused_secs: 0.0,
                migrating_secs: 1.0,
                completion_secs: 17.0,
                migrations: 1,
            })
            .for_job(0),
        ];
        let m = MetricsRegistry::from_events(&events);
        assert_eq!(m.windows, 2);
        assert_eq!(m.decisions["linger"], 1);
        assert_eq!(m.decisions["migrate"], 1);
        assert_eq!(m.queue_depth.max, 5.0);
        assert_eq!(m.queue_depth.last, 5.0);
        assert_eq!(m.completions, 1);
        assert_eq!(m.migrations, 1);
        assert!((m.avg_completion_secs() - 17.0).abs() < 1e-9);
        assert_eq!(m.linger_age.total(), 1);
        assert_eq!(m.per_node[&1], 2);
    }

    #[test]
    fn registry_aggregates_admission_and_steal_payloads() {
        let events = vec![
            Event::new(0, 0, EventKind::ArrivalBurst { offered: 7, admitted: 5, depth: 9 }),
            Event::new(0, 0, EventKind::AdmissionShed { count: 2 }),
            Event::new(1, 0, EventKind::AdmissionDefer { count: 3, deficit: 11 }),
            Event::new(1, 0, EventKind::AdmissionDefer { count: 1, deficit: 4 }),
            Event::new(2, 0, EventKind::DeadlineDrop { waited_secs: 30.0 }).for_job(1),
            Event::new(2, 0, EventKind::StealAttempt { victim: 4, attempt: 1, victim_depth: 0 })
                .on_node(2),
            Event::new(2, 0, EventKind::StealMiss { victim: 4, attempt: 1 }).on_node(2),
            Event::new(2, 0, EventKind::StealAttempt { victim: 6, attempt: 2, victim_depth: 3 })
                .on_node(2),
            Event::new(2, 0, EventKind::StealHit {
                victim: 6,
                attempt: 2,
                batch: 2,
                delay_secs: 0.5,
            })
            .on_node(2)
            .for_job(9),
            Event::new(3, 0, EventKind::StealAttempt { victim: 1, attempt: 1, victim_depth: 0 })
                .on_node(5),
            Event::new(3, 0, EventKind::StealMiss { victim: 1, attempt: 1 }).on_node(5),
            Event::new(3, 0, EventKind::StealAbandon { attempts: 1 }).on_node(5),
        ];
        let m = MetricsRegistry::from_events(&events);
        assert_eq!(m.admission.offered, 7);
        assert_eq!(m.admission.admitted, 5);
        assert_eq!(m.admission.shed, 2);
        assert_eq!(m.admission.deferred, 4);
        assert_eq!(m.admission.peak_deficit, 11);
        assert_eq!(m.admission.deadline_drops, 1);
        assert!((m.admission.deadline_wait_secs - 30.0).abs() < 1e-12);
        assert!(!m.admission.is_empty());
        assert_eq!(m.stealing.attempts, 3);
        assert_eq!(m.stealing.hits, 1);
        assert_eq!(m.stealing.misses, 2);
        assert_eq!(m.stealing.abandons, 1);
        assert_eq!(m.stealing.stolen_jobs, 2);
        assert!((m.stealing.delay_secs - 0.5).abs() < 1e-12);
        assert_eq!(m.stealing.attempts, m.stealing.hits + m.stealing.misses);
        // Runs without the vocabulary leave both blocks empty.
        let quiet = MetricsRegistry::from_events(&[Event::new(0, 0, EventKind::QueueEnter)]);
        assert!(quiet.admission.is_empty());
        assert!(quiet.stealing.is_empty());
    }

    #[test]
    fn keyed_maps_respect_byte_budget_with_exact_drop_counts() {
        // 5 windows × 1 event each on 5 distinct nodes = 10 candidate
        // keys. Budget for 4 entries: the rest are dropped and counted.
        let events: Vec<Event> = (0..5u32)
            .map(|w| {
                Event::new(w, w as u64 * 2_000_000_000, EventKind::QueueEnter).on_node(100 + w)
            })
            .collect();
        let m = MetricsRegistry::from_events_with_budget(&events, 4 * 48);
        let tracked_windows = m.events_per_window.total() as usize;
        assert_eq!(m.per_node.len() + tracked_windows, 4);
        assert_eq!(m.dropped_keys, 6);
        assert_eq!(m.budget_bytes, 4 * 48);
        // Vocabulary-bounded counters stay exact regardless of budget.
        assert_eq!(m.counters["queue_enter"], 5);
        assert_eq!(m.max_window, 4);
        // A roomy budget drops nothing.
        let full = MetricsRegistry::from_events_with_budget(&events, 1 << 20);
        assert_eq!(full.dropped_keys, 0);
        assert_eq!(full.per_node.len(), 5);
        assert_eq!(full.events_per_window.total(), 5);
    }

    #[test]
    fn global_registry_merges_labels_commutatively() {
        let reg = GlobalRegistry { state: Mutex::new(RegistryState::default()) };
        let j = Journal::with_capacity(8);
        j.push(decision(DecisionAction::Evict, 0.9, None));
        j.push(decision(DecisionAction::Evict, 0.9, None));
        let k = Journal::with_capacity(8);
        k.push(decision(DecisionAction::Linger, 0.2, None));
        reg.absorb("IE", &j);
        reg.absorb("LL", &k);
        let forward = reg.summary();
        reg.reset();
        reg.absorb("LL", &k);
        reg.absorb("IE", &j);
        let backward = reg.summary();
        assert_eq!(forward.events, 3);
        assert_eq!(forward.policies["IE"].decisions["evict"], 2);
        assert_eq!(forward.policies["LL"].decisions["linger"], 1);
        // Order of absorption must not matter.
        assert_eq!(
            serde_json::to_string(&forward).unwrap(),
            serde_json::to_string(&backward).unwrap()
        );
    }
}
