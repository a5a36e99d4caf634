//! The four benchmark workloads and the cell that runs one of them.
//!
//! A cell is one closed, fixed-size batch: synthesize the owner workload,
//! build the simulator(s), run every window of the horizon, check the
//! simulated outputs and tear down. A benchmark run repeats cells with
//! fresh seeds until its time budget is spent. Every call into the
//! program goes through the public API of `linger-workload` and
//! `linger-cluster`, and each is timed from here.

use crate::spans::{Span, Tracer};
use linger::{JobFamily, Policy};
use linger_bench::{
    fig07_paper_reference, FAULT_MEAN_REBOOT_SECS, SERVICE_MEAN_CPU_SECS,
    STEALING_CENTRAL_RTT_SECS, STEALING_LOAD, STEALING_PROBE_ATTEMPTS, STEALING_RTT_LOW_SECS,
};
use linger_cluster::{
    evaluate_policy, AdmissionPolicy, ClusterConfig, ClusterSim, FaultConfig, PolicyMetrics,
    RunMode, ServiceConfig, StealingConfig, WINDOW,
};
use linger_sim_core::{SimDuration, SimTime};
use linger_workload::{
    ArrivalConfig, ArrivalGenerator, ArrivalProcess, CoarseTraceConfig, SizeDistribution,
    TraceLibrary, WorkloadRealization,
};
use std::sync::Arc;
use std::time::Instant;

/// The seed whose first cell's output digest is stored below.
pub const DEFAULT_SEED: u64 = 1;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LL behind a saturated central dispatcher, 16,384 nodes.
    CentralSaturated,
    /// Randomized stealing with crashes and transfer loss, same nodes,
    /// trace and arrival rate as `CentralSaturated`.
    StealFaults,
    /// All four policies in throughput mode over a streamed realization,
    /// 65,536 nodes.
    StreamPolicies,
    /// The paper's Fig 7 experiment, 64 nodes.
    PaperFig7,
}

/// The inputs of one workload that a cell is built from (besides its
/// seed). Fixed per workload; tests perturb them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Inputs {
    /// Cluster size.
    pub nodes: usize,
    /// Simulated horizon of each simulator, seconds (the paper
    /// experiment's horizons are fixed by `evaluate_policy`).
    pub horizon_secs: u64,
    /// Owner-trace length, seconds (replayed cyclically).
    pub trace_secs: u64,
    /// Windows per streamed chunk (`StreamPolicies` only).
    pub chunk_windows: usize,
}

impl Workload {
    /// Every workload, in the order the one-command run uses.
    pub const ALL: [Workload; 4] = [
        Workload::CentralSaturated,
        Workload::StealFaults,
        Workload::StreamPolicies,
        Workload::PaperFig7,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CentralSaturated => "central_saturated",
            Workload::StealFaults => "steal_faults",
            Workload::StreamPolicies => "stream_policies",
            Workload::PaperFig7 => "paper_fig7",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's fixed inputs.
    pub fn inputs(self) -> Inputs {
        match self {
            Workload::CentralSaturated => Inputs {
                nodes: 16_384,
                horizon_secs: 3600,
                trace_secs: 3600,
                chunk_windows: 0,
            },
            Workload::StealFaults => Inputs {
                nodes: 16_384,
                horizon_secs: 2 * 3600,
                trace_secs: 3600,
                chunk_windows: 0,
            },
            Workload::StreamPolicies => Inputs {
                nodes: 65_536,
                horizon_secs: 400,
                trace_secs: 600,
                chunk_windows: 50,
            },
            Workload::PaperFig7 => Inputs {
                nodes: 64,
                horizon_secs: 3600,
                trace_secs: 4 * 3600,
                chunk_windows: 0,
            },
        }
    }

    /// Worker threads the run uses: at most 2, the core count of the
    /// 2-vCPU VM the workloads were sized on. Only `CentralSaturated` keeps two, so one
    /// workload runs the threaded per-window shard loop. `StealFaults`
    /// runs on one: with two, its loop was both slower and less steady
    /// (0.54–1.22e7 against 1.22–1.59e7 node-windows/s over five
    /// interleaved pairs), since each window waits for the slower of two
    /// freshly spawned threads. `StreamPolicies` runs on one because with
    /// two its chunk builds run on per-fill threads and its peak RSS moved
    /// by 27 % between same-size cells (207–264 MiB over five seeds),
    /// against a repeatable 152 MiB with one. `PaperFig7` is below the
    /// shard-threading threshold; its workers serve synthesis only.
    pub fn workers(self) -> usize {
        match self {
            Workload::StealFaults | Workload::StreamPolicies => 1,
            Workload::CentralSaturated | Workload::PaperFig7 => 2,
        }
    }

    /// Output digest of cell 0 under [`DEFAULT_SEED`]. Results do not
    /// depend on the worker count, so neither does the digest.
    pub fn expected_digest(self) -> u64 {
        match self {
            Workload::CentralSaturated => 0x33eb_4626_397b_dc36,
            Workload::StealFaults => 0x3c89_88ba_ce4c_997e,
            Workload::StreamPolicies => 0x996e_28cb_3051_b401,
            Workload::PaperFig7 => 0xc583_fc00_bcec_b3a0,
        }
    }
}

/// The simulation seed of cell `k` of a run seeded with `seed`
/// (SplitMix64 finalizer over both).
pub fn cell_seed(seed: u64, k: u32) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(k).wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: stable across Rust versions and hosts.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold one word in.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold a float in by its bits.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// What one cell measured and produced.
#[derive(Debug, Clone, Default)]
pub struct CellResult {
    /// Host seconds in realization synthesis and simulator construction.
    pub setup_secs: f64,
    /// Host seconds inside the window loop (chunk builds included) or,
    /// for the paper experiment, inside `evaluate_policy`.
    pub loop_secs: f64,
    /// Host seconds from the start of synthesis to the checked result.
    pub wall_secs: f64,
    /// Σ nodes × windows simulated.
    pub node_windows: f64,
    /// Digest of every simulated statistic the cell produced.
    pub digest: u64,
    /// Mean relative error against the paper's Fig 7, percent
    /// (`PaperFig7` only).
    pub fig7_err_pct: Option<f64>,
    /// Broken invariants (empty when the cell passed its checks).
    pub problems: Vec<String>,
}

/// Per-layer counters read through the public accessors after each
/// simulator finishes, summed (or maxed) over the run.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    pub realization_bytes: usize,
    pub stream_chunks: u64,
    pub stream_arena_bytes: usize,
    pub arrivals_generated: u64,
    pub windows: u64,
    /// Σ nodes × windows stepped by the benchmark's own window loop.
    pub step_node_windows: u64,
    pub steal_probes: u64,
    pub steal_hits: u64,
    pub steal_misses: u64,
    pub steal_abandons: u64,
    pub steal_local_pops: u64,
    pub steal_stolen_jobs: u64,
    pub steal_central_dispatches: u64,
    pub fault_crashes: u64,
    pub fault_crash_evictions: u64,
    pub fault_migration_failures: u64,
    pub fault_migration_retries: u64,
    pub fault_migrations_abandoned: u64,
    pub service_generated: u64,
    pub service_admitted: u64,
    pub service_shed: u64,
    pub service_peak_queue_depth: usize,
    pub service_peak_live_rows: usize,
    /// Σ simulated mean latency over open-mode simulators, and their count.
    pub service_latency_sum: f64,
    pub service_latency_sims: u64,
    pub state_live_job_rows: usize,
    pub state_archived_jobs: u64,
    pub state_live_lane_bytes: usize,
    pub evaluate_calls: u64,
}

/// Run cell `k` of `workload` under run seed `seed` and check it.
pub fn run_cell(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    k: u32,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> CellResult {
    let cseed = cell_seed(seed, k);
    let start = Instant::now();
    let root = tracer.open("run", k, None);
    let mut cx = Cell {
        k,
        root,
        tracer,
        layers,
        res: CellResult::default(),
        digest: Digest::default(),
        replays: Vec::new(),
    };
    match workload {
        Workload::CentralSaturated | Workload::StealFaults => {
            let cfg = open_cell_cfg(workload, inputs, cseed);
            let real =
                cx.realize(|| TraceLibrary::global().realize(&cfg.trace, cseed, inputs.nodes));
            cx.run_sim(cfg, &real);
            drop(real);
            TraceLibrary::global().clear();
        }
        Workload::StreamPolicies => {
            let trace = trace_cfg(inputs.trace_secs);
            let real = cx.realize(|| {
                Arc::new(WorkloadRealization::synthesize_streamed(
                    &trace,
                    cseed,
                    inputs.nodes,
                    inputs.chunk_windows,
                ))
            });
            for policy in Policy::ALL {
                cx.run_sim(throughput_cell_cfg(policy, inputs, cseed, &trace), &real);
            }
        }
        Workload::PaperFig7 => cx.run_fig7(inputs, cseed),
    }
    let Cell {
        tracer,
        layers,
        mut res,
        digest,
        replays,
        ..
    } = cx;
    res.digest = digest.value();
    if seed == DEFAULT_SEED && k == 0 && res.digest != workload.expected_digest() {
        res.problems.push(format!(
            "digest {:016x} != stored {:016x}",
            res.digest,
            workload.expected_digest()
        ));
    }
    res.wall_secs = start.elapsed().as_secs_f64();
    // The arrival replays run outside the cell's wall time, so that the
    // traced wall time differs from the untraced one by tracing alone.
    for r in &replays {
        r.run(k, root, tracer, layers, &mut res);
    }
    tracer.close(root, 0.0);
    res
}

/// The arrival layer of one open-mode simulator, replayed standalone
/// over the windows it ran: `ArrivalGenerator` must offer exactly what
/// the simulator counted as generated.
struct Replay {
    arrivals: ArrivalConfig,
    seed: u64,
    windows: u64,
    generated: u64,
}

impl Replay {
    fn run(
        &self,
        k: u32,
        root: usize,
        tracer: &mut Tracer,
        layers: &mut Layers,
        res: &mut CellResult,
    ) {
        let span = tracer.open("arrivals", k, Some(root));
        let mut gen = ArrivalGenerator::new(&self.arrivals, self.seed);
        let mut generated = 0u64;
        for _ in 0..self.windows {
            let n = gen.begin_window();
            for _ in 0..n {
                std::hint::black_box(gen.draw_demand());
            }
            generated += u64::from(n);
        }
        tracer.close(span, 0.0);
        layers.arrivals_generated += generated;
        if generated != self.generated {
            res.problems.push(format!(
                "arrival replay offered {generated}, simulator generated {}",
                self.generated
            ));
        }
    }
}

fn trace_cfg(secs: u64) -> CoarseTraceConfig {
    CoarseTraceConfig {
        duration: SimDuration::from_secs(secs),
        ..Default::default()
    }
}

/// The `ext_stealing` grid cell the two open-arrival workloads run:
/// LL, Poisson arrivals at load 0.6 with 120 s mean jobs, `Shed`
/// admission at capacity 2 × nodes.
fn open_cell_cfg(workload: Workload, inputs: &Inputs, seed: u64) -> ClusterConfig {
    let steal = workload == Workload::StealFaults;
    let mut cfg = ClusterConfig::paper(Policy::LingerLonger, JobFamily::empty());
    cfg.nodes = inputs.nodes;
    cfg.seed = seed;
    cfg.trace = trace_cfg(inputs.trace_secs);
    cfg.mode = RunMode::Open {
        horizon: SimTime::from_secs(inputs.horizon_secs),
    };
    cfg.service = ServiceConfig {
        arrivals: ArrivalConfig {
            process: ArrivalProcess::Poisson {
                rate_per_hour: STEALING_LOAD * inputs.nodes as f64 * 3600.0 / SERVICE_MEAN_CPU_SECS,
            },
            mean_cpu_secs: SERVICE_MEAN_CPU_SECS,
            mem_kb: 8 * 1024,
            size_dist: if steal {
                SizeDistribution::BoundedPareto {
                    alpha: 1.5,
                    max_ratio: 100.0,
                }
            } else {
                SizeDistribution::Exponential
            },
        },
        admission: AdmissionPolicy::Shed,
        queue_capacity: 2 * inputs.nodes,
        deadline_secs: 300.0,
    };
    let (crash_rate_per_hour, migration_failure_prob) = if steal { (6.0, 0.2) } else { (0.0, 0.0) };
    cfg.faults = FaultConfig {
        crash_rate_per_hour,
        mean_reboot_secs: FAULT_MEAN_REBOOT_SECS,
        migration_failure_prob,
    };
    cfg.stealing = if steal {
        StealingConfig::randomized(STEALING_PROBE_ATTEMPTS, STEALING_RTT_LOW_SECS)
    } else {
        let mut s = StealingConfig::disabled();
        s.central_dispatch_rtt_secs = STEALING_CENTRAL_RTT_SECS;
        s
    };
    cfg
}

/// The `ext_scaling` cell: 2 × nodes uniform 300 s jobs held in the
/// system for the horizon.
fn throughput_cell_cfg(
    policy: Policy,
    inputs: &Inputs,
    seed: u64,
    trace: &CoarseTraceConfig,
) -> ClusterConfig {
    let family = JobFamily::uniform(
        (2 * inputs.nodes) as u32,
        SimDuration::from_secs(300),
        8 * 1024,
    );
    let mut cfg = ClusterConfig::paper(policy, family);
    cfg.nodes = inputs.nodes;
    cfg.seed = seed;
    cfg.trace = trace.clone();
    cfg.mode = RunMode::Throughput {
        horizon: SimTime::from_secs(inputs.horizon_secs),
    };
    cfg
}

/// One cell in progress: where its spans and counters go, and what it
/// has measured so far.
struct Cell<'a> {
    k: u32,
    /// The cell's root span.
    root: usize,
    tracer: &'a mut Tracer,
    layers: &'a mut Layers,
    res: CellResult,
    digest: Digest,
    /// Arrival replays to run once the cell's wall time is taken
    /// (traced runs only).
    replays: Vec<Replay>,
}

impl Cell<'_> {
    /// Time a realization call as set-up, under a `realize` span.
    fn realize(
        &mut self,
        f: impl FnOnce() -> Arc<WorkloadRealization>,
    ) -> Arc<WorkloadRealization> {
        let span = self.tracer.open("realize", self.k, Some(self.root));
        let t = Instant::now();
        let real = f();
        self.res.setup_secs += t.elapsed().as_secs_f64();
        self.tracer.close(span, 0.0);
        self.layers.realization_bytes = self.layers.realization_bytes.max(real.approx_bytes());
        real
    }

    /// Construct one simulator over `real`, step it to its horizon, then
    /// read its counters, fold its outputs into the digest and check them.
    fn run_sim(&mut self, cfg: ClusterConfig, real: &WorkloadRealization) {
        let (k, root) = (self.k, self.root);
        let Cell {
            tracer,
            layers,
            res,
            digest,
            replays,
            ..
        } = self;
        let horizon = match cfg.mode {
            RunMode::Open { horizon } | RunMode::Throughput { horizon } => horizon,
            RunMode::Family => panic!("benchmark simulators run to a fixed horizon"),
        };
        let nodes = cfg.nodes;
        let open = matches!(cfg.mode, RunMode::Open { .. });
        let arrivals = cfg.service.arrivals;
        let seed = cfg.seed;

        let span = tracer.open("construct", k, Some(root));
        let t = Instant::now();
        let mut sim = ClusterSim::with_realization(cfg, real);
        res.setup_secs += t.elapsed().as_secs_f64();
        tracer.close(span, sim.stream_build_secs());

        let mut windows = 0u64;
        let t = Instant::now();
        if tracer.on() {
            while sim.now() < horizon {
                let built = sim.stream_build_secs();
                let start_ns = tracer.now();
                sim.step();
                let end_ns = tracer.now();
                let stream_ns = ((sim.stream_build_secs() - built) * 1e9) as u64;
                tracer.push(Span {
                    name: "step",
                    cell: k,
                    parent: Some(root),
                    start_ns,
                    end_ns,
                    stream_ns,
                });
                windows += 1;
            }
        } else {
            while sim.now() < horizon {
                sim.step();
                windows += 1;
            }
        }
        res.loop_secs += t.elapsed().as_secs_f64();
        res.node_windows += (nodes as u64 * windows) as f64;

        let st = sim.steal_stats();
        let fs = sim.fault_stats();
        let sv = sim.service_stats();
        for x in [
            windows,
            sim.completed() as u64,
            sim.foreign_cpu_delivered().as_nanos(),
            sim.foreground_delay_ratio().to_bits(),
            sv.generated,
            sv.admitted,
            sv.shed,
            st.local_pops,
            st.probes,
            st.hits,
            st.misses,
            st.abandons,
            st.stolen_jobs,
            st.central_dispatches,
            fs.crashes as u64,
            fs.crash_evictions as u64,
            fs.migration_failures as u64,
            fs.migration_retries as u64,
            fs.migrations_abandoned as u64,
        ] {
            digest.word(x);
        }
        if !sv.accounting_holds() {
            res.problems.push(format!(
                "service accounting: generated {} != admitted {} + shed {} + deficit {}",
                sv.generated, sv.admitted, sv.shed, sv.deficit
            ));
        }
        if st.probes != st.hits + st.misses {
            res.problems.push(format!(
                "steal probes {} != hits {} + misses {}",
                st.probes, st.hits, st.misses
            ));
        }
        if sim.completed() == 0 {
            res.problems
                .push("no job completed within the horizon".to_string());
        }

        layers.windows += windows;
        layers.step_node_windows += nodes as u64 * windows;
        layers.stream_chunks += sim.stream_chunks_built();
        layers.stream_arena_bytes = layers.stream_arena_bytes.max(sim.stream_arena_bytes());
        layers.steal_probes += st.probes;
        layers.steal_hits += st.hits;
        layers.steal_misses += st.misses;
        layers.steal_abandons += st.abandons;
        layers.steal_local_pops += st.local_pops;
        layers.steal_stolen_jobs += st.stolen_jobs;
        layers.steal_central_dispatches += st.central_dispatches;
        layers.fault_crashes += fs.crashes as u64;
        layers.fault_crash_evictions += fs.crash_evictions as u64;
        layers.fault_migration_failures += fs.migration_failures as u64;
        layers.fault_migration_retries += fs.migration_retries as u64;
        layers.fault_migrations_abandoned += fs.migrations_abandoned as u64;
        layers.service_generated += sv.generated;
        layers.service_admitted += sv.admitted;
        layers.service_shed += sv.shed;
        layers.service_peak_queue_depth = layers.service_peak_queue_depth.max(sv.peak_queue_depth);
        layers.service_peak_live_rows = layers.service_peak_live_rows.max(sv.peak_live_rows);
        if open {
            layers.service_latency_sum += sv.latency.mean();
            layers.service_latency_sims += 1;
        }
        layers.state_live_job_rows = layers.state_live_job_rows.max(sim.live_job_rows());
        layers.state_archived_jobs += sim.archived_jobs() as u64;
        layers.state_live_lane_bytes = layers.state_live_lane_bytes.max(sim.live_lane_bytes());

        if open && tracer.on() {
            replays.push(Replay {
                arrivals,
                seed,
                windows,
                generated: sv.generated,
            });
        }
    }

    /// The paper's Fig 7 experiment for one seed: `evaluate_policy` for all
    /// four policies on both paper workloads.
    fn run_fig7(&mut self, inputs: &Inputs, seed: u64) {
        let nodes = inputs.nodes;
        let trace = ClusterConfig::paper(Policy::LingerLonger, JobFamily::empty()).trace;
        let real = self.realize(|| TraceLibrary::global().realize(&trace, seed, nodes));
        let (k, root) = (self.k, self.root);
        let Cell {
            tracer,
            layers,
            res,
            digest,
            ..
        } = self;
        let reference = fig07_paper_reference();
        let throughput_windows = (inputs.horizon_secs as f64 / WINDOW.as_secs_f64()).round();
        let mut err_sum = 0.0;
        let mut err_terms = 0u32;
        for (wi, family) in [JobFamily::workload_1(), JobFamily::workload_2()]
            .into_iter()
            .enumerate()
        {
            for (pi, policy) in Policy::ALL.into_iter().enumerate() {
                let span = tracer.open("evaluate_policy", k, Some(root));
                let t = Instant::now();
                let m: PolicyMetrics = evaluate_policy(policy, family.clone(), nodes, seed);
                res.loop_secs += t.elapsed().as_secs_f64();
                tracer.close(span, 0.0);
                layers.evaluate_calls += 1;
                // The family run stops at the window its last job completes
                // in; the throughput run covers the fixed one-hour horizon.
                let family_windows = (m.family_time_secs / WINDOW.as_secs_f64()).ceil();
                res.node_windows += nodes as f64 * (family_windows + throughput_windows);
                for x in [
                    m.avg_completion_secs,
                    m.variation,
                    m.family_time_secs,
                    m.throughput,
                    m.foreground_delay,
                    m.avg_migrations,
                ] {
                    digest.float(x);
                }
                digest.word(u64::from(m.finished));
                if !m.finished {
                    res.problems.push(format!(
                        "{} on workload {} did not finish",
                        policy.abbrev(),
                        wi + 1
                    ));
                }
                let avg_ref = reference[4 * wi][pi];
                let tput_ref = reference[4 * wi + 3][pi];
                err_sum += (m.avg_completion_secs - avg_ref).abs() / avg_ref;
                err_sum += (m.throughput - tput_ref).abs() / tput_ref;
                err_terms += 2;
            }
        }
        res.fig7_err_pct = Some(100.0 * err_sum / f64::from(err_terms));
        drop(real);
        TraceLibrary::global().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig7_cell(inputs: &Inputs) -> CellResult {
        let mut tracer = Tracer::new(false);
        let mut layers = Layers::default();
        run_cell(
            Workload::PaperFig7,
            inputs,
            DEFAULT_SEED,
            0,
            &mut tracer,
            &mut layers,
        )
    }

    #[test]
    fn perturbed_input_is_reported_failed() {
        let inputs = Workload::PaperFig7.inputs();
        let clean = fig7_cell(&inputs);
        assert!(
            clean.problems.is_empty(),
            "unperturbed cell failed: {:?}",
            clean.problems
        );

        let perturbed = fig7_cell(&Inputs {
            nodes: inputs.nodes - 1,
            ..inputs
        });
        assert_ne!(perturbed.digest, clean.digest);
        assert!(
            perturbed.problems.iter().any(|p| p.starts_with("digest")),
            "a perturbed input passed its check: {:?}",
            perturbed.problems
        );
    }

    #[test]
    fn digest_is_checked_only_for_the_default_seed() {
        let mut tracer = Tracer::new(false);
        let mut layers = Layers::default();
        let inputs = Inputs {
            nodes: 63,
            ..Workload::PaperFig7.inputs()
        };
        let other = run_cell(
            Workload::PaperFig7,
            &inputs,
            DEFAULT_SEED + 1,
            0,
            &mut tracer,
            &mut layers,
        );
        assert!(other.problems.is_empty(), "{:?}", other.problems);
    }

    #[test]
    fn cell_seeds_differ_per_cell_and_per_run() {
        assert_ne!(cell_seed(1, 0), cell_seed(1, 1));
        assert_ne!(cell_seed(1, 0), cell_seed(2, 0));
        assert_eq!(cell_seed(5, 3), cell_seed(5, 3));
    }
}
