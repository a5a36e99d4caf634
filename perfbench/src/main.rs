//! One benchmark run of one workload of the linger cluster simulator.
//!
//! ```text
//! linger-perfbench --workload <name> --seed <n> --seconds <s> [--trace]
//!                  [--spans-out <file>]
//! ```
//!
//! Repeats fixed-size cells of the workload, with seeds derived from
//! `--seed`, while another cell is expected to end within `--seconds`
//! (at least one cell). Checks every cell's simulated outputs and prints
//! one JSON line with the end-to-end metrics, plus the per-layer metrics
//! under `--trace`.
//! `perfbench/run.py` builds this binary and drives it.

mod cells;
mod spans;

use cells::{run_cell, CellResult, Layers, Workload};
use serde::Serialize;
use spans::Tracer;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = cells::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut spans_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            trace = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad)?,
            "--seconds" => seconds = value.parse().map_err(|_| bad)?,
            "--spans-out" => spans_out = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        spans_out,
    })
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (mean of the middle two for an even count).
fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of sorted `v`.
fn percentile(v: &[u64], p: f64) -> u64 {
    if v.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the candidate percentiles with at least ten samples
/// beyond it (50 when there are too few samples for any tail).
fn tail_percentile(n: usize) -> f64 {
    [99.99, 99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| (n as f64 * (1.0 - p / 100.0)).floor() >= 10.0)
        .unwrap_or(50.0)
}

/// One reported metric.
#[derive(Serialize)]
struct Metric {
    value: f64,
    unit: &'static str,
}

/// Metrics by name.
#[derive(Default)]
struct Metrics(BTreeMap<String, Metric>);

impl Metrics {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.insert(name.to_string(), Metric { value, unit });
    }
}

/// What the run did and how it was set up, besides its metrics.
#[derive(Serialize)]
struct Provenance {
    workers: usize,
    seed: u64,
    cells: usize,
    nodes: usize,
    horizon_s: u64,
    trace_s: u64,
    chunk_windows: usize,
    digests: Vec<String>,
}

/// The run's result line.
#[derive(Serialize)]
struct Output {
    workload: &'static str,
    correct: bool,
    attempted: u32,
    failed: u32,
    metrics: BTreeMap<String, Metric>,
    fig7_err_pct: Option<f64>,
    run_s: f64,
    provenance: Provenance,
}

const MIB: f64 = 1024.0 * 1024.0;

fn end_to_end(cells: &[CellResult], first_cell_rss_mb: f64, m: &mut Metrics) {
    let n = cells.len().max(1) as f64;
    let setups: Vec<f64> = cells.iter().map(|c| c.setup_secs).collect();
    let node_windows: f64 = cells.iter().map(|c| c.node_windows).sum();
    let loop_secs: f64 = cells.iter().map(|c| c.loop_secs).sum();
    // Mean, not median: host contention here comes in spells longer
    // than a cell, so per-cell times are bimodal and a median flips
    // between the modes from run to run (29 % quartile spread over ten
    // `paper_fig7` runs, against 16 % for the mean).
    m.add(
        "wall_s",
        cells.iter().map(|c| c.wall_secs).sum::<f64>() / n,
        "s",
    );
    m.add("setup_s", median(&setups), "s");
    m.add(
        "node_windows_per_s",
        node_windows / loop_secs.max(1e-12),
        "1/s",
    );
    m.add("peak_rss_mb", first_cell_rss_mb, "MiB");
}

fn per_layer(tracer: &Tracer, l: &Layers, run_secs: f64, workers: usize, m: &mut Metrics) {
    let per_node_window = |secs: f64| {
        if l.step_node_windows == 0 {
            0.0
        } else {
            secs * 1e9 / l.step_node_windows as f64
        }
    };
    let spans = tracer.spans();
    let self_ns = tracer.self_ns();
    let sum_self = |name: &str| -> f64 {
        spans
            .iter()
            .zip(&self_ns)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |acc, (_, &ns)| acc + ns as f64 / 1e9)
    };
    let stream_secs = spans
        .iter()
        .fold(0.0, |acc, s| acc + s.stream_ns as f64 / 1e9);
    let mut step_ns: Vec<u64> = spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "step")
        .map(|(_, &ns)| ns)
        .collect();
    step_ns.sort_unstable();
    let mut eval_ns: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == "evaluate_policy")
        .map(|s| s.dur_ns())
        .collect();
    eval_ns.sort_unstable();

    let realize_s = sum_self("realize");
    let construct_s = sum_self("construct");
    let step_s = sum_self("step");
    let arrivals_s = sum_self("arrivals");
    let evaluate_s = sum_self("evaluate_policy");
    let covered = realize_s + construct_s + step_s + arrivals_s + evaluate_s + stream_secs;
    let stats = linger_workload::TraceLibrary::global().stats();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    m.add("library.realize_s", realize_s, "s");
    m.add(
        "library.realization_mb",
        l.realization_bytes as f64 / MIB,
        "MiB",
    );
    m.add("library.cache_hits", stats.hits as f64, "count");
    m.add("library.cache_misses", stats.misses as f64, "count");
    m.add("stream.build_s", stream_secs, "s");
    m.add("stream.chunks", l.stream_chunks as f64, "count");
    m.add("stream.arena_mb", l.stream_arena_bytes as f64 / MIB, "MiB");
    m.add("arrivals.generate_s", arrivals_s, "s");
    m.add("arrivals.generated", l.arrivals_generated as f64, "count");
    m.add("sim.construct_s", construct_s, "s");
    m.add("sim.windows", l.windows as f64, "count");
    m.add("sim.step_s", step_s, "s");
    m.add("sim.step_ns_p50", percentile(&step_ns, 50.0) as f64, "ns");
    m.add("sim.ns_per_node_window", per_node_window(step_s), "ns");
    let tail = tail_percentile(step_ns.len());
    m.add("sim.step_ns_tail", percentile(&step_ns, tail) as f64, "ns");
    m.add("sim.step_tail_pct", tail, "%");
    m.add("steal.probes", l.steal_probes as f64, "count");
    m.add("steal.hits", l.steal_hits as f64, "count");
    m.add("steal.misses", l.steal_misses as f64, "count");
    m.add("steal.abandons", l.steal_abandons as f64, "count");
    m.add("steal.local_pops", l.steal_local_pops as f64, "count");
    m.add("steal.stolen_jobs", l.steal_stolen_jobs as f64, "count");
    m.add(
        "steal.hit_ratio",
        ratio(l.steal_hits, l.steal_probes),
        "ratio",
    );
    m.add(
        "steal.central_dispatches",
        l.steal_central_dispatches as f64,
        "count",
    );
    m.add("faults.crashes", l.fault_crashes as f64, "count");
    m.add(
        "faults.crash_evictions",
        l.fault_crash_evictions as f64,
        "count",
    );
    m.add(
        "faults.migration_failures",
        l.fault_migration_failures as f64,
        "count",
    );
    m.add(
        "faults.migration_retries",
        l.fault_migration_retries as f64,
        "count",
    );
    m.add(
        "faults.migrations_abandoned",
        l.fault_migrations_abandoned as f64,
        "count",
    );
    m.add("service.generated", l.service_generated as f64, "count");
    m.add("service.admitted", l.service_admitted as f64, "count");
    m.add("service.shed", l.service_shed as f64, "count");
    m.add(
        "service.shed_ratio",
        ratio(l.service_shed, l.service_generated),
        "ratio",
    );
    m.add(
        "service.peak_queue_depth",
        l.service_peak_queue_depth as f64,
        "count",
    );
    m.add(
        "service.peak_live_rows",
        l.service_peak_live_rows as f64,
        "count",
    );
    let latency = if l.service_latency_sims == 0 {
        0.0
    } else {
        l.service_latency_sum / l.service_latency_sims as f64
    };
    m.add("service.mean_latency_s", latency, "s");
    m.add("state.live_job_rows", l.state_live_job_rows as f64, "count");
    m.add("state.archived_jobs", l.state_archived_jobs as f64, "count");
    m.add(
        "state.live_lane_mb",
        l.state_live_lane_bytes as f64 / MIB,
        "MiB",
    );
    m.add("metrics.evaluate_calls", l.evaluate_calls as f64, "count");
    m.add(
        "metrics.evaluate_s_p50",
        percentile(&eval_ns, 50.0) as f64 / 1e9,
        "s",
    );
    m.add("par.workers", workers as f64, "count");
    m.add(
        "trace.uncovered_share",
        ((run_secs - covered) / run_secs).max(0.0),
        "ratio",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("linger-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let workload = args.workload;
    let workers = workload.workers();
    linger_sim_core::set_default_jobs(workers);
    let inputs = workload.inputs();
    let mut tracer = Tracer::new(args.trace);
    let mut layers = Layers::default();
    let mut cells = Vec::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u32, 0u32);
    // Peak RSS is read once the first cell has finished: later cells
    // reuse (and fragment) what the allocator kept from earlier ones, so
    // a process-lifetime peak would depend on how many cells fit.
    let mut first_cell_rss_mb = 0.0;
    let started = Instant::now();
    // At least one cell; another only while it is expected to end
    // within the time budget (at the mean cell time so far).
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if attempted > 0 && elapsed + elapsed / f64::from(attempted) > args.seconds {
            break;
        }
        let k = attempted;
        attempted += 1;
        let out = catch_unwind(AssertUnwindSafe(|| {
            run_cell(workload, &inputs, args.seed, k, &mut tracer, &mut layers)
        }));
        if k == 0 {
            first_cell_rss_mb = peak_rss_mb();
        }
        match out {
            Ok(res) => {
                if !res.problems.is_empty() {
                    failed += 1;
                    problems.extend(res.problems.iter().map(|p| format!("cell {k}: {p}")));
                }
                cells.push(res);
            }
            Err(_) => {
                failed += 1;
                problems.push(format!("cell {k}: panicked"));
            }
        }
    }
    let run_secs = started.elapsed().as_secs_f64();

    let mut metrics = Metrics::default();
    end_to_end(&cells, first_cell_rss_mb, &mut metrics);
    if args.trace {
        per_layer(&tracer, &layers, run_secs, workers, &mut metrics);
    }
    if let Some(path) = &args.spans_out {
        if let Err(e) = tracer.write_json(path) {
            eprintln!(
                "linger-perfbench: cannot write spans to {}: {e}",
                path.display()
            );
            return ExitCode::from(1);
        }
    }
    for p in &problems {
        eprintln!("linger-perfbench: FAILED {p}");
    }
    let fig7: Vec<f64> = cells.iter().filter_map(|c| c.fig7_err_pct).collect();
    let out = Output {
        workload: workload.name(),
        correct: failed == 0,
        attempted,
        failed,
        metrics: metrics.0,
        fig7_err_pct: (!fig7.is_empty()).then(|| fig7.iter().sum::<f64>() / fig7.len() as f64),
        run_s: run_secs,
        provenance: Provenance {
            workers,
            seed: args.seed,
            cells: cells.len(),
            nodes: inputs.nodes,
            horizon_s: inputs.horizon_secs,
            trace_s: inputs.trace_secs,
            chunk_windows: inputs.chunk_windows,
            digests: cells.iter().map(|c| format!("{:016x}", c.digest)).collect(),
        },
    };
    match serde_json::to_string(&out) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("linger-perfbench: cannot write the result: {e}");
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
