//! The telemetry no-interference contract, enforced end to end: figure
//! results are byte-identical with telemetry off or on, at any worker
//! count; journals stay within their ring cap at figure scale; and the
//! decision-level diff pinpoints where two runs part ways.

use linger::{JobFamily, Policy};
use linger_bench as bench;
use linger_cluster::{ClusterConfig, ClusterSim};
use linger_sim_core::{set_default_jobs, SimDuration};
use linger_telemetry::{diff, EventKind, Recorder};
use std::sync::Mutex;

const SEED: u64 = 1998;

/// Serializes the tests that touch process-wide state (`LINGER_TELEMETRY`
/// and the default job count).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn fig07_json(fast: bool) -> String {
    serde_json::to_string(&bench::fig07(SEED, fast)).expect("serialize fig07")
}

#[test]
fn fig07_json_is_byte_identical_with_telemetry_on() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::remove_var("LINGER_TELEMETRY");
    let off = fig07_json(true);
    std::env::set_var("LINGER_TELEMETRY", "1");
    let on = fig07_json(true);
    std::env::remove_var("LINGER_TELEMETRY");
    assert_eq!(off, on, "telemetry must not perturb figure results");
}

#[test]
fn fig07_json_is_byte_identical_across_worker_counts_with_telemetry_on() {
    let _guard = ENV_LOCK.lock().unwrap();
    std::env::set_var("LINGER_TELEMETRY", "1");
    set_default_jobs(1);
    let serial = fig07_json(true);
    set_default_jobs(4);
    let parallel = fig07_json(true);
    set_default_jobs(0);
    std::env::remove_var("LINGER_TELEMETRY");
    assert_eq!(serial, parallel, "telemetry must not break --jobs determinism");
}

fn cell(seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper(
        Policy::LingerLonger,
        JobFamily::uniform(128, SimDuration::from_secs(300), 8 * 1024),
    );
    cfg.nodes = 64;
    cfg.seed = seed;
    cfg
}

#[test]
fn journal_stays_within_its_ring_cap_at_figure_scale() {
    let recorder = Recorder::with_capacity(256);
    let mut sim = ClusterSim::new(cell(SEED)).with_recorder(recorder.clone());
    sim.run();
    let journal = recorder.journal().expect("enabled");
    let counts = journal.counts();
    assert!(journal.len() <= 256, "ring holds {} > cap 256", journal.len());
    assert!(counts.events > 256, "the run should overflow a 256-event ring");
    assert_eq!(counts.dropped, counts.events - journal.len() as u64);
    // Exact counters survive the wraparound: every window recorded one
    // WindowStart even though most were dropped from the ring.
    let windows = counts.by_kind[linger_telemetry::journal::kind_slot(&EventKind::WindowStart {
        queue_depth: 0,
    })];
    assert!(windows > 256, "window counter lost to ring wraparound: {windows}");
}

#[test]
fn identical_seeds_produce_identical_journals() {
    let (a, b) = (Recorder::with_capacity(1 << 16), Recorder::with_capacity(1 << 16));
    ClusterSim::new(cell(SEED)).with_recorder(a.clone()).run();
    ClusterSim::new(cell(SEED)).with_recorder(b.clone()).run();
    let report = diff(
        &a.journal().unwrap().snapshot(),
        &b.journal().unwrap().snapshot(),
    );
    assert!(report.identical(), "same seed diverged: {:?}", report.first_divergence);
}

#[test]
fn different_seeds_diverge_at_a_specific_decision() {
    let (a, b) = (Recorder::with_capacity(1 << 16), Recorder::with_capacity(1 << 16));
    ClusterSim::new(cell(SEED)).with_recorder(a.clone()).run();
    ClusterSim::new(cell(SEED + 1)).with_recorder(b.clone()).run();
    let report = diff(
        &a.journal().unwrap().snapshot(),
        &b.journal().unwrap().snapshot(),
    );
    assert!(!report.identical(), "different seeds cannot journal identically");
    let dec = report
        .first_decision_divergence
        .as_ref()
        .expect("seed change must surface in a decision, not only in counts");
    assert!(
        dec.a.is_some() || dec.b.is_some(),
        "divergence must carry at least one side's event"
    );
}

#[test]
fn inspect_record_rejects_zero_nodes() {
    let out = std::env::temp_dir().join("linger-inspect-zero-nodes.jsonl");
    let run = std::process::Command::new(env!("CARGO_BIN_EXE_linger-inspect"))
        .args(["record", "--nodes", "0", "--out"])
        .arg(&out)
        .output()
        .expect("run linger-inspect");
    assert_eq!(run.status.code(), Some(2), "{run:?}");
    assert!(String::from_utf8_lossy(&run.stderr).contains("--nodes"));
    assert!(!out.exists(), "no journal for a rejected run");
}
