#!/usr/bin/env python3
"""Benchmark of the linger cluster simulator: one command, four workloads.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of the repository. Builds `perfbench/` (a Cargo
package of its own that depends on the repository's crates by path),
then runs each workload in a fresh process: the process-wide trace
cache would otherwise turn a repeated set-up into a cache hit.

For one workload, the last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
first runs the same workload and seed untraced, to report the tracing
overhead. Provenance (git rev, source digest, nproc, rustc version,
build profile, worker count, seeds) is printed on the line before.
With `--workload all` (the default) every workload runs in turn and a
table is printed.

Exits non-zero without printing a result when the build or a run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

WORKLOADS = ["central_saturated", "steal_faults", "stream_policies", "paper_fig7"]
END_TO_END = ["wall_s", "setup_s", "node_windows_per_s", "peak_rss_mb"]
PROFILE = "release"
# A run must end within 180 s once the binary is built; a traced run
# is two processes, which share this budget.
RUN_BUDGET_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    """Cargo's target directory: `CARGO_TARGET_DIR` (relative to the
    repository root) or the package's own `target/`."""
    tdir = os.environ.get("CARGO_TARGET_DIR")
    return os.path.join(ROOT, tdir) if tdir else os.path.join(HERE, "target")


def build():
    """Build the benchmark binary; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail("the repository's crates/ directory is missing; nothing to build")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        env = {**os.environ, "CARGO_TARGET_DIR": target_dir()}
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(target_dir(), PROFILE, "linger-perfbench")


def clean_env():
    """The caller's environment without the simulator's LINGER_* knobs,
    so no shard, cache, chunk or telemetry override leaks into a run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("LINGER_")}


def run_once(binary, workload, seed, seconds, traced, deadline):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        spans = os.path.join(target_dir(), "perfbench-spans", f"{workload}-{seed}.json")
        cmd += ["--trace", "--spans-out", spans]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=clean_env(), stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_BUDGET_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() if out.returncode == 0 else "unavailable"


def source_digest():
    """SHA-256 over every source file the binary is built from, so runs
    from checkouts without git history can still be matched."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "Cargo.toml"), os.path.join(ROOT, "Cargo.lock")]
    for base in (os.path.join(ROOT, "crates"), os.path.join(ROOT, "vendor"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            paths += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if f.endswith((".rs", ".toml", ".lock", ".py"))]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip()


def provenance(result):
    p = result["provenance"]
    return {
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "rustc": rustc_version(),
        "profile": PROFILE,
        "workload": result["workload"],
        "workers": p["workers"],
        "seed": p["seed"],
        "cells": p["cells"],
        "inputs": {k: p[k] for k in ("nodes", "horizon_s", "trace_s", "chunk_windows")},
    }


def fmt(x):
    return f"{x:.4g}"


def run_workload(binary, workload, seed, seconds, traced):
    """Run one workload; returns (summary dict, metrics dict)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    plain = run_once(binary, workload, seed, seconds, False, deadline)
    runs = [plain]
    if traced:
        tr = run_once(binary, workload, seed, seconds, True, deadline)
        runs.append(tr)
        metrics = {k: v for k, v in tr["metrics"].items() if "." in k}
        metrics["trace.overhead_ratio"] = {
            "value": tr["metrics"]["wall_s"]["value"] / plain["metrics"]["wall_s"]["value"],
            "unit": "ratio",
        }
    else:
        metrics = {k: plain["metrics"][k] for k in END_TO_END}
    summary = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    print(json.dumps({"provenance": provenance(plain)}))
    m = plain["metrics"]
    line = " | ".join(f"{k} {fmt(m[k]['value'])} {m[k]['unit']}" for k in END_TO_END)
    if plain["fig7_err_pct"] is not None:
        line += f" | fig7_err {fmt(plain['fig7_err_pct'])} %"
    else:
        line += " | fig7_err n/a (the paper reference covers 64 nodes only)"
    print(f"{workload}: {line} | cells {summary['attempted']} attempted, "
          f"{summary['failed']} failed")
    return summary, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    binary = build()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = []
    for w in names:
        results.append((w, *run_workload(binary, w, args.seed, args.seconds, args.trace == 1)))

    if len(results) == 1:
        _, summary, metrics = results[0]
    else:
        summary = {
            "correct": all(s["correct"] for _, s, _ in results),
            "attempted": sum(s["attempted"] for _, s, _ in results),
            "failed": sum(s["failed"] for _, s, _ in results),
        }
        metrics = {f"{w}.{k}": v for w, _, ms in results for k, v in ms.items()}
    print(json.dumps({**summary, "metrics": metrics}))


if __name__ == "__main__":
    main()
