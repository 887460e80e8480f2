#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the hpd detector (see README.md).

    python3 bench_e2e/run.py --workload pulse-wide-central --seed 1 \
        --seconds 20 --trace 0

Builds bench_e2e (and the hpd_sim it cross-checks against) from source into
.bench_build/, prepares the seeded inputs in .bench_work/<workload>-s<seed>-t<trace>/
(emptied at the start of a run and left behind after it: stream, occurrence
logs, spans.csv), runs the measured mode, checks every result, and prints a
report whose last line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(names and units as listed in BENCHMARK.json).
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
WORKLOADS = ("pulse-wide-central", "pulse-wide-slicing", "pulse-wide-hier",
             "gossip-ckpt")
# Untraced figures are pooled over several short measuring processes: the
# speed one process gets (core placement, memory layout, a neighbour's
# load) varies more than its passes do.
PROCESSES = 5
# Deterministic counts every measuring process must report identically.
COUNTS = ("ckpt_writes", "ckpt_bytes", "ckpt_fsyncs", "comparisons",
          "slice_comparisons", "rows", "events_per_pass")


def fail(msg, code=1):
    print(f"bench_e2e: {msg}", file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout, log=None):
    """Run a child to completion (killed and reaped on timeout)."""
    try:
        res = subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                             stdout=subprocess.PIPE,
                             stderr=log if log else subprocess.PIPE)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return res


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "tools" / "hpd_sim.cpp").is_file():
        fail("the hpd sources (src/, tools/hpd_sim.cpp) are not next to "
             "bench_e2e/; run from a full checkout", 2)
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found", 2)
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.log", "w") as log:
        if not (BUILD / "CMakeCache.txt").is_file():
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            res = run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                       "-DCMAKE_BUILD_TYPE=Release", *gen], 300, log)
            if res.returncode != 0:
                fail(f"cmake configure failed (see {BUILD / 'build.log'})")
        jobs = str(min(4, os.cpu_count() or 1))
        res = run(["cmake", "--build", str(BUILD), "-j", jobs], 850, log)
        if res.returncode != 0:
            fail(f"build failed (see {BUILD / 'build.log'})")


def last_json(res, what):
    lines = [l for l in res.stdout.splitlines() if l.startswith("{")]
    if res.returncode not in (0, 1) or not lines:
        sys.stderr.write(res.stderr or "")
        fail(f"{what} exited {res.returncode} without a result")
    return json.loads(lines[-1])


def read_meta(work):
    meta = {}
    for line in (work / "meta.txt").read_text().splitlines():
        k, _, v = line.partition("=")
        meta[k] = v
    return meta


def hpd_sim_log(work, meta):
    """The real daemon on the same stream and checkpoint settings: its
    occurrence log and checkpoint counters (the fidelity reference)."""
    sim = str(BUILD / "hpd_sim")
    base = [sim, "--daemon", "--stream", str(work / "stream.evt"),
            "--detector", meta["engine"], "--occ-log", str(work / "occ-hpd.csv")]
    ckpt = ["--ckpt-dir", str(work / "ckpt-hpd")]
    every = int(meta["ckpt_every"])
    resume_at = int(meta["resume_at"])
    if resume_at:
        # First life up to the restart point, then kill-and-restore.
        res = run(base + ckpt + ["--max-events", str(resume_at)], 170)
        if res.returncode != 0:
            fail(f"hpd_sim first life failed: {res.stderr}")
        cmd = base + ckpt + ["--restore", "--ckpt-every", str(every), "--json"]
    elif every:
        cmd = base + ckpt + ["--ckpt-every", str(every), "--json"]
    else:
        cmd = base + ["--json"]
    res = run(cmd, 170)
    if res.returncode != 0:
        fail(f"hpd_sim --daemon failed: {res.stderr}")
    return (work / "occ-hpd.csv").read_bytes(), json.loads(res.stdout)


def percentile(xs, q):
    """Nearest-rank percentile, as bench_e2e computes it."""
    xs = sorted(xs)
    return xs[max(1, math.ceil(q * len(xs))) - 1]


def beyond(xs, q):
    p = percentile(xs, q) if xs else 0
    return sum(1 for x in xs if x > p)


def measure(args, work):
    """Run `ingest`: one traced process, or untraced processes pooled until
    --seconds are spent and the p90 has 10 samples beyond it."""
    argv = lambda secs: [str(BUILD / "bench_e2e"), "ingest", "--dir",
                         str(work), "--seconds", f"{secs:.3f}",
                         "--trace", str(args.trace)]
    timeout = 6 * args.seconds + 60
    if args.trace:
        return last_json(run(argv(args.seconds), timeout), "ingest")
    outs, detect = [], []
    start = time.monotonic()
    while len(outs) < PROCESSES or (beyond(detect, 0.90) < 10 and
                                    time.monotonic() - start < 3 * args.seconds):
        outs.append(last_json(run(argv(args.seconds / PROCESSES), timeout),
                              "ingest"))
        detect += outs[-1]["detect_lat_us"]
    if beyond(detect, 0.90) < 10:
        fail(f"only {len(detect)} detections: no p90 with 10 beyond it")
    pool = lambda key: [v for o in outs for v in o[key]]
    out = {
        "metrics": {
            "ingest_eps": statistics.median(pool("pass_ingest_eps")),
            "event_lat_p50_us": statistics.median(pool("pass_event_lat_p50_us")),
            "event_lat_p99_us": statistics.median(pool("pass_event_lat_p99_us")),
            "detect_lat_p50_us": percentile(detect, 0.50),
            "detect_lat_p90_us": percentile(detect, 0.90),
            "setup_s": statistics.median(pool("pass_setup_s")),
            "peak_rss_mb": statistics.median(o["peak_rss_mb"] for o in outs),
        },
        "slowdown": statistics.median(pool("slowdown")),
        "processes": len(outs),
        "passes": len(pool("pass_ingest_eps")),
        "detect_lat_samples": len(detect),
        "attempted": sum(o["attempted"] for o in outs),
        "failed": sum(o["failed"] for o in outs),
        # Same seed, same stream: every process must see the same counts.
        "deterministic": int(all(o["deterministic"] == 1 for o in outs) and
                             len({json.dumps([o[c] for c in COUNTS])
                                  for o in outs}) == 1),
    }
    for key in COUNTS:
        out[key] = outs[0][key]
    return out


def run_workload(args, work):
    res = run([str(BUILD / "bench_e2e"), "prepare", "--workload",
               args.workload, "--seed", str(args.seed), "--dir", str(work)],
              170)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        fail("prepare failed")
    print(res.stderr.strip())
    meta = read_meta(work)
    out = measure(args, work)

    checks = {"oracle": out["failed"] == 0,
              "determinism": out["deterministic"] == 1}
    ref_log, ref = hpd_sim_log(work, meta)
    logs = ["occ-untraced.csv"] + (["occ-traced.csv"] if args.trace else [])
    checks["fidelity"] = all((work / l).read_bytes() == ref_log for l in logs)
    ck = ref.get("checkpoint", {})
    checks["fidelity_ckpt"] = (ck.get("writes", 0) == out["ckpt_writes"] and
                               ck.get("bytes_written", 0) == out["ckpt_bytes"])
    print(f"stream: {meta['events']} events, {meta['processes']} processes, "
          f"{meta['expected']} oracle solutions, engine {meta['engine']}, "
          f"checkpoint every {meta['ckpt_every']}, restart at "
          f"{meta['resume_at']}, {meta['out_of_order']} reports out of order")
    if args.trace:
        print(f"passes: {out['passes_untraced']} untraced, "
              f"{out['passes_traced']} traced; ingest_eps untraced "
              f"{out['untraced_ingest_eps']:.6g}, traced "
              f"{out['traced_ingest_eps']:.6g}")
    else:
        print(f"samples: {out['passes']} passes over {out['processes']} "
              f"processes, {out['events_per_pass']:.0f} intervals per pass, "
              f"{out['detect_lat_samples']} detections")
        print(f"host slowdown (probe): median {out['slowdown']:.4g} over "
              f"the passes")
    return out, checks


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    bench_json = ROOT / "BENCHMARK.json"
    if not bench_json.is_file():
        fail("BENCHMARK.json not found at the checkout root", 2)
    spec = json.loads(bench_json.read_text())
    build()

    work = WORK / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out, checks = run_workload(args, work)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = out["metrics"].get(m["name"])
        if got is None:
            fail(f"metric {m['name']} missing")
        value = got["value"] if isinstance(got, dict) else got
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    attempted = int(out["attempted"])
    failed = int(out["failed"])
    correct = all(checks.values())
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}):")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:>16.10g} {m['unit']}")
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of {attempted} "
          f"expected occurrences)")
    print("  checks: " + ", ".join(f"{k} {'PASS' if v else 'FAIL'}"
                                   for k, v in checks.items()))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
