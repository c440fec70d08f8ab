#!/usr/bin/env python3
"""Runs the PODS job benchmark, or compares two sets of its results.

Run mode, from the root of the repository:

    python3 jobbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the `jobbench` crate (release, offline, into $CARGO_TARGET_DIR or
jobbench/target), runs it, and prints two JSON lines: the full record
(metrics, supporting figures, seed, worker count and the host: nproc, rustc
version, git commit), then the result line
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
Redirect standard output to a file to keep the records for compare mode.

Compare mode:

    python3 jobbench/run.py --compare BASE NEW

reads every `--trace 0` record in two files of saved standard output and diffs them by workload and end-to-end metric against the bounds
in BENCHMARK.json. It exits with 1 when a median got worse by more than its
bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def host_record(seed, workers):
    try:
        rustc = subprocess.run(
            ["rustc", "--version"], capture_output=True, text=True, timeout=30
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        rustc = "unknown"
    commit = "unknown"
    # Ask git only inside a repository of its own: a checkout without
    # `.git` must not report the commit of some enclosing repository.
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=30,
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc,
        "git_commit": commit,
        "workers": workers,
        "seed": seed,
    }


def run(args):
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", str(HERE / "Cargo.toml"),
        ],
        timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        print("jobbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.run(
        [
            str(target / "release" / "jobbench"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ],
        stdout=subprocess.PIPE,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        return proc.returncode
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["host"] = host_record(args.seed, record["workers"])
    print(json.dumps(record))
    result = {k: record[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result), flush=True)
    return 0


def load_records(path):
    """Every `--trace 0` record of a file, grouped as workload -> metric -> values."""
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if not isinstance(rec, dict) or "host" not in rec or rec.get("trace") != 0:
                continue
            per_metric = runs.setdefault(rec["workload"], {})
            for name, m in rec["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
    return runs


def spread(values):
    """Interquartile distance as a share of the median (None below 2 runs)."""
    if len(values) < 2:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def compare(base_path, new_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load_records(base_path), load_records(new_path)
    regressed = False
    print(f"{'workload':<14} {'metric':<18} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in sorted(set(base) | set(new)):
        for m in spec["end_to_end"]:
            a = base.get(workload, {}).get(m["name"], [])
            b = new.get(workload, {}).get(m["name"], [])
            if not a or not b:
                print(f"{workload:<14} {m['name']:<18} missing in {'base' if not a else 'new'}")
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = (mb - ma) / ma
            worse = change if m["better"] == "lower" else -change
            spreads = [spread(a), spread(b)]
            wide = any(s is None or s > m["bound"] for s in spreads)
            if m["better"] == "lower":
                all_better = max(b) < min(a)
            else:
                all_better = min(b) > max(a)
            if wide and not all_better:
                verdict = "unresolved"
            elif worse > m["bound"]:
                verdict, regressed = "REGRESSED", True
            elif -worse > m["bound"] or (wide and all_better):
                verdict = "improved"
            else:
                verdict = "within bound"
            shown = max((s for s in spreads if s is not None), default=float("nan"))
            print(f"{workload:<14} {m['name']:<18} {ma:>12.6g} {mb:>12.6g} {change:>+8.1%} "
                  f"{shown:>7.1%} {m['bound']:>6.0%}  {verdict}")
    return 1 if regressed else 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "--compare":
        if len(sys.argv) != 4:
            print("usage: run.py --compare BASE NEW", file=sys.stderr)
            return 2
        return compare(sys.argv[2], sys.argv[3])
    parser = argparse.ArgumentParser(description="PODS job benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    try:
        return run(args)
    except subprocess.TimeoutExpired as e:
        print(f"jobbench: timed out: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
