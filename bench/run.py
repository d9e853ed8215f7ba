"""tfqkd benchmark: one workload per invocation, closed loop, one thread.

    python3 bench/run.py --workload analytic --seed 1 --seconds 20 --trace 0

Workloads and metrics are the ones BENCHMARK.json names; README.md says why
each exists.  The command starts SETUP_SAMPLES worker processes one after
the other.  Each sets up (interpreter start, import, fixtures, seeded
inputs, warm-up calls), and setup_s is the median of their set-up times,
each divided by the host's slowdown (hostspeed.py).
The last worker then measures for --seconds and reports; with --trace 1 a
single worker measures with the layers traced and reports the per-layer
metrics.

Standard output ends with one JSON line: correct, attempted, failed and
metrics.  The same result, with its provenance, is written to
.bench_results/<workload>-seed<seed>-trace<trace>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"
FIXTURES = [ROOT / "src" / "tfqkd" / "data" / name
            for name in ("field_trial_params.json", "field_trial_counts.json")]
OUT_DIR = ROOT / ".bench_results"
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
SINGLE_THREAD = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                  "MKL_NUM_THREADS")}


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or None


def _worker(args, setup_only: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.toy:
        cmd.append("--toy")
    started = time.monotonic()
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          env={**os.environ, **SINGLE_THREAD},
                          timeout=max(deadline - started, 1.0))
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {done.returncode}")
    out = json.loads(lines[-1])
    out["setup_raw_s"] = out["ready_at"] - started
    out["setup_s"] = out["setup_raw_s"] / out["setup_slowdown"]
    return out


def main(argv=None) -> int:
    started = time.monotonic()
    if not SPEC.is_file():
        print(f"missing {SPEC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="toy input sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "tfqkd" / "__init__.py").is_file():
        print(f"no tfqkd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = started + TIME_LIMIT_S
    try:
        setups = [_worker(args, True, deadline)
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        run = _worker(args, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    setups.append(run)

    values = dict(run["values"])
    if not args.trace:
        values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in wanted}:
        print(f"metrics {sorted(values)} do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    details = run["details"]
    versions = details.pop("versions")
    provenance = {
        "tfqkd_version": versions.pop("tfqkd"),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "fixtures_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                            for p in FIXTURES},
        "n_slots_per_call": details["mc_slots_per_call"],
        "versions": versions,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "phases_s": {
            "setup_per_process": [s["setup_raw_s"] for s in setups],
            "setup_slowdown": [s["setup_slowdown"] for s in setups],
            "worker": run["phases"],
            "total": time.monotonic() - started,
        },
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"result": result, "provenance": provenance,
                                "details": details}, indent=2))
    for name, m in result["metrics"].items():
        print(f"{args.workload:9s} {name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload:9s} attempted {result['attempted']}, "
          f"failed {result['failed']}; full result in {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
