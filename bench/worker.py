"""One benchmark workload in one process: set up, then measure and report.

Started by run.py, never by hand.  The process imports tfqkd from the
checkout's src/, reads the bundled fixtures, makes the seeded inputs,
prepares the references the checks use and warms every call kind up.  It
then prints one JSON line and exits (``--setup-only``), or measures for
``--seconds`` and prints one JSON line with the measured values.

Both lines carry ``ready_at``, the CLOCK_MONOTONIC reading when set-up
ended, from which run.py takes the set-up time, and ``setup_slowdown``, the
host's slowdown (hostspeed.py) over two readings, one taken once numpy is
imported and one once set-up has ended, by which run.py divides it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".bench_results"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--toy", action="store_true")
    args = ap.parse_args(argv)

    phases = {}
    t = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import hostspeed
    hostspeed.reading()     # the first run pays one-time costs
    readings = [hostspeed.reading()]
    import scipy

    import tfqkd
    if not Path(tfqkd.__file__).resolve().is_relative_to(SRC):
        print(f"tfqkd imported from {tfqkd.__file__}, not {SRC}",
              file=sys.stderr)
        return 1
    import workloads as wl
    from tracing import Tracer
    phases["import_s"] = time.perf_counter() - t

    t = time.perf_counter()
    bench = wl.load(args.workload, args.seed, wl.TOY if args.toy else wl.FULL)
    bench.prepare()
    phases["inputs_s"] = time.perf_counter() - t
    t = time.perf_counter()
    bench.warm_up()
    phases["warm_up_s"] = time.perf_counter() - t
    ready_at = time.monotonic()
    readings.append(hostspeed.reading())
    setup_slowdown = hostspeed.slowdown(readings, ("loops", "arrays"))
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at, "phases": phases,
                          "setup_slowdown": setup_slowdown}))
        return 0

    if args.trace:
        bench.tracer = Tracer()
    t = time.perf_counter()
    rounds = bench.measure(args.seconds)
    phases["measure_s"] = time.perf_counter() - t
    if args.trace:
        values = wl.per_layer(bench)
        OUT_DIR.mkdir(exist_ok=True)
        bench.tracer.dump(OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json")
    else:
        values = wl.end_to_end(bench)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps({
        "ready_at": ready_at,
        "setup_slowdown": setup_slowdown,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "values": values,
        "phases": phases,
        "details": {
            "rounds": rounds,
            "timed_calls": {k: len(v) for k, v in bench.samples.items()},
            "traced_calls": {k: len(v) for k, v in bench.traced.items()},
            "calls": bench.calls,
            "mc_call_s": bench.samples["mc"],
            "raw_median_s": {k: float(numpy.median(v))
                             for k, v in bench.samples.items() if v},
            "median_slowdown": {k: float(numpy.median(v))
                                for k, v in bench.hosts.items() if v},
            "sweep_call_s": bench.samples["sweep"],
            "mc_slots_per_call": bench.mc.n_slots,
            "mc_regime": bench.mc.phase.regime,
            "sweep_points": len(bench.sizes.sweep_db),
            "count_replicas": len(bench.replicas),
            "versions": {"tfqkd": tfqkd.__version__,
                         "numpy": numpy.__version__,
                         "scipy": scipy.__version__,
                         "python": sys.version.split()[0]},
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
