"""In-process stage timings of run_protocol on the benchmark's inputs.

    PYTHONPATH=src python tests/stage_timings.py [WORKLOAD ...]
        [--calls N] [--seed S]

Makes N seeded ``run_protocol`` calls per workload (mc-metro, mc-field and
the analytic workload's spot check; default all three), with the link,
detector, phase regime and slot count of ``bench/workloads.mc_config`` and
the seeds of ``bench/workloads.mc_seed``, after one untimed warm-up call.
Prints the median and quartiles of ``wall_s`` and of each ``stage_s``
entry, in milliseconds per call.  Point PYTHONPATH at another checkout's
``src`` to time that code on the same inputs; alternate the two runs when
comparing.  pytest does not collect this file.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads                                      # noqa: E402
from tfqkd import model, montecarlo                  # noqa: E402


def timings(workload: str, calls: int, seed: int) -> dict:
    """wall_s and stage_s of each call, seconds, by name."""
    bundle = model.load_params_file(workloads.PARAMS_PATH)
    cfg = workloads.mc_config(bundle, workload, workloads.FULL)
    vis = bundle["extras"]["visibility"]

    def call(i):
        return montecarlo.run_protocol(
            bundle["protocol"], cfg.link, cfg.det, cfg.phase, cfg.n_slots,
            seed=workloads.mc_seed(seed, i), visibility=vis)

    call(0)
    out = {}
    for i in range(calls):
        run = call(i)
        for name, s in {"wall_s": run.wall_s, **run.stage_s}.items():
            out.setdefault(name, []).append(s)
    return out


def main(argv=None) -> None:
    names = ("mc-metro", "mc-field", "analytic")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(names)} (default all)")
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if set(args.workloads) - set(names):
        parser.error(f"workloads are {', '.join(names)}")
    for workload in args.workloads or names:
        print(f"{workload}: {args.calls} calls, seed {args.seed}, ms per call"
              " (median, quartiles)")
        for name, s in timings(workload, args.calls, args.seed).items():
            q1, med, q3 = 1e3 * np.percentile(s, [25, 50, 75])
            print(f"  {name:<9} {med:9.4f}  [{q1:.4f}, {q3:.4f}]")


if __name__ == "__main__":
    main()
