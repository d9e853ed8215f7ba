"""In-process stage timings of run_protocol on the benchmark's inputs.

    PYTHONPATH=src python tests/stage_timings.py [WORKLOAD ...]
        [--calls N] [--seed S] [--against OTHER_SRC]

Makes N seeded ``run_protocol`` calls per workload (mc-metro, mc-field and
the analytic workload's spot check; default all three), with the link,
detector, phase regime and slot count of ``bench/workloads.mc_config`` and
the seeds of ``bench/workloads.mc_seed``, after one untimed warm-up call.
Prints the median and quartiles of ``wall_s`` and of each ``stage_s``
entry, in milliseconds per call.

With ``--against OTHER_SRC`` (another checkout's ``src`` directory) the
package there is imported beside this one, under its own name, and each
seed runs once on both trees, alternating which goes first.  Prints the
median and quartiles of the paired ratios this tree / other of ``wall_s``
and each ``stage_s`` entry, the share of pairs whose ``wall_s`` is lower
on this tree, and the share whose outcomes are identical (the counts, the
raw key's event bytes and the phase trace; the two trees' dataclasses
never compare equal, so their contents are compared).  Pairing in one
process keeps the host's slow spells, which move separate runs' medians
by tens of percent within minutes, out of the ratio.  Both trees get this tree's parameter objects, so the other
tree must read the same fields.  pytest does not collect this file.
"""

import argparse
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads                                      # noqa: E402
from tfqkd import model, montecarlo                  # noqa: E402


def load_tree(src: str):
    """The ``montecarlo`` module of the tfqkd package under ``src``,
    imported as the package ``tfqkd_against``."""
    package = Path(src).resolve() / "tfqkd"
    spec = importlib.util.spec_from_file_location(
        "tfqkd_against", package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.montecarlo


def outcome_bytes(run) -> tuple:
    """The outcome of a run as plain values: counts, key events, trace."""
    trace = run.phase_trace
    return (json.dumps(run.counts.to_counts_dict(), sort_keys=True),
            run.raw_keys.events.tobytes(), trace.times_s.tobytes(),
            trace.delta_phi_rad.tobytes())


def timings(workload: str, calls: int, seed: int, trees) -> tuple:
    """Per tree, the wall_s and stage_s of each call, seconds, by name;
    and per call whether every tree's outcome is the same.

    Call i runs seed ``mc_seed(seed, i)`` on every tree, in turn, the
    first tree first on even i and last on odd i."""
    bundle = model.load_params_file(workloads.PARAMS_PATH)
    cfg = workloads.mc_config(bundle, workload, workloads.FULL)
    vis = bundle["extras"]["visibility"]

    def call(tree, i):
        return tree.run_protocol(
            bundle["protocol"], cfg.link, cfg.det, cfg.phase, cfg.n_slots,
            seed=workloads.mc_seed(seed, i), visibility=vis)

    for tree in trees:
        call(tree, 0)
    out = [{} for _ in trees]
    same = []
    for i in range(calls):
        turns = list(zip(trees, out))
        outcomes = set()
        for tree, record in turns if i % 2 == 0 else turns[::-1]:
            run = call(tree, i)
            for name, s in {"wall_s": run.wall_s, **run.stage_s}.items():
                record.setdefault(name, []).append(s)
            outcomes.add(outcome_bytes(run))
        same.append(len(outcomes) == 1)
    return out, same


def main(argv=None) -> None:
    names = ("mc-metro", "mc-field", "analytic")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(names)} (default all)")
    parser.add_argument("--calls", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="another checkout's src directory to pair with")
    args = parser.parse_args(argv)
    if set(args.workloads) - set(names):
        parser.error(f"workloads are {', '.join(names)}")
    trees = [montecarlo]
    if args.against:
        trees.append(load_tree(args.against))
    for workload in args.workloads or names:
        runs, same = timings(workload, args.calls, args.seed, trees)
        if not args.against:
            print(f"{workload}: {args.calls} calls, seed {args.seed}, ms per "
                  "call (median, quartiles)")
            for name, s in runs[0].items():
                q1, med, q3 = 1e3 * np.percentile(s, [25, 50, 75])
                print(f"  {name:<9} {med:9.4f}  [{q1:.4f}, {q3:.4f}]")
            continue
        print(f"{workload}: {args.calls} pairs, seed {args.seed}, ratio this "
              f"tree / {args.against} (median, quartiles)")
        for name, s in runs[0].items():
            ratio = np.array(s) / np.array(runs[1][name])
            q1, med, q3 = np.percentile(ratio, [25, 50, 75])
            line = f"  {name:<9} {med:7.4f}  [{q1:.4f}, {q3:.4f}]"
            if name == "wall_s":
                line += f"  faster in {np.mean(ratio < 1.0):.0%} of pairs"
            print(line)
        print(f"  outcomes identical in {np.mean(same):.0%} of pairs")


if __name__ == "__main__":
    main()
