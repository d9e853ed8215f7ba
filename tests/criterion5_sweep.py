"""Criterion-5 and criterion-7 seed sweeps: how often a gate trips, and on
what.

    PYTHONPATH=src python tests/criterion5_sweep.py [FIRST LAST]
        [--gate {category,field-deadtime,x-qber,lock}] [--jobs N]

Reruns the run of one of ``test_acceptance``'s seeded gates at every seed
from FIRST to LAST (default: 1000 seeds from the gate's pinned seed) and
prints how many runs trip it.  The criterion-5 gates check max |z| <= 3
over their statistics and also print each statistic's mean z over the
seeds with its standard error:

* ``category``: the 25 dB criterion-5 link, 1e8 slots, z of each of the 25
  categories against ``expected_rates_model`` (default seeds 2026-3025,
  the gate's pinned seed first);
* ``field-deadtime``: the bundled field link and detector (10 us
  deadtime), ``full`` drift regime, 1e10 slots, the same 25 z (default
  seeds 2029-3028);
* ``x-qber``: the criterion-5 link at 4e9 slots, the binomial z of the
  XXvv and XXuu matched-window QBERs (default seeds 2027-3026).

``lock`` reruns criterion 7's two checks (``criterion7_stats``, default
seeds 41-1040): the coarse loop cuts the free residual std at least
``COARSE_REDUCTION``-fold, and the full loop's |mean offset| stays within
``LOCK_TOLERANCE``.  It prints the trips of each and the worst values.

A correct sampler trips the category gates on a few per cent of seeds and
the x-qber gate on about 0.5%, and keeps every mean z within a few
standard errors of 0.  pytest does not collect this file.
"""

import argparse
import math
import multiprocessing
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from conftest import PARAMS_PATH                      # noqa: E402
from test_acceptance import (                         # noqa: E402
    COARSE_REDUCTION, LOCK_TOLERANCE, category_z, criterion5_run,
    criterion7_stats, x_qber_z)
from tfqkd import keyrate, model                     # noqa: E402
from tfqkd.montecarlo import PhaseConfig, run_protocol  # noqa: E402

GATE = 3.0
CATEGORY_SLOTS = 100_000_000
FIELD_SLOTS = 10_000_000_000
X_QBER_SLOTS = 4_000_000_000


def _category_run(seed: int):
    params = model.load_params_file(PARAMS_PATH)["protocol"]
    return category_z(*criterion5_run(params, CATEGORY_SLOTS, seed))


def _field_deadtime_run(seed: int):
    bundle = model.load_params_file(PARAMS_PATH)
    params, link, det = bundle["protocol"], bundle["link"], bundle["detector"]
    visibility = bundle["extras"]["visibility"]
    out = run_protocol(params, link, det, PhaseConfig(regime="full"),
                       n_slots=FIELD_SLOTS, seed=seed, visibility=visibility)
    pred = keyrate.expected_rates_model(
        params, link, det, visibility=visibility,
        misalignment_sigma_rad=bundle["extras"]["misalignment_sigma_rad"],
        n_tot=FIELD_SLOTS)
    return category_z(out, pred)


def _x_qber_run(seed: int):
    params = model.load_params_file(PARAMS_PATH)["protocol"]
    return x_qber_z(*criterion5_run(params, X_QBER_SLOTS, seed))


# Gate name: (its statistics at a seed, the gate's pinned seed).
GATES = {"category": (_category_run, 2026),
         "field-deadtime": (_field_deadtime_run, 2029),
         "x-qber": (_x_qber_run, 2027),
         "lock": (criterion7_stats, 41)}


def z_report(rows: list, seeds: range) -> str:
    """Trips of max |z| <= GATE, and each statistic's mean z."""
    names = list(rows[0])
    z = np.array([list(row.values()) for row in rows])
    worst = np.abs(z).max(axis=1)
    trips = int(np.count_nonzero(worst > GATE))
    lines = [f"{trips} trip the max |z| <= {GATE:g} gate "
             f"({100.0 * trips / len(seeds):.1f}%)"
             + (f"; seed {seeds[0]} trips" if worst[0] > GATE else "")]
    se = z.std(axis=0, ddof=1) / math.sqrt(len(seeds))
    for k, m, s in zip(names, z.mean(axis=0), se):
        lines.append(f"  {k}  mean z {m:+.3f} +- {s:.3f}"
                     + ("  <- beyond 3 s.e." if abs(m) > 3.0 * s else ""))
    return "\n".join(lines)


def lock_report(rows: list, seeds: range) -> str:
    """Trips of criterion 7's two checks, and the worst value of each."""
    ratio = np.array([row["ratio"] for row in rows])
    offset = np.array([row["offset"] for row in rows])
    low = int(np.count_nonzero(ratio < COARSE_REDUCTION))
    far = int(np.count_nonzero(offset > LOCK_TOLERANCE))
    return (f"{low} trip the coarse reduction >= {COARSE_REDUCTION:g}x and "
            f"{far} the |offset| <= {LOCK_TOLERANCE:g} rad lock\n"
            f"  ratio: min {ratio.min():.2f} (seed {seeds[ratio.argmin()]}),"
            f" median {np.median(ratio):.2f}\n"
            f"  |offset|: max {offset.max():.4f} (seed "
            f"{seeds[offset.argmax()]}), median {np.median(offset):.4f}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=int, nargs="?")
    parser.add_argument("last", type=int, nargs="?")
    parser.add_argument("--gate", choices=tuple(GATES), default="category")
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    run, pinned = GATES[args.gate]
    first = pinned if args.first is None else args.first
    last = first + 999 if args.last is None else args.last
    seeds = range(first, last + 1)
    start = time.perf_counter()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(args.jobs, mp_context=spawn) as pool:
        rows = list(pool.map(run, seeds, chunksize=8))
    report = lock_report if args.gate == "lock" else z_report
    print(f"{args.gate} gate, {len(seeds)} seeds {first}-{last}, "
          f"{time.perf_counter() - start:.0f} s: " + report(rows, seeds))


if __name__ == "__main__":
    main()
