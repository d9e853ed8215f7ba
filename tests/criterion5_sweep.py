"""Criterion-5 seed sweep: how often the category gate trips, and on what.

    PYTHONPATH=src python tests/criterion5_sweep.py [FIRST LAST] [--jobs N]

Reruns the run of ``test_acceptance``'s criterion-5 category gate (the
25 dB criterion-5 link, 1e8 slots) at every seed from FIRST to LAST
(default 2026-3025, the gate's pinned seed first) and prints how many runs
trip the gate, max |z| <= 3 over the 25 categories, and each category's
mean z over the seeds with its standard error.  A correct sampler trips on
a few per cent of seeds and keeps every mean z within a few standard
errors of 0.  pytest does not collect this file.
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
from test_acceptance import criterion5_run           # noqa: E402
from tfqkd import decoy, model                        # noqa: E402

N_SLOTS = 100_000_000
GATE = 3.0


def _detected(seed: int) -> list:
    params = model.load_params_file(PARAMS_PATH)["protocol"]
    out, _ = criterion5_run(params, N_SLOTS, seed)
    return [out.counts.detected[k] for k in decoy.CATEGORIES]


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("first", type=int, nargs="?", default=2026)
    parser.add_argument("last", type=int, nargs="?", default=3025)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = range(args.first, args.last + 1)
    params = model.load_params_file(PARAMS_PATH)["protocol"]
    _, pred = criterion5_run(params, N_SLOTS, args.first)
    mean = np.array([pred.detected[k] for k in decoy.CATEGORIES])
    sigma = np.maximum(np.sqrt(mean), 1.0)
    start = time.perf_counter()
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(args.jobs, mp_context=spawn) as pool:
        z = (np.array(list(pool.map(_detected, seeds, chunksize=8)))
             - mean) / sigma
    worst = np.abs(z).max(axis=1)
    trips = int(np.count_nonzero(worst > GATE))
    print(f"{len(seeds)} seeds {args.first}-{args.last}, "
          f"{time.perf_counter() - start:.0f} s: {trips} trip the "
          f"max |z| <= {GATE:g} gate ({100.0 * trips / len(seeds):.1f}%)"
          + (f"; seed {args.first} trips" if worst[0] > GATE else ""))
    se = z.std(axis=0, ddof=1) / math.sqrt(len(seeds))
    for k, m, s in zip(decoy.CATEGORIES, z.mean(axis=0), se):
        print(f"  {k}  mean z {m:+.3f} +- {s:.3f}"
              + ("  <- beyond 3 s.e." if abs(m) > 3.0 * s else ""))


if __name__ == "__main__":
    main()
