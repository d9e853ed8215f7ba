"""Command-line surface tying the analysis pipeline together.

Subcommands: validate, keyrate, simulate, bounds, montecarlo, phasestab.
Exit codes: 0 success, 2 validation failure, 3 schema error, 4 I/O error.
All stochastic commands are deterministic given --seed, apart from the wall
times and the throughput (slots per second) that a Monte Carlo outcome file
records in its "provenance".
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import decoy, keyrate, model, montecarlo
from ._version import __version__

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SCHEMA = 3
EXIT_IO = 4

_DATA = resources.files("tfqkd") / "data"
DEFAULT_PARAMS = str(_DATA / "field_trial_params.json")
DEFAULT_COUNTS = str(_DATA / "field_trial_counts.json")


class SchemaError(Exception):
    pass


def _load_bundle(path: str, structural: bool = True) -> dict:
    """The parameter file's bundle (``model.load_params_file``).  A file
    that holds no parameter set is a schema error, and so is one that fails
    one of ``model.structural_checks``, unless ``structural`` is False
    (``validate`` reports those checks itself, with exit 2)."""
    try:
        bundle = model.load_params_file(path)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"parameter file {path}: {exc}") from exc
    if structural:
        failed = [f"{c.name} ({c.detail})" for c in
                  model.structural_checks(bundle["protocol"]) if not c.passed]
        if failed:
            raise SchemaError(f"parameter file {path} fails the structural "
                              f"checks {'; '.join(failed)}")
    return bundle


# Domains of numeric flag values: what a schema error says, and the test.
FINITE = ("finite", math.isfinite)
POSITIVE = ("finite and positive", lambda v: math.isfinite(v) and v > 0)
NON_NEGATIVE = ("finite and non-negative",
                lambda v: math.isfinite(v) and v >= 0)


def _check(flag: str, value, domain) -> None:
    """Reject a flag value outside its domain; None (flag unset) passes."""
    what, ok = domain
    if value is not None and not ok(value):
        raise SchemaError(f"{flag} must be {what}, got {value}")


def _parse_sweep(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise SchemaError(f"--sweep-db expects a:b:step, got {spec!r}") from exc
    for value, domain in ((start, NON_NEGATIVE), (stop, NON_NEGATIVE),
                          (step, POSITIVE)):
        _check("--sweep-db", value, domain)
    if stop < start:
        raise SchemaError(f"--sweep-db range {spec!r} ends before it starts")
    try:
        sweep = np.arange(start, stop + 0.5 * step, step)
    except (ValueError, MemoryError) as exc:    # more points than numpy holds
        raise SchemaError(f"--sweep-db range {spec!r}: {exc}") from exc
    if not sweep.size:      # start + step / 2 rounds to start
        raise SchemaError(f"--sweep-db range {spec!r} holds no point")
    return sweep


def _write_text(text: str, out: str | None):
    """Write text to --out, else to stdout ending in one newline."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _write_rows(rows: list[dict], out: str | None, fmt: str):
    if fmt == "json":
        # JSON has no literal for inf or NaN: a non-finite value is null.
        text = json.dumps([{k: v if math.isfinite(v) else None
                            for k, v in row.items()} for row in rows],
                          indent=2)
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
        text = buf.getvalue()
    _write_text(text, out)


def cmd_validate(args) -> int:
    _check("--tolerance", args.tolerance, NON_NEGATIVE)
    bundle = _load_bundle(args.params, structural=False)
    report = model.validate_params(bundle["protocol"], tolerance=args.tolerance)
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_keyrate(args) -> int:
    bundle = _load_bundle(args.params)
    try:
        # Text not UTF-8 or not JSON raises ValueError, as a bad count does.
        counts = decoy.DecoyCounts.from_counts_dict(
            json.loads(Path(args.counts).read_text()), bundle["protocol"])
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"counts file {args.counts}: {exc}") from exc
    report = keyrate.analyze_counts(counts, bundle["protocol"], bundle["security"])
    _write_text(json.dumps(report.as_dict(), indent=2), args.out)
    return EXIT_OK


def cmd_simulate(args) -> int:
    bundle = _load_bundle(args.params)
    det = bundle["detector"]
    if det is None:
        raise SchemaError("simulate needs detector keys in the parameter file")
    _check("--n-tot", args.n_tot, POSITIVE)
    _check("--attenuation", args.attenuation, POSITIVE)
    _check("--arm-delta-db", args.arm_delta_db, FINITE)
    sweep = _parse_sweep(args.sweep_db)
    rows = keyrate.skr_vs_distance(
        sweep, bundle["protocol"], det, bundle["security"],
        n_tot=args.n_tot,
        visibility=bundle["extras"]["visibility"],
        misalignment_sigma_rad=bundle["extras"]["misalignment_sigma_rad"],
        arm_delta_db=args.arm_delta_db,
        attenuation_db_per_km=args.attenuation,
    )
    _write_rows(rows, args.out, args.format)
    return EXIT_OK


def cmd_bounds(args) -> int:
    """One ``bounds.capacity_point`` row per --sweep-db point, on simulate's
    link there (``keyrate.split_loss_link``).  A point outside its domain
    (eta rounding to 1: the capacities diverge) is a schema error naming it."""
    bundle = _load_bundle(args.params)
    det = bundle["detector"]
    if det is None:
        raise SchemaError("bounds needs detector keys in the parameter file")
    _check("--arm-delta-db", args.arm_delta_db, FINITE)
    sweep = _parse_sweep(args.sweep_db)
    dark_per_gate = det.dark_prob(bundle["protocol"].clock_rate_hz)
    rows = []
    for loss in sweep:
        etas = model.transmissivities(keyrate.split_loss_link(
            loss, bundle["protocol"], args.arm_delta_db))
        try:
            rows.append(bounds_mod.capacity_point(
                loss, *etas, det.efficiency, dark_per_gate))
        except ValueError as exc:
            raise SchemaError(f"--sweep-db point {loss} dB: {exc}") from exc
    _write_rows(rows, args.out, args.format)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    bundle = _load_bundle(args.params)
    det = bundle["detector"]
    link = bundle["link"]
    if det is None or link is None:
        raise SchemaError("montecarlo needs link and detector keys in the "
                          "parameter file")
    if not montecarlo.MIN_SLOTS <= args.slots < montecarlo.MAX_SLOTS:
        raise SchemaError(f"--slots must be at least {montecarlo.MIN_SLOTS} "
                          f"and below 2^55, got {args.slots}")
    _check("--seed", args.seed, NON_NEGATIVE)
    _check("--loss-db", args.loss_db, NON_NEGATIVE)
    if args.loss_db is not None:
        link = keyrate.split_loss_link(args.loss_db, bundle["protocol"])
    cfg = montecarlo.PhaseConfig(
        regime=args.regime,
        residual_sigma=bundle["extras"]["misalignment_sigma_rad"])
    visibility = bundle["extras"]["visibility"]
    try:
        outcome = montecarlo.run_protocol(
            bundle["protocol"], link, det, cfg, n_slots=args.slots,
            seed=args.seed, visibility=visibility)
    except model.PatternError as exc:
        raise SchemaError(f"--slots {args.slots} is too few: {exc}") from exc
    except montecarlo.FeedbackDivergence as exc:
        # As in phasestab: only a long slot drives a loop past its bound.
        raise SchemaError(
            f"parameter file {args.params}: a slot of 1/(clock_rate_hz * "
            f"duty_cycle) = {1.0 / bundle['protocol'].protocol_rate_hz:g} s "
            f"is too long for the phase loops: {exc}") from exc
    # The inputs the run saw, after --loss-db, in canonical JSON.
    inputs = {"protocol": dataclasses.asdict(bundle["protocol"]),
              "link": dataclasses.asdict(link),
              "detector": dataclasses.asdict(det),
              "phase": dataclasses.asdict(cfg),
              "visibility": visibility}
    provenance = {
        "version": __version__,
        "params_sha256": hashlib.sha256(
            json.dumps(inputs, sort_keys=True).encode()).hexdigest(),
        "seed": outcome.seed,
        "n_slots": outcome.n_slots,
        "wall_s": outcome.wall_s,
        "slots_per_s": outcome.n_slots / outcome.wall_s,
        "stage_s": outcome.stage_s,
        "candidates": outcome.candidates,
        "accepted": outcome.accepted,
        "batches": outcome.batches,
        "ground_truth": outcome.ground_truth,
    }
    out = Path(args.out) if args.out else Path("simoutcome.json")
    out.write_text(json.dumps({**outcome.counts.to_counts_dict(),
                               "provenance": provenance}, indent=2))
    # One unpacked property at a time: each is as large as the key.
    np.savez_compressed(
        out.with_suffix(".keys.npz"),
        alice=np.packbits(outcome.raw_keys.alice_bits),
        bob=np.packbits(outcome.raw_keys.bob_bits),
        tags=np.packbits(outcome.raw_keys.tags),
        n_bits=outcome.raw_keys.length,
    )
    _write_trace_csv(outcome.phase_trace, out.with_suffix(".phase.csv"))
    print(json.dumps({
        "out": str(out),
        **provenance,
        "qber_z": outcome.raw_keys.error_rate(),
        "qber_xuu": outcome.counts.qber_xuu,
        "qber_xvv": outcome.counts.qber_xvv,
        "raw_key_bits": outcome.raw_keys.length,
    }, indent=2))
    return EXIT_OK


def _write_trace_csv(trace: montecarlo.PhaseTrace, path: Path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", "delta_phi_rad"])
        writer.writerows(zip(trace.times_s, trace.delta_phi_rad))


def cmd_phasestab(args) -> int:
    if not 0 < args.steps < montecarlo.MAX_SLOTS:
        raise SchemaError(f"--steps must be positive and below 2^55, "
                          f"got {args.steps}")
    _check("--dt", args.dt, POSITIVE)
    _check("--seed", args.seed, NON_NEGATIVE)
    cfg = montecarlo.PhaseConfig(regime=args.regime)
    try:
        trace = montecarlo.simulate_phase_trace(cfg, n_steps=args.steps,
                                                dt=args.dt, seed=args.seed)
    except montecarlo.FeedbackDivergence as exc:
        # With the default gains only a long step (drift ~ sqrt(dt))
        # drives a loop past its divergence bound.
        raise SchemaError(f"--dt {args.dt} s is too long a step for the "
                          f"phase loops: {exc}") from exc
    if args.out:
        _write_trace_csv(trace, Path(args.out))
    print(json.dumps({
        "regime": trace.regime,
        "residual_std_rad": trace.residual_std(),
        "mean_offset_rad": trace.mean_offset(),
    }, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="tfqkd",
                                description="Twin-field QKD analysis toolkit")
    sub = p.add_subparsers(dest="cmd", required=True)

    shared = {
        "--params": dict(default=DEFAULT_PARAMS,
                         help="parameter JSON (default: bundled fixture)"),
        "--counts": dict(default=DEFAULT_COUNTS,
                         help="counts JSON (default: bundled fixture)"),
        "--out": dict(default=None, help="output file"),
        "--format": dict(choices=("csv", "json"), default="csv"),
        "--seed": dict(type=int, default=1),
        "--sweep-db": dict(default="10:60:2", help="a:b:step in dB"),
        "--arm-delta-db": dict(type=float, default=None, help=(
            "extra loss on the A arm when keyrate.split_loss_link splits a "
            "total loss; default balances the detected v fluxes")),
    }

    def common(sp, *flags):
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    sp = sub.add_parser("validate", help="check parameter constraints")
    common(sp, "--params")
    sp.add_argument("--tolerance", type=float, default=0.02,
                    help="relative tolerance on the security condition")
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("keyrate", help="counts -> secret key rate report")
    common(sp, "--params", "--counts", "--out")
    sp.set_defaults(func=cmd_keyrate)

    sp = sub.add_parser("simulate", help="analytic key-rate sweep vs loss")
    common(sp, "--params", "--out", "--format", "--sweep-db",
           "--arm-delta-db")
    sp.add_argument("--n-tot", type=float, default=1.36581e13)
    sp.add_argument("--attenuation", type=float, default=0.22,
                    help="dB/km used to convert loss to length (approximate)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("bounds", help="capacity bounds sweep vs loss "
                        "(SKC1 asym over simulate's arm split)")
    common(sp, "--params", "--out", "--format", "--sweep-db",
           "--arm-delta-db")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("montecarlo", help="stochastic protocol run")
    common(sp, "--params", "--out", "--seed")
    sp.add_argument("--slots", type=int, default=1_000_000)
    sp.add_argument("--loss-db", type=float, default=None,
                    help="override the link with this total loss, split "
                         "over the arms as in simulate and bounds "
                         "(keyrate.split_loss_link, flux-balanced)")
    sp.add_argument("--regime", default="ideal",
                    choices=("free", "coarse", "full", "ideal"))
    sp.set_defaults(func=cmd_montecarlo)

    sp = sub.add_parser("phasestab", help="phase stabilisation trace")
    common(sp, "--out", "--seed")
    sp.add_argument("--regime", default="full",
                    choices=("free", "coarse", "full"))
    sp.add_argument("--steps", type=int, default=200_000)
    sp.add_argument("--dt", type=float, default=1e-5)
    sp.set_defaults(func=cmd_phasestab)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (IOError, OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
