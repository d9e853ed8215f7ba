"""Command-line surface tying the analysis pipeline together.

Subcommands: validate, keyrate, simulate, bounds, montecarlo, phasestab.
Exit codes: 0 success, 2 validation failure, 3 schema error, 4 I/O error.
All stochastic commands are deterministic given --seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from . import decoy, keyrate, model, montecarlo

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SCHEMA = 3
EXIT_IO = 4

_DATA = resources.files("tfqkd") / "data"
DEFAULT_PARAMS = str(_DATA / "field_trial_params.json")
DEFAULT_COUNTS = str(_DATA / "field_trial_counts.json")


class SchemaError(Exception):
    pass


def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise IOError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _load_bundle(path: str) -> dict:
    raw = _load_json(path)
    try:
        return model.load_params_file_from_dict(raw)
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"parameter file {path}: {exc}") from exc


def _require_positive(args, *flags: str):
    """Reject a flag whose value is not a positive number."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if not value > 0:
            raise SchemaError(f"{flag} must be positive, got {value}")


def _parse_sweep(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise SchemaError(f"--sweep-db expects a:b:step, got {spec!r}") from exc
    if step <= 0 or stop < start:
        raise SchemaError(f"bad sweep range {spec!r}")
    return np.arange(start, stop + 0.5 * step, step)


def _write_rows(rows: list[dict], out: str | None, fmt: str):
    if fmt == "json":
        text = json.dumps(rows, indent=2)
    else:
        if not rows:
            text = ""
        else:
            import io

            buf = io.StringIO()
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
            text = buf.getvalue()
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text + ("\n" if not text.endswith("\n") else ""))


def cmd_validate(args) -> int:
    bundle = _load_bundle(args.params)
    report = model.validate_params(bundle["protocol"], tolerance=args.tolerance)
    print(json.dumps(report.as_dict(), indent=2))
    return EXIT_OK if report.ok else EXIT_VALIDATION


def cmd_keyrate(args) -> int:
    bundle = _load_bundle(args.params)
    raw_counts = _load_json(args.counts)
    try:
        counts = decoy.DecoyCounts.from_counts_dict(raw_counts, bundle["protocol"])
    except KeyError as exc:
        raise SchemaError(f"counts file {args.counts}: {exc}") from exc
    report = keyrate.analyze_counts(counts, bundle["protocol"], bundle["security"])
    text = json.dumps(report.as_dict(), indent=2)
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    bundle = _load_bundle(args.params)
    det = bundle["detector"]
    if det is None:
        raise SchemaError("simulate needs detector keys in the parameter file")
    _require_positive(args, "--n-tot", "--attenuation")
    sweep = _parse_sweep(args.sweep_db)
    if sweep[0] < 0:
        raise SchemaError(f"--sweep-db losses must be non-negative, "
                          f"got {args.sweep_db!r}")
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
    bundle = _load_bundle(args.params)
    det = bundle["detector"]
    if det is None:
        raise SchemaError("bounds needs detector keys in the parameter file")
    sweep = _parse_sweep(args.sweep_db)
    dark_per_use = det.dark_prob_per_use(bundle["protocol"].protocol_rate_hz)
    rows = bounds_mod.capacity_sweep(sweep, det.efficiency, dark_per_use,
                                     asym_split_fraction=args.asym_split)
    _write_rows(rows, args.out, args.format)
    return EXIT_OK


def cmd_montecarlo(args) -> int:
    bundle = _load_bundle(args.params)
    det = bundle["detector"]
    link = bundle["link"]
    if det is None or link is None:
        raise SchemaError("montecarlo needs link and detector keys in the "
                          "parameter file")
    if args.slots < montecarlo.MIN_SLOTS:
        raise SchemaError(f"--slots must be at least {montecarlo.MIN_SLOTS}, "
                          f"got {args.slots}")
    if args.loss_db is not None:
        if args.loss_db < 0:
            raise SchemaError(f"--loss-db must be non-negative, "
                              f"got {args.loss_db}")
        link = keyrate.split_loss_link(args.loss_db, bundle["protocol"])
    cfg = montecarlo.PhaseConfig(
        regime=args.regime,
        residual_sigma=bundle["extras"]["misalignment_sigma_rad"])
    outcome = montecarlo.run_protocol(
        bundle["protocol"], link, det, cfg, n_slots=args.slots,
        seed=args.seed, visibility=bundle["extras"]["visibility"])
    out = Path(args.out) if args.out else Path("simoutcome.json")
    out.write_text(json.dumps(outcome.counts.to_counts_dict(), indent=2))
    np.savez_compressed(
        out.with_suffix(".keys.npz"),
        alice=np.packbits(outcome.raw_keys.alice_bits),
        bob=np.packbits(outcome.raw_keys.bob_bits),
        tags=np.packbits(outcome.raw_keys.tags.astype(np.uint8)),
        n_bits=outcome.raw_keys.length,
    )
    _write_trace_csv(outcome.phase_trace, out.with_suffix(".phase.csv"))
    print(json.dumps({
        "out": str(out),
        "n_slots": outcome.n_slots,
        "wall_s": outcome.wall_s,
        "stage_s": outcome.stage_s,
        "candidates": outcome.candidates,
        "batches": outcome.batches,
        "accepted": outcome.accepted,
        "qber_z": outcome.qber_z,
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
    _require_positive(args, "--steps", "--dt")
    cfg = montecarlo.PhaseConfig(regime=args.regime)
    trace = montecarlo.simulate_phase_trace(cfg, n_steps=args.steps,
                                            dt=args.dt, seed=args.seed)
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
    common(sp, "--params", "--out", "--format")
    sp.add_argument("--sweep-db", default="10:60:2", help="a:b:step in dB")
    sp.add_argument("--n-tot", type=float, default=1.36581e13)
    sp.add_argument("--arm-delta-db", type=float, default=None,
                    help="extra loss on the A arm; default balances the "
                         "detected v fluxes")
    sp.add_argument("--attenuation", type=float, default=0.22,
                    help="dB/km used to convert loss to length (approximate)")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("bounds", help="capacity bounds sweep vs loss")
    common(sp, "--params", "--out", "--format")
    sp.add_argument("--sweep-db", default="10:60:2", help="a:b:step in dB")
    sp.add_argument("--asym-split", type=float, default=0.6,
                    help="fraction of the loss on the A arm for SKC1 asym")
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("montecarlo", help="stochastic protocol run")
    common(sp, "--params", "--out", "--seed")
    sp.add_argument("--slots", type=int, default=1_000_000)
    sp.add_argument("--loss-db", type=float, default=None,
                    help="override the link with this total loss, split "
                         "over the arms as in simulate")
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
