import csv
import json
from pathlib import Path

import pytest

import tfqkd
from tfqkd import bounds, cli, keyrate, model, montecarlo
from tfqkd.decoy import CATEGORIES


def run_cli(args):
    return cli.main(args)


class TestValidate:
    def test_default_fixture_passes(self, capsys):
        assert run_cli(["validate"]) == cli.EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True

    def test_tight_tolerance_fails_with_deviation(self, capsys):
        assert run_cli(["validate", "--tolerance", "0.001"]) == cli.EXIT_VALIDATION
        out = json.loads(capsys.readouterr().out)
        failing = [c for c in out["checks"] if not c["passed"]]
        assert failing[0]["name"] == "asymmetric_security_condition"
        assert "0.79" in failing[0]["detail"] or "0.78" in failing[0]["detail"]

    def test_corrupted_params_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"s_A": 0.5}')
        assert run_cli(["validate", "--params", str(bad)]) == cli.EXIT_SCHEMA

    def test_missing_file_is_io_error(self):
        assert run_cli(["validate", "--params", "/nonexistent.json"]) == cli.EXIT_IO


class TestKeyrate:
    def test_field_fixture_rate(self, tmp_path):
        out = tmp_path / "report.json"
        assert run_cli(["keyrate", "--out", str(out)]) == cli.EXIT_OK
        report = json.loads(out.read_text())
        assert report["bits_per_second"] == pytest.approx(110.1, rel=0.2)
        assert report["r_per_signal"] == pytest.approx(2.20e-7, rel=0.2)

    def test_all_zero_counts_clean_zero_rate(self, tmp_path, capsys):
        raw = {f"Detected-{k}": 0 for k in CATEGORIES}
        raw["N_total_sent"] = 1e12
        raw["Xvv_error_rate"] = 0.0
        counts = tmp_path / "zero.json"
        counts.write_text(json.dumps(raw))
        assert run_cli(["keyrate", "--counts", str(counts)]) == cli.EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["r_per_signal"] == 0.0

    def test_missing_category_names_key(self, tmp_path, capsys):
        raw = {f"Detected-{k}": 1 for k in CATEGORIES if k != "XXvv"}
        raw["N_total_sent"] = 1e12
        counts = tmp_path / "partial.json"
        counts.write_text(json.dumps(raw))
        assert run_cli(["keyrate", "--counts", str(counts)]) == cli.EXIT_SCHEMA
        assert "Detected-XXvv" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("Detected-XXww", -1),                  # negative count
        ("Detected-XXww", 1e14),                # detected > sent
        ("Detected-XXww", float("nan")),
        ("Xvv_error_rate", float("nan")),
        ("Xuu_error_rate", 2.0),
        ("Xuu_error_rate", "0.05"),             # not a number
    ])
    def test_bad_counts_are_schema_errors(self, tmp_path, capsys, key, value):
        raw = json.loads(Path(cli.DEFAULT_COUNTS).read_text())
        raw[key] = value
        counts = tmp_path / "bad.json"
        counts.write_text(json.dumps(raw))
        assert run_cli(["keyrate", "--counts", str(counts)]) == cli.EXIT_SCHEMA
        assert "counts file" in capsys.readouterr().err


class TestBounds:
    def test_half_transmissivity_row(self, tmp_path):
        out = tmp_path / "bounds.csv"
        loss = "3.0103:3.0103:1"
        assert run_cli(["bounds", "--sweep-db", loss, "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert float(rows[0]["skc0"]) == pytest.approx(1.0, rel=1e-4)
        assert set(rows[0]) == {"loss_db", "skc0", "skc0_relative",
                                "skc1_sym", "skc1_asym", "noisy_ub", "valid"}

    def test_bad_sweep_spec(self):
        assert run_cli(["bounds", "--sweep-db", "oops"]) == cli.EXIT_SCHEMA

    def test_dark_counts_per_clock_gate(self, tmp_path, bundle):
        # The thermal bound charges the detector's dark counts per clock
        # gate, as run_protocol and expected_rates_model do, not per
        # protocol slot (twice as many at the bundled rates).
        out = tmp_path / "bounds.csv"
        assert run_cli(["bounds", "--sweep-db", "30:30:1",
                        "--out", str(out)]) == cli.EXIT_OK
        row = next(csv.DictReader(out.read_text().splitlines()))
        det = bundle["detector"]
        expected = bounds.capacity_point(
            30.0, det.efficiency,
            det.dark_prob(bundle["protocol"].clock_rate_hz))
        assert float(row["noisy_ub"]) == expected["noisy_ub"]


class TestSimulate:
    def test_monotone_sweep(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = run_cli(["simulate", "--sweep-db", "10:60:10",
                        "--out", str(out)])
        assert code == cli.EXIT_OK
        rows = list(csv.DictReader(out.read_text().splitlines()))
        rates = [float(r["skr_bit_per_pulse"]) for r in rows]
        assert len(rates) == 6
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_zero_rate_rows_retained(self, tmp_path):
        out = tmp_path / "deep.csv"
        run_cli(["simulate", "--sweep-db", "75:80:5", "--out", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2  # rows kept even when the rate is zero


class TestMonteCarlo:
    def test_roundtrip_into_keyrate(self, tmp_path):
        counts = tmp_path / "sim.json"
        code = run_cli(["montecarlo", "--slots", "200000", "--seed", "5",
                        "--loss-db", "12", "--out", str(counts)])
        assert code == cli.EXIT_OK
        assert counts.exists()
        assert counts.with_suffix(".keys.npz").exists()
        assert counts.with_suffix(".phase.csv").exists()
        assert run_cli(["keyrate", "--counts", str(counts)]) == cli.EXIT_OK

    def test_prints_stage_times_next_to_wall_time(self, tmp_path, capsys):
        assert run_cli(["montecarlo", "--slots", "100000", "--seed", "3",
                        "--out", str(tmp_path / "sim.json")]) == cli.EXIT_OK
        out = json.loads(capsys.readouterr().out)
        stages = out["stage_s"]
        assert list(stages) == ["draws", "phase", "thinning", "deadtime",
                                "tally"]
        assert all(s >= 0.0 for s in stages.values())
        assert sum(stages.values()) == pytest.approx(out["wall_s"])

    def test_deterministic_given_seed(self, tmp_path):
        # Everything but the run's wall times repeats.
        runs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run_cli(["montecarlo", "--slots", "100000", "--seed", "3",
                     "--loss-db", "10", "--out", str(path)])
            record = json.loads(path.read_text())
            del record["provenance"]["wall_s"], record["provenance"]["stage_s"]
            runs.append(record)
        assert runs[0] == runs[1]

    def test_outcome_file_carries_provenance(self, tmp_path):
        # The provenance rides beside the counts, and keyrate reads the
        # file as it reads the counts alone.
        out = tmp_path / "simoutcome.json"
        assert run_cli(["montecarlo", "--slots", "200000", "--seed", "7",
                        "--loss-db", "12", "--out", str(out)]) == cli.EXIT_OK
        record = json.loads(out.read_text())
        prov = record.pop("provenance")
        assert prov["version"] == tfqkd.__version__
        assert prov["seed"] == 7 and prov["n_slots"] == 200_000
        assert prov["batches"] >= 1
        assert 0 < prov["accepted"] <= prov["candidates"]
        assert sum(prov["stage_s"].values()) == pytest.approx(prov["wall_s"])
        assert set(prov["ground_truth"]) >= {"sn_sent", "s1_true"}
        counts_only = tmp_path / "counts.json"
        counts_only.write_text(json.dumps(record))
        reports = []
        for path in (out, counts_only):
            report = tmp_path / f"report-{path.stem}.json"
            assert run_cli(["keyrate", "--counts", str(path),
                            "--out", str(report)]) == cli.EXIT_OK
            reports.append(json.loads(report.read_text()))
        assert reports[0] == reports[1]

    def test_loss_db_uses_the_simulate_link(self, tmp_path):
        # --loss-db splits the loss as simulate does, and the phase residual
        # is the parameter file's misalignment width.
        out = tmp_path / "sim.json"
        assert run_cli(["montecarlo", "--slots", "100000", "--seed", "3",
                        "--loss-db", "10", "--out", str(out)]) == cli.EXIT_OK
        bundle = model.load_params_file(cli.DEFAULT_PARAMS)
        params = bundle["protocol"]
        cfg = montecarlo.PhaseConfig(
            regime="ideal",
            residual_sigma=bundle["extras"]["misalignment_sigma_rad"])
        direct = montecarlo.run_protocol(
            params, keyrate.split_loss_link(10.0, params), bundle["detector"],
            cfg, 100_000, seed=3, visibility=bundle["extras"]["visibility"])
        record = json.loads(out.read_text())
        del record["provenance"]
        assert record == direct.counts.to_counts_dict()


@pytest.mark.parametrize("argv, flag", [
    (["montecarlo", "--slots", "100"], "--slots"),
    (["phasestab", "--dt", "0"], "--dt"),
    (["phasestab", "--steps", "-5"], "--steps"),
    (["simulate", "--n-tot", "-1"], "--n-tot"),
    (["simulate", "--attenuation", "0"], "--attenuation"),
    (["montecarlo", "--loss-db", "-5"], "--loss-db"),
    (["simulate", "--sweep-db=-10:0:5"], "--sweep-db"),
    (["bounds", "--sweep-db=-10:0:5"], "--sweep-db"),
    (["simulate", "--sweep-db", "nan:10:2"], "--sweep-db"),
    (["bounds", "--sweep-db", "10:inf:2"], "--sweep-db"),
    (["bounds", "--sweep-db", "10:20:nan"], "--sweep-db"),
    (["montecarlo", "--loss-db", "nan"], "--loss-db"),
    (["montecarlo", "--loss-db", "inf"], "--loss-db"),
    (["montecarlo", "--seed", "-1"], "--seed"),
    (["simulate", "--arm-delta-db", "nan"], "--arm-delta-db"),
    (["simulate", "--n-tot", "inf"], "--n-tot"),
    (["bounds", "--asym-split", "nan"], "--asym-split"),
    (["bounds", "--asym-split", "1.5"], "--asym-split"),
    (["bounds", "--asym-split", "-0.5"], "--asym-split"),
    (["phasestab", "--dt", "inf"], "--dt"),
    (["phasestab", "--seed", "-1"], "--seed"),
])
def test_bad_flag_is_a_schema_error(argv, flag, tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli(argv + ["--out", str(out)]) == cli.EXIT_SCHEMA
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tolerance", ["nan", "-0.1", "inf"])
def test_bad_tolerance_is_a_schema_error(tolerance, capsys):
    assert run_cli(["validate", "--tolerance", tolerance]) == cli.EXIT_SCHEMA
    assert "--tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["loss_ac_db", "loss_bc_db", "length_ac_km",
                                 "dark_rate_hz", "deadtime_s"])
def test_nan_parameter_is_a_schema_error(key, tmp_path, capsys):
    raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
    raw[key] = float("nan")
    params = tmp_path / "nan.json"
    params.write_text(json.dumps(raw))     # json writes the NaN literal
    out = tmp_path / "sim.json"
    assert run_cli(["montecarlo", "--params", str(params), "--slots", "100000",
                    "--out", str(out)]) == cli.EXIT_SCHEMA
    assert "parameter file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["validate", "--out", "x.json"],
    ["validate", "--format", "json"],
    ["validate", "--seed", "2"],
    ["keyrate", "--format", "json"],
    ["keyrate", "--seed", "2"],
    ["simulate", "--seed", "2"],
    ["bounds", "--seed", "2"],
    ["montecarlo", "--format", "json"],
    ["phasestab", "--params", "/nonexistent.json"],
    ["phasestab", "--format", "json"],
])
def test_flag_the_subcommand_does_not_read_is_rejected(argv, capsys):
    with pytest.raises(SystemExit):
        run_cli(argv)
    assert argv[1] in capsys.readouterr().err


class TestPhasestab:
    def test_trace_csv_schema(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = run_cli(["phasestab", "--regime", "coarse", "--steps", "20000",
                        "--dt", "1e-5", "--seed", "2", "--out", str(out)])
        assert code == cli.EXIT_OK
        header = out.read_text().splitlines()[0]
        assert header == "t_s,delta_phi_rad"
        summary = json.loads(capsys.readouterr().out)
        assert summary["regime"] == "coarse"


LOCK_TOLERANCE = 0.05   # rad, |mean offset| of a locked full-regime trace


def test_both_phase_traces_are_residuals(tmp_path):
    # A locked full-regime run reads about zero in the trace CSVs of both
    # subcommands: each writes the residual from the lock setpoint.
    run = tmp_path / "run.json"
    assert run_cli(["montecarlo", "--regime", "full", "--slots", "100000000",
                    "--seed", "4", "--out", str(run)]) == cli.EXIT_OK
    stab = tmp_path / "stab.csv"
    assert run_cli(["phasestab", "--regime", "full", "--steps", "100000",
                    "--seed", "4", "--out", str(stab)]) == cli.EXIT_OK
    for path in (run.with_suffix(".phase.csv"), stab):
        with open(path, newline="") as fh:
            phi = [float(row["delta_phi_rad"]) for row in csv.DictReader(fh)]
        tail = phi[len(phi) // 2:]
        assert abs(sum(tail) / len(tail)) < LOCK_TOLERANCE, path.name
