import csv
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import tfqkd
from tfqkd import bounds, cli, keyrate, model, montecarlo
from tfqkd.decoy import CATEGORIES


def _no_constant(name):
    """parse_constant for json.loads: Infinity, -Infinity and NaN are not
    JSON."""
    raise ValueError(f"{name} is not JSON")


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

    def test_params_file_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bin.json"
        bad.write_bytes(b'\xff\xfe{"a":1}')
        assert run_cli(["validate", "--params", str(bad)]) == cli.EXIT_SCHEMA
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize("m, code", [(3, cli.EXIT_VALIDATION),
                                         (4, cli.EXIT_OK)])
    def test_phase_slices_below_four_fail(self, m, code, tmp_path, capsys):
        # Below M = 4 the matching windows around 0 and pi overlap.
        raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
        raw["phase_slices_M"] = m
        params = tmp_path / "m.json"
        params.write_text(json.dumps(raw))
        assert run_cli(["validate", "--params", str(params)]) == code
        checks = json.loads(capsys.readouterr().out)["checks"]
        failed = [c["name"] for c in checks if not c["passed"]]
        assert failed == ([] if m == 4 else ["phase_slices"])


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

    @pytest.mark.parametrize("n_tot", [0, -0.0])
    def test_no_pulse_pair_sent_is_a_schema_error(self, tmp_path, capsys,
                                                  n_tot):
        # A rate per pulse pair needs pulse pairs: refused at the boundary,
        # not deep in secret_key_rate.
        raw = {f"Detected-{k}": 0 for k in CATEGORIES}
        raw["N_total_sent"] = n_tot
        counts = tmp_path / "empty.json"
        counts.write_text(json.dumps(raw))
        out = tmp_path / "report.json"
        assert run_cli(["keyrate", "--counts", str(counts),
                        "--out", str(out)]) == cli.EXIT_SCHEMA
        assert "counts file" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("key", ["Detected-ZZss", "N_total_sent",
                                     "Xvv_error_rate"])
    @pytest.mark.parametrize("value", [
        True, "1000", pytest.param(10**400, id="10**400")])
    def test_counts_follow_the_parameter_number_rule(self, key, value,
                                                     tmp_path, capsys):
        # A bool, a string of digits and an integer no float holds are no
        # count and no QBER: each stops keyrate, naming the key.
        raw = json.loads(Path(cli.DEFAULT_COUNTS).read_text())
        raw[key] = value
        counts = tmp_path / "bad.json"
        counts.write_text(json.dumps(raw))
        out = tmp_path / "report.json"
        assert run_cli(["keyrate", "--counts", str(counts), "--out", str(out)]
                       ) == cli.EXIT_SCHEMA
        assert key in capsys.readouterr().err
        assert not out.exists()


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
            30.0, 1e-3, 1e-3, det.efficiency,
            det.dark_prob(bundle["protocol"].clock_rate_hz))
        assert float(row["noisy_ub"]) == expected["noisy_ub"]

    @pytest.mark.parametrize("delta", [None, 3.0])
    def test_bounds_and_simulate_split_the_loss_alike(self, delta, tmp_path,
                                                      bundle):
        # Both subcommands evaluate keyrate.split_loss_link at each sweep
        # point: SKC1 asym is the single-repeater capacity over its arms,
        # and the key rate is the analysis of the forward model over it.
        params, det = bundle["protocol"], bundle["detector"]
        flags = ["--sweep-db", "20:56:36", "--format", "json"]
        if delta is not None:
            flags += ["--arm-delta-db", str(delta)]
        capacity, rates = tmp_path / "bounds.json", tmp_path / "rates.json"
        assert run_cli(["bounds", *flags, "--out", str(capacity)]) == 0
        assert run_cli(["simulate", *flags, "--out", str(rates)]) == 0
        capacity = json.loads(capacity.read_text())
        rates = json.loads(rates.read_text())
        dark = det.dark_prob(params.clock_rate_hz)
        for row, rate in zip(capacity, rates, strict=True):
            loss = row["loss_db"]
            assert loss == rate["loss_db"]
            link = keyrate.split_loss_link(loss, params, delta)
            assert row["skc1_asym"] == bounds.skc1(
                *model.transmissivities(link))
            counts = keyrate.expected_rates_model(
                params, link, det, bundle["extras"]["visibility"],
                bundle["extras"]["misalignment_sigma_rad"], 1.36581e13)
            report = keyrate.analyze_counts(counts, params,
                                            bundle["security"])
            assert rate["skr_bit_per_pulse"] == report.r_per_signal
            # The other bounds depend on the total loss alone.
            eta = 10 ** (-loss / 10)
            eta_det = eta * det.efficiency
            ub, valid = bounds.noisy_skc0_ub(
                eta_det, bounds.thermal_mean_photon(dark, eta_det))
            assert row == {
                "loss_db": loss, "skc0": bounds.skc0(eta),
                "skc0_relative": bounds.relative_skc0(eta, det.efficiency),
                "skc1_sym": bounds.skc1(10 ** (-loss / 20),
                                        10 ** (-loss / 20)),
                "skc1_asym": row["skc1_asym"], "noisy_ub": ub,
                "valid": int(valid)}
        if delta is None:
            # The bundled field link: 32.12 / 23.88 dB arms at 56 dB.
            assert capacity[1]["skc1_asym"] == pytest.approx(8.86e-4,
                                                             rel=1e-3)

    def test_deep_loss_point_warns_of_nothing(self, tmp_path, bundle):
        # At 6000 dB the total transmissivity underflows to 0 and the arms'
        # come near it: every bound still comes out without a 0 / 0.  The
        # thermal bound is infinite there, which JSON writes as null.
        out = tmp_path / "bounds.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(["bounds", "--sweep-db", "6000:6000:1",
                            "--format", "json", "--out", str(out)]) == 0
        row = json.loads(out.read_text(), parse_constant=_no_constant)[0]
        link = keyrate.split_loss_link(6000.0, bundle["protocol"])
        assert row["skc1_asym"] == bounds.skc1(*model.transmissivities(link))
        assert row["noisy_ub"] is None and row["valid"] == 0

    def test_blind_detector_bound_is_null_in_json(self, tmp_path):
        # detector_efficiency 0 with dark counts: the thermal bound is
        # infinite, JSON null (CSV keeps "inf").
        raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
        raw["detector_efficiency"] = 0
        params = tmp_path / "blind.json"
        params.write_text(json.dumps(raw))
        out = tmp_path / "bounds.json"
        assert run_cli(["bounds", "--params", str(params), "--sweep-db",
                        "10:10:1", "--format", "json", "--out", str(out)]) == 0
        [row] = json.loads(out.read_text(), parse_constant=_no_constant)
        assert row["noisy_ub"] is None and row["valid"] == 0


class TestSimulate:
    def test_lossless_point_is_accepted(self, tmp_path):
        # bounds rejects a 0 dB point (its capacities diverge); the
        # key-rate sweep takes it.
        out = tmp_path / "rows.json"
        assert run_cli(["simulate", "--sweep-db", "0:2:2", "--format", "json",
                        "--out", str(out)]) == cli.EXIT_OK
        assert [row["loss_db"] for row in json.loads(out.read_text())] == [
            0.0, 2.0]

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
            for timed in ("wall_s", "stage_s", "slots_per_s"):
                del record["provenance"][timed]
            runs.append(record)
        assert runs[0] == runs[1]

    def test_params_digest_follows_the_effective_link(self, tmp_path):
        digests = []
        for loss_db in ("10", "12"):
            path = tmp_path / f"sim-{loss_db}.json"
            assert run_cli(["montecarlo", "--slots", "100000", "--seed", "3",
                            "--loss-db", loss_db, "--out", str(path)]
                           ) == cli.EXIT_OK
            digests.append(
                json.loads(path.read_text())["provenance"]["params_sha256"])
        assert all(len(d) == 64 for d in digests)
        assert digests[0] != digests[1]

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
        assert prov["slots_per_s"] == pytest.approx(200_000 / prov["wall_s"])
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
        # The key file packs Alice's bits, Bob's bits and the tags.
        with np.load(out.with_suffix(".keys.npz")) as keys:
            n_bits = int(keys["n_bits"])
            unpacked = {name: np.unpackbits(keys[name], count=n_bits)
                        for name in ("alice", "bob", "tags")}
        raw = direct.raw_keys
        assert n_bits == raw.length > 0
        assert np.array_equal(unpacked["alice"], raw.alice_bits)
        assert np.array_equal(unpacked["bob"], raw.bob_bits)
        assert np.array_equal(unpacked["tags"].astype(bool), raw.tags)


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
    (["bounds", "--arm-delta-db", "nan"], "--arm-delta-db"),
    (["bounds", "--arm-delta-db", "inf"], "--arm-delta-db"),
    (["bounds", "--arm-delta-db=-inf"], "--arm-delta-db"),
    (["phasestab", "--dt", "inf"], "--dt"),
    (["phasestab", "--seed", "-1"], "--seed"),
    (["montecarlo", "--slots", str(2**55)], "--slots"),
    (["bounds", "--sweep-db", "0:10:2"], "--sweep-db"),
    (["bounds", "--sweep-db", "1e-300:1e-300:1"], "--sweep-db"),
    (["phasestab", "--steps", "10", "--dt", "1e300"], "--dt"),
    (["bounds", "--sweep-db", "10:0:2"], "--sweep-db"),
    (["simulate", "--sweep-db", "10:0:2"], "--sweep-db"),
    (["simulate", "--sweep-db", "0:60:1e-300"], "--sweep-db"),
    (["bounds", "--sweep-db", "0:60:1e-300"], "--sweep-db"),
    (["phasestab", "--steps", str(2**62)], "--steps"),
    (["phasestab", "--steps", str(2**63)], "--steps"),
    (["simulate", "--sweep-db", "1e20:1e20:1"], "--sweep-db"),
    (["bounds", "--sweep-db", "1e20:1e20:1"], "--sweep-db"),
    (["simulate", "--attenuation", "1e-320"], "--attenuation"),
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


def test_starved_class_is_a_schema_error(tmp_path, capsys):
    # A valid file whose Xu class (probability 2e-5) rounds to no slot of
    # a 10 000-slot run: montecarlo names the flag and the class.
    raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
    raw.update(p_u_A=0.0001, p_v_A=0.8499)
    params = tmp_path / "starved.json"
    params.write_text(json.dumps(raw))
    assert run_cli(["validate", "--params", str(params)]) == cli.EXIT_OK
    capsys.readouterr()
    out = tmp_path / "sim.json"
    assert run_cli(["montecarlo", "--params", str(params), "--slots", "10000",
                    "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "--slots" in err and "'Xu'" in err
    assert not out.exists()


@pytest.mark.parametrize("regime, slots, changed", [
    ("coarse", 100_000, {"clock_rate_hz": 1e-9, "dark_rate_hz": 0.0}),
    ("full", 200_000, {"duty_cycle": 1e-300})])
def test_slot_too_long_for_the_phase_loops_is_a_schema_error(
        regime, slots, changed, tmp_path, capsys):
    # A slot of 1 / (clock_rate_hz * duty_cycle) = 2e9 s (or 1e291 s)
    # drifts the coarse loop past its divergence bound at the default seed,
    # as a long --dt does in phasestab; the message names the slot length.
    raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
    raw.update(changed)
    params = tmp_path / "slow.json"
    params.write_text(json.dumps(raw))
    out = tmp_path / "sim.json"
    assert run_cli(["montecarlo", "--params", str(params), "--regime", regime,
                    "--slots", str(slots), "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    slot_s = 1.0 / (raw["clock_rate_hz"] * raw["duty_cycle"])
    assert "clock_rate_hz * duty_cycle" in err and f"{slot_s:g} s" in err
    assert "loop diverged" in err
    assert not out.exists()


@pytest.mark.parametrize("cmd", ["keyrate", "simulate", "montecarlo",
                                 "bounds"])
@pytest.mark.parametrize("key, value", [("phase_slices_M", 0), ("s_A", -0.5),
                                        ("eps_A", float("nan")),
                                        ("eps_B", 0.0), ("eps_A", 1.0),
                                        ("u_A", 900.0),
                                        ("u_A", float("inf")),
                                        ("clock_rate_hz", float("inf")),
                                        ("phase_slices_M", 3)])
def test_structurally_invalid_parameters_are_schema_errors(cmd, key, value,
                                                           tmp_path, capsys):
    # A file failing a structural check of validate_params stops every
    # subcommand at the boundary; validate itself reports the checks.  A
    # send probability of 0 or 1 would divide by zero in the security
    # condition, u_A = 900 or Infinity (json's literal) would overflow the
    # decoy bound's e^u, an infinite clock rate the deadtime in slots, and
    # M = 3 would overlap the matching windows around 0 and pi.
    raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
    raw[key] = value
    params = tmp_path / "bad.json"
    params.write_text(json.dumps(raw))
    out = tmp_path / "out.json"
    argv = [cmd, "--params", str(params), "--out", str(out)]
    if cmd == "montecarlo":
        argv += ["--slots", "100000"]
    assert run_cli(argv) == cli.EXIT_SCHEMA
    assert "structural checks" in capsys.readouterr().err
    assert not out.exists()
    assert (run_cli(["validate", "--params", str(params)])
            == cli.EXIT_VALIDATION)


@pytest.mark.parametrize("cmd", ["validate", "keyrate", "simulate", "bounds",
                                 "montecarlo"])
@pytest.mark.parametrize("key, value", [
    ("visibility", 1.5), ("visibility", -0.1), ("visibility", "abc"),
    ("visibility", float("nan")), ("visibility", True),
    ("misalignment_sigma_rad", -0.3), ("misalignment_sigma_rad", float("nan")),
    ("misalignment_sigma_rad", float("inf")), ("phase_slices_M", 16.9),
    ("phase_slices_M", float("inf")), ("dark_rate_hz", float("inf")),
    ("dark_rate_hz", 2e9), ("deadtime_s", float("inf")), ("s_A", "0.5"),
    ("eps_A", None), ("p_z_B", [0.5]), ("u_B", {}), ("clock_rate_hz", "1e9"),
    ("duty_cycle", "0.5"), ("phase_slices_M", "16"),
    ("detector_efficiency", True), ("loss_ac_db", "3"), ("f_ec", None),
    *(pytest.param(key, 10**400, id=f"{key}-10**400")
      for key in ("clock_rate_hz", "phase_slices_M", "deadtime_s")),
    ("f_ec", float("nan")), ("f_ec", float("inf")), ("eps_cor", 0),
    ("chernoff_xi", 1), ("f_ec", 0.5)])
def test_out_of_range_values_are_schema_errors(cmd, key, value, tmp_path,
                                               capsys):
    # A visibility outside [0, 1], a negative or non-finite misalignment
    # width, a fractional phase-slice count (16.9 used to run as 16), an
    # infinite deadtime, a dark rate that is infinite or not below the
    # 1 GHz clock (a dark count in every gate), a value that is not a
    # number, an integer no float holds, an error-correction factor below
    # 1 or not finite (NaN ran to a silent zero rate) and a failure
    # probability outside (0, 1) stop every subcommand at the boundary,
    # naming the key.
    raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
    raw[key] = value
    params = tmp_path / "bad.json"
    params.write_text(json.dumps(raw))
    out = tmp_path / "out.json"
    argv = [cmd, "--params", str(params)]
    if cmd != "validate":
        argv += ["--out", str(out)]
    if cmd == "montecarlo":
        argv += ["--slots", "100000"]
    assert run_cli(argv) == cli.EXIT_SCHEMA
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("content, cause", [
    (b'\xff\xfe{"a":1}', "utf-8"), (b"{oops", "Expecting property name"),
    (b"[1, 2]", "missing keys")])
@pytest.mark.parametrize("flag", ["--params", "--counts"])
def test_file_without_its_schema_is_a_schema_error(flag, content, cause,
                                                   tmp_path, capsys):
    # Text that is not UTF-8 or not JSON, or JSON that is not an object.
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    out = tmp_path / "report.json"
    assert run_cli(["keyrate", flag, str(bad), "--out", str(out)]
                   ) == cli.EXIT_SCHEMA
    assert cause in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cmd, dropped, needs", [
    ("simulate", "detector_efficiency", "detector keys"),
    ("bounds", "detector_efficiency", "detector keys"),
    ("montecarlo", "loss_ac_db", "link and detector keys")])
def test_missing_section_is_a_schema_error(cmd, dropped, needs, tmp_path,
                                           capsys):
    raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
    del raw[dropped]
    params = tmp_path / "partial.json"
    params.write_text(json.dumps(raw))
    out = tmp_path / "out.json"
    assert run_cli([cmd, "--params", str(params), "--out", str(out)]
                   ) == cli.EXIT_SCHEMA
    assert needs in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("visibility", 0), ("visibility", 1), ("misalignment_sigma_rad", 0.0),
    ("phase_slices_M", 16.0)])
def test_edge_values_are_accepted(key, value, tmp_path):
    raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
    raw[key] = value
    params = tmp_path / "edge.json"
    params.write_text(json.dumps(raw))
    bundle = model.load_params_file(params)
    if key == "phase_slices_M":
        assert bundle["protocol"].phase_slices_m == 16
    else:
        assert bundle["extras"][key] == value
    assert run_cli(["simulate", "--params", str(params), "--out",
                    str(tmp_path / "rows.json")]) == cli.EXIT_OK


@pytest.mark.parametrize("cmd", ["validate", "keyrate", "simulate"])
def test_largest_accepted_intensity_does_not_overflow(cmd, tmp_path):
    # MAX_INTENSITY is where math.exp, and so the decoy bound's e^u, stops
    # being finite; a file at that limit passes the structural checks and
    # every subcommand ends in a result or a schema error, never a crash.
    assert math.isfinite(math.exp(model.MAX_INTENSITY))
    with pytest.raises(OverflowError):
        math.exp(math.nextafter(model.MAX_INTENSITY, math.inf))
    raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
    raw["u_A"] = model.MAX_INTENSITY
    params = tmp_path / "edge.json"
    params.write_text(json.dumps(raw))
    argv = [cmd, "--params", str(params)]
    if cmd != "validate":
        argv += ["--out", str(tmp_path / "out.json")]
    assert run_cli(argv) in (cli.EXIT_OK, cli.EXIT_SCHEMA)


@pytest.mark.parametrize("key", ["deadtime_s", "clock_rate_hz"])
def test_deadtime_past_every_run_keeps_one_click_per_detector(key, tmp_path):
    # At 1e300 s, or 1e300 Hz, the deadtime in slots is past the float
    # range or int64; capped below MAX_SLOTS it lets each detector keep
    # only its first click, even on a lossless link.
    raw = json.loads(Path(cli.DEFAULT_PARAMS).read_text())
    raw[key] = 1e300
    params = tmp_path / "huge.json"
    params.write_text(json.dumps(raw))
    assert run_cli(["simulate", "--params", str(params),
                    "--out", str(tmp_path / "rows.csv")]) == cli.EXIT_OK
    out = tmp_path / "sim.json"
    assert run_cli(["montecarlo", "--params", str(params), "--loss-db", "0",
                    "--slots", "100000", "--out", str(out)]) == cli.EXIT_OK
    counts = json.loads(out.read_text())
    assert sum(counts[f"Detected-{name}"] for name in CATEGORIES) <= 2


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

    def test_fine_block_longer_than_any_run(self, capsys):
        # 1e-3 s fine blocks of 1e-300 s steps are 1e297 slots long,
        # capped at MAX_SLOTS: no block closes in the run.
        assert run_cli(["phasestab", "--steps", "10",
                        "--dt", "1e-300"]) == cli.EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert math.isfinite(summary["residual_std_rad"])

    def test_long_step_that_holds_the_coarse_loop(self, capsys):
        # A 1e6 s step draws 5e4 rad of drift, and the coarse loop stays
        # inside its divergence bound; at 1e300 s it does not (exit 3).
        assert run_cli(["phasestab", "--steps", "10", "--dt", "1e6",
                        "--regime", "coarse"]) == cli.EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert math.isfinite(summary["residual_std_rad"])


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
