"""Tests of the benchmark itself, at toy sizes (1e5 slots, a 3-point sweep).

    python3 -m pytest -q bench
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_cli(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--toy"],
        capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = run_cli(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert ({n: m["unit"] for n, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in wanted})
    values = {n: m["value"] for n, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    assert values["keyrate.click_grid_calls"] == 52
    assert values["finitestats.bound_expected_calls"] == 51
    layers = sum(values[name] for name in (
        "montecarlo.run_protocol.self_s", "model.fair_sampled_classes.s",
        "montecarlo.phase_trajectory.s", "montecarlo.fine_blocks.s",
        "montecarlo.detector_means.s", "montecarlo.filter_deadtime.s"))
    assert math.isclose(layers, values["montecarlo.run_protocol.s"],
                        rel_tol=1e-9)
    loops_on = values["montecarlo.phase_trajectory.s"] > 0
    assert loops_on == (workload != "mc-metro")


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_cli(tmp_path, "analytic", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def bench():
    b = wl.load("mc-metro", seed=5, sizes=wl.TOY)
    b.prepare()
    return b


def test_corrupted_category_is_a_failed_operation(bench, monkeypatch):
    honest = bench._call("mc", 0)
    assert wl.check_outcome(honest, bench.mc.n_slots, bench.herald_prob) == []
    key = "ZXsv"
    mean = bench.herald_prob[key] * honest.counts.sent[key]
    detected = dict(honest.counts.detected)
    detected[key] = float(round(mean + 10.0 * math.sqrt(mean) + 10.0))
    corrupt = replace(honest, counts=replace(honest.counts, detected=detected))
    problems = wl.check_outcome(corrupt, bench.mc.n_slots, bench.herald_prob)
    assert len(problems) == 1 and problems[0].startswith(key)

    monkeypatch.setattr(wl.montecarlo, "run_protocol", lambda *a, **k: corrupt)
    attempted, failed = bench.attempted, bench.failed
    assert bench.op("mc") is None
    assert (bench.attempted, bench.failed) == (attempted + 1, failed + 1)
    assert bench.samples["mc"] == []


def test_wrong_analytic_outputs_fail_their_checks(bench):
    params = bench.bundle["protocol"]
    field = bench.replicas[0]
    ref = bench.replica_refs[0]
    report = bench._call("keyrate", 0)
    assert wl.check_report(report, ref, params, field.n_tot, True) == []
    off = replace(report, bits_per_second=report.bits_per_second * 1.001)
    assert wl.check_report(off, ref, params, field.n_tot, True)
    low = replace(report, r_per_signal=0.5 * report.r_per_signal,
                  secure_bits=0.5 * report.secure_bits,
                  bits_per_second=0.5 * report.bits_per_second)
    assert any("criterion 1" in p for p in
               wl.check_report(low, ref, params, field.n_tot, True))

    rows = bench._call("sweep", 0)
    sweep_db = bench.sizes.sweep_db
    assert wl.check_sweep(rows, bench.sweep_ref, sweep_db, params) == []
    bad = [dict(r) for r in rows]
    bad[-1]["skr_bit_per_pulse"] = -1e-9
    assert wl.check_sweep(bad, bench.sweep_ref, sweep_db, params)

    pred = bench._call("forward", 0)
    assert wl.check_prediction(pred, bench.forward_ref) == []
    detected = dict(pred.detected)
    detected["XXvv"] *= 1.01
    shifted = replace(pred, detected=detected)
    assert wl.check_prediction(shifted, bench.forward_ref)


def test_timings_are_divided_by_the_host_slowdown():
    import hostspeed
    nominal = hostspeed.NOMINAL_S
    twice = {k: 2.0 * v for k, v in nominal.items()}
    assert hostspeed.slowdown([twice], ("loops", "arrays")) == pytest.approx(2.0)
    assert hostspeed.slowdown([nominal, twice], ("arrays",)) == pytest.approx(1.5)

    b = wl.load("analytic", seed=5, sizes=wl.TOY)
    b.prepare()
    b.measure(0.0)
    for kind in wl.KINDS:
        assert len(b.hosts[kind]) == len(b.samples[kind]) > 0
        assert all(h > 0 for h in b.hosts[kind])
    b.samples["mc"], b.hosts["mc"] = [4.0, 3.0], [2.0, 0.5]
    assert list(wl.scaled(b, "mc")) == [2.0, 6.0]
