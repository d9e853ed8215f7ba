"""Workloads, seeded inputs and output checks of the tfqkd benchmark.

Every workload is a closed loop: one caller makes a call into tfqkd, waits
for the result, checks it, and only then makes the next call.  The four
operation kinds are the public entry points:

    keyrate  keyrate.analyze_counts on a field-trial count record
    forward  keyrate.expected_rates_model at the bundled field link
    sweep    keyrate.skr_vs_distance over 10:60:2 dB (26 points)
    mc       montecarlo.run_protocol on the workload's link

Each workload runs every kind, so every run reports every end-to-end metric.
The kinds a workload exists to stress fill its measuring window; the others
run as fixed-size companions (README.md gives the reasons).
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.stats import poisson

import hostspeed
from tfqkd import decoy, keyrate, model, montecarlo

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "tfqkd" / "data"
PARAMS_PATH = DATA / "field_trial_params.json"
COUNTS_PATH = DATA / "field_trial_counts.json"

# Criterion 1 of the acceptance suite: the field report's tolerances.
FIELD_PHASE_ERROR, FIELD_PHASE_ERROR_TOL = 0.0508, 0.003
FIELD_EZ, FIELD_EZ_TOL = 0.0356, 0.010
FIELD_R, FIELD_R_REL_TOL = 2.20e-7, 0.20

# Per-category, per-tail Poisson probability below which a Monte Carlo
# count is called wrong: with 25 categories and two tails, a correct sampler
# trips it in fewer than one call in 2e4.
POISSON_TAIL = 1e-6

# Outputs of repeated calls on one input must agree with the reference made
# during set-up; the tolerance only admits a different summation order.
REPEAT_REL_TOL = 1e-9

REPLICAS = 64        # seeded count records that analyze_counts cycles through
MIN_ROUNDS = 3       # so that p95 has at least ten samples beyond it
KINDS = ("keyrate", "forward", "sweep", "mc")

# Timed calls between two host-speed readings: about 10 ms of calls where
# calls are short, so that a reading sits close to the calls it scales.
CHUNK = {"keyrate": 10, "forward": 3, "sweep": 1, "mc": 1}
# The host-speed kernels that scale each kind (hostspeed.py).  The sampler
# works on large arrays, and the host's spells slow it least.
KERNELS = {"keyrate": ("loops", "arrays"), "forward": ("loops", "arrays"),
           "sweep": ("loops", "arrays"), "mc": ("arrays",)}

# Traced calls per kind in a --trace 1 run: every other call up to this
# many, so that the spans of one run stay a few megabytes.
TRACE_CAP = {"keyrate": 300, "forward": 300, "mc": 100}

# One round of each workload: (kind, untimed calls, timed calls).  An
# untimed call re-warms caches after the other kinds ran; it is checked like
# every call.  Every kind runs in every round, so each metric samples the
# whole window and a slow spell on the shared host hits all of them alike.
_MC_ROUND = (("mc", 0, 1), ("keyrate", 1, 70), ("forward", 1, 70),
             ("sweep", 0, 3))
ROUNDS = {
    "analytic": (("sweep", 0, 1), ("keyrate", 1, 99), ("forward", 1, 29),
                 ("mc", 0, 1)),
    "mc-metro": _MC_ROUND,
    "mc-field": _MC_ROUND,
}


@dataclass(frozen=True)
class Sizes:
    """Per-call input sizes.  FULL is the benchmark; TOY is for its tests."""

    mc_slots: int        # slots per run_protocol call on mc-metro / mc-field
    spot_mc_slots: int   # slots per run_protocol call on analytic
    sweep_db: tuple      # total losses of the skr_vs_distance sweep, dB


FULL = Sizes(mc_slots=10_000_000, spot_mc_slots=1 << 18,
             sweep_db=tuple(np.arange(10.0, 60.0 + 1.0, 2.0)))
TOY = Sizes(mc_slots=100_000, spot_mc_slots=100_000,
            sweep_db=(10.0, 30.0, 50.0))


@dataclass(frozen=True)
class McConfig:
    link: object
    det: object
    phase: object
    n_slots: int


def mc_config(bundle, workload: str, sizes: Sizes) -> McConfig:
    """Link, detector and phase regime of the workload's run_protocol calls.

    mc-metro: 10 dB flux-balanced link, ideal phase (0.1 rad), field detector
    with a 64 ns deadtime.  mc-field and analytic: the bundled field link,
    detector (10 us deadtime) and the full drift regime.
    """
    params, field_det = bundle["protocol"], bundle["detector"]
    if workload == "mc-metro":
        loss_a = (10.0 + keyrate.balanced_arm_delta_db(params)) / 2.0
        link = model.LinkBudget(length_ac_km=0.0, length_bc_km=0.0,
                                loss_ac_db=loss_a, loss_bc_db=10.0 - loss_a)
        det = model.DetectorParams(efficiency=field_det.efficiency,
                                   dark_rate_hz=field_det.dark_rate_hz,
                                   deadtime_s=64e-9)
        phase = montecarlo.PhaseConfig(
            regime="ideal",
            residual_sigma=bundle["extras"]["misalignment_sigma_rad"])
        return McConfig(link, det, phase, sizes.mc_slots)
    n_slots = sizes.mc_slots if workload == "mc-field" else sizes.spot_mc_slots
    return McConfig(bundle["link"], field_det,
                    montecarlo.PhaseConfig(regime="full"), n_slots)


def count_replicas(bundle, field_counts, seed: int, n: int) -> list:
    """The bundled field counts, then n-1 seeded parametric replicas of them.

    A replica redraws every detected count from a Poisson law with the
    bundled count as mean, and each X-basis QBER from a binomial law over
    the phase-matched events.
    """
    params = bundle["protocol"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    frac = params.matched_fraction()
    out = [field_counts]
    for _ in range(n - 1):
        detected = {k: float(rng.poisson(v))
                    for k, v in field_counts.detected.items()}
        qbers = []
        for key, q in (("XXuu", field_counts.qber_xuu),
                       ("XXvv", field_counts.qber_xvv)):
            matched = int(round(frac * detected[key]))
            qbers.append(rng.binomial(matched, q) / matched)
        out.append(decoy.DecoyCounts.from_detected(
            params, field_counts.n_tot, detected, *qbers))
    return out


def mc_seed(seed: int, call: int) -> int:
    return int(np.random.SeedSequence([seed, 1, call]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Output checks.  Each returns a list of problems; empty means correct.
# ---------------------------------------------------------------------------

def _close(a: float, b: float, rel: float = REPEAT_REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def check_report(report, ref, params, n_tot: float, is_field: bool) -> list:
    """analyze_counts output: unit identities, non-degenerate, repeatable.

    The report on the bundled counts must also meet criterion 1.
    """
    problems = []
    inter = report.intermediates
    if not _close(report.bits_per_second,
                  report.r_per_signal * params.clock_rate_hz
                  * params.duty_cycle, 1e-12):
        problems.append("bits_per_second != r_per_signal * clock * duty")
    if not _close(report.secure_bits, report.r_per_signal * n_tot, 1e-12):
        problems.append("secure_bits != r_per_signal * N_tot")
    if "diagnostic" in inter or not report.r_per_signal > 0.0:
        problems.append(f"degenerate report: {inter.get('diagnostic')}")
    for key in ("e1ph_prime", "e_z_prime"):
        if not 0.0 <= inter.get(key, -1.0) <= 0.5:
            problems.append(f"{key}={inter.get(key)} outside [0, 0.5]")
    if is_field:
        e1ph, ez, r = inter["e1ph_prime"], inter["e_z_prime"], report.r_per_signal
        if abs(e1ph - FIELD_PHASE_ERROR) > FIELD_PHASE_ERROR_TOL:
            problems.append(f"field e1ph'={e1ph:.5f} outside criterion 1")
        if abs(ez - FIELD_EZ) > FIELD_EZ_TOL:
            problems.append(f"field E_Z'={ez:.5f} outside criterion 1")
        if abs(r / FIELD_R - 1.0) > FIELD_R_REL_TOL:
            problems.append(f"field R={r:.4e} outside criterion 1")
    for name, a, b in (("r_per_signal", report.r_per_signal, ref.r_per_signal),
                       ("e1ph_prime", inter["e1ph_prime"],
                        ref.intermediates["e1ph_prime"]),
                       ("e_z_prime", inter["e_z_prime"],
                        ref.intermediates["e_z_prime"])):
        if not _close(a, b):
            problems.append(f"{name} {a!r} differs from set-up {b!r}")
    return problems


def check_prediction(pred, ref) -> list:
    """expected_rates_model output: physical, complete, repeatable."""
    problems = []
    if not _close(sum(pred.sent.values()), pred.n_tot, 1e-12):
        problems.append("sent counts do not sum to n_tot")
    for k in decoy.CATEGORIES:
        d, s = pred.detected[k], pred.sent[k]
        if not (math.isfinite(d) and 0.0 <= d <= s):
            problems.append(f"{k}: detected {d} outside [0, sent={s}]")
        elif not _close(d, ref.detected[k]):
            problems.append(f"{k}: {d!r} differs from set-up {ref.detected[k]!r}")
    for name in ("qber_xuu", "qber_xvv"):
        q = getattr(pred, name)
        if not 0.0 <= q <= 0.5:
            problems.append(f"{name}={q} outside [0, 0.5]")
        elif not _close(q, getattr(ref, name)):
            problems.append(f"{name} differs from set-up")
    return problems


def check_sweep(rows, ref, sweep_db, params) -> list:
    """skr_vs_distance output: one finite, non-negative row per loss point,
    rate non-increasing with loss, unit identity, repeatable."""
    problems = []
    if len(rows) != len(sweep_db):
        return [f"{len(rows)} rows for {len(sweep_db)} loss points"]
    scale = params.clock_rate_hz * params.duty_cycle
    for i, (row, loss) in enumerate(zip(rows, sweep_db)):
        r = row["skr_bit_per_pulse"]
        if row["loss_db"] != loss:
            problems.append(f"row {i}: loss {row['loss_db']} != {loss}")
        if not (math.isfinite(r) and r >= 0.0):
            problems.append(f"row {i}: rate {r} not finite and >= 0")
        if not _close(row["skr_bit_per_s"], r * scale, 1e-12):
            problems.append(f"row {i}: bit/s != bit/pulse * clock * duty")
        if i and r > rows[i - 1]["skr_bit_per_pulse"]:
            problems.append(f"row {i}: rate rises with loss")
        if not _close(r, ref[i]["skr_bit_per_pulse"]):
            problems.append(f"row {i}: rate differs from set-up")
    return problems


def poisson_tail(observed: float, mean: float) -> float:
    """Smaller exact tail probability of a Poisson(mean) count at observed."""
    if mean <= 0.0:
        return 1.0 if observed == 0 else 0.0
    return float(min(poisson.cdf(observed, mean), poisson.sf(observed - 1, mean)))


def check_outcome(outcome, n_slots: int, herald_prob: dict) -> list:
    """run_protocol output against bookkeeping identities and the model.

    Sent counts sum to n_slots, no category heralds more than it sent, the
    raw key holds one bit per ZZ herald, and every category's herald count
    passes an exact two-sided Poisson-tail test against the analytic
    heralding probability times the pairs actually sent.
    """
    problems = []
    counts = outcome.counts
    if sum(counts.sent.values()) != n_slots:
        problems.append(f"sent counts sum to {sum(counts.sent.values())}, "
                        f"not {n_slots}")
    zz = 0.0
    for k in decoy.CATEGORIES:
        n, sent = counts.detected[k], counts.sent[k]
        if n > sent:
            problems.append(f"{k}: heralded {n} > sent {sent}")
        if k.startswith("ZZ"):
            zz += n
        p = poisson_tail(n, herald_prob[k] * sent)
        if p < POISSON_TAIL:
            problems.append(f"{k}: heralded {n:.0f}, model "
                            f"{herald_prob[k] * sent:.1f}, tail p={p:.2e}")
    if outcome.raw_keys.length != zz:
        problems.append(f"raw key length {outcome.raw_keys.length} != "
                        f"ZZ heralds {zz:.0f}")
    return problems


# ---------------------------------------------------------------------------
# The closed loop.
# ---------------------------------------------------------------------------

@dataclass
class Bench:
    """Inputs, references and tallies of one workload run."""

    workload: str
    seed: int
    sizes: Sizes
    bundle: dict
    replicas: list
    mc: McConfig
    tracer: object = None
    replica_refs: list = field(default_factory=list)
    forward_ref: object = None
    sweep_ref: list = None
    herald_prob: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    calls: dict = field(default_factory=lambda: dict.fromkeys(KINDS, 0))
    samples: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    hosts: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    sampler: object = None     # hostspeed.Sampler while a chunk is timed
    traced: dict = field(default_factory=lambda: {k: [] for k in KINDS})
    mc_tallies: list = field(default_factory=list)   # (heralds, key bits)

    # -- calls ------------------------------------------------------------
    def _call(self, kind: str, i: int):
        b = self.bundle
        params, det, sec = b["protocol"], b["detector"], b["security"]
        vis = b["extras"]["visibility"]
        sigma = b["extras"]["misalignment_sigma_rad"]
        if kind == "keyrate":
            return keyrate.analyze_counts(
                self.replicas[i % len(self.replicas)], params, sec)
        if kind == "forward":
            return keyrate.expected_rates_model(
                params, b["link"], det, vis, sigma,
                self.replicas[0].n_tot)
        if kind == "sweep":
            return keyrate.skr_vs_distance(
                np.asarray(self.sizes.sweep_db), params, det, sec,
                n_tot=self.replicas[0].n_tot, visibility=vis,
                misalignment_sigma_rad=sigma)
        m = self.mc
        return montecarlo.run_protocol(params, m.link, m.det, m.phase,
                                       m.n_slots, seed=mc_seed(self.seed, i),
                                       visibility=vis)

    def _check(self, kind: str, i: int, out) -> list:
        params = self.bundle["protocol"]
        if kind == "keyrate":
            j = i % len(self.replicas)
            return check_report(out, self.replica_refs[j], params,
                                self.replicas[j].n_tot, is_field=(j == 0))
        if kind == "forward":
            return check_prediction(out, self.forward_ref)
        if kind == "sweep":
            return check_sweep(out, self.sweep_ref, self.sizes.sweep_db, params)
        return check_outcome(out, self.mc.n_slots, self.herald_prob)

    def op(self, kind: str, timed: bool = True):
        """One checked call.  Returns its output, or None if it failed."""
        i = self.calls[kind]
        self.calls[kind] += 1
        self.attempted += 1
        trace = (timed and self.tracer is not None and kind != "sweep"
                 and i % 2 == 0 and len(self.traced[kind]) < TRACE_CAP[kind])
        try:
            if trace:
                with self.tracer.active(kind):
                    t0 = time.perf_counter()
                    out = self._call(kind, i)
                    elapsed = time.perf_counter() - t0
            else:
                paused = self.sampler.spent if self.sampler else 0.0
                t0 = time.perf_counter()
                out = self._call(kind, i)
                elapsed = time.perf_counter() - t0
                if self.sampler:
                    elapsed -= self.sampler.spent - paused
            problems = self._check(kind, i, out)
        except Exception:  # a crashing call is a failed operation
            problems = [traceback.format_exc()]
        if problems:
            self.failed += 1
            print(f"FAILED {self.workload} {kind} call {i}: "
                  + "; ".join(problems[:5]), file=sys.stderr)
            return None
        if timed:
            (self.traced if trace else self.samples)[kind].append(elapsed)
            if kind == "mc" and trace:
                self.mc_tallies.append((sum(out.counts.detected.values()),
                                        out.raw_keys.length))
        return out

    # -- phases -----------------------------------------------------------
    def prepare(self):
        """Build the references the checks compare against (set-up work)."""
        b = self.bundle
        params, sec = b["protocol"], b["security"]
        self.replica_refs = [keyrate.analyze_counts(c, params, sec)
                             for c in self.replicas]
        self.forward_ref = self._call("forward", 0)
        self.sweep_ref = self._call("sweep", 0)
        oracle = keyrate.expected_rates_model(
            params, self.mc.link, self.mc.det, b["extras"]["visibility"],
            b["extras"]["misalignment_sigma_rad"], float(self.mc.n_slots))
        self.herald_prob = {k: oracle.detected[k] / oracle.sent[k]
                            for k in decoy.CATEGORIES}

    def warm_up(self):
        """One checked, untimed call of every kind.  run_protocol warms up
        at the spot-check size: it runs the same code as a full call."""
        hostspeed.reading()
        full = self.mc
        self.mc = replace(full, n_slots=self.sizes.spot_mc_slots)
        try:
            for kind in KINDS:
                self.op(kind, timed=False)
        finally:
            self.mc = full

    def measure(self, seconds: float) -> int:
        """Rounds until the window closes, at least MIN_ROUNDS of them.

        Timed calls run in chunks of CHUNK[kind].  A host-speed reading is
        taken before the first chunk and after every chunk, and untraced
        chunks take more readings inside calls that last longer than
        hostspeed.SAMPLE_S.  Each timed call is paired with the host's
        slowdown over the readings on either side of and inside its chunk.
        """
        deadline = time.perf_counter() + seconds
        rounds = 0
        before = hostspeed.reading()
        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            for kind, untimed, timed in ROUNDS[self.workload]:
                for _ in range(untimed):
                    self.op(kind, timed=False)
                for done in range(0, timed, CHUNK[kind]):
                    start = len(self.samples[kind])
                    sampler = hostspeed.Sampler()
                    with sampler if self.tracer is None else nullcontext():
                        self.sampler = sampler
                        for _ in range(min(CHUNK[kind], timed - done)):
                            self.op(kind)
                        self.sampler = None
                    after = hostspeed.reading()
                    slow = hostspeed.slowdown(
                        [before, *sampler.readings, after], KERNELS[kind])
                    self.hosts[kind] += [slow] * (len(self.samples[kind]) - start)
                    before = after
            rounds += 1
        return rounds


def end_to_end(bench: Bench) -> dict:
    """Every end-to-end metric except setup_s, which the launcher measures.
    Times are host-scaled (see hostspeed.py)."""
    s = {k: scaled(bench, k) for k in KINDS}
    keyrate_ms = s["keyrate"] * 1e3
    forward_ms = s["forward"] * 1e3
    return {
        "keyrate_ms_p50": float(np.median(keyrate_ms)),
        "keyrate_ms_p95": float(np.percentile(keyrate_ms, 95)),
        "forward_ms_p50": float(np.median(forward_ms)),
        "forward_ms_p95": float(np.percentile(forward_ms, 95)),
        "sweep_s": float(np.median(s["sweep"])),
        "mc_slots_per_s": float(np.median(bench.mc.n_slots / s["mc"])),
    }


def scaled(bench: Bench, kind: str) -> np.ndarray:
    """The timed calls of one kind, seconds, each divided by the host's
    slowdown around it."""
    return np.asarray(bench.samples[kind]) / np.asarray(bench.hosts[kind])


def per_layer(bench: Bench) -> dict:
    """Layer metrics of a traced run, per call of the entry point that
    reaches the layer (seconds are self times, counts are span counts)."""
    tr = bench.tracer
    out = {}
    calls, sec, cnt, total = tr.per_root("mc")
    heralds, key_bits = np.mean(np.asarray(bench.mc_tallies, float), axis=0)
    offered, kept = tr.clicks
    slots = bench.mc.n_slots
    out.update({
        "montecarlo.run_protocol.s": total,
        "montecarlo.run_protocol.self_s": sec["mc"],
        "model.fair_sampled_classes.s": sec.get("model.fair_sampled_classes", 0.0),
        "montecarlo.phase_trajectory.s": sec.get("montecarlo.phase_trajectory", 0.0),
        "montecarlo.fine_blocks.s": sec.get("montecarlo.fine_blocks", 0.0),
        "montecarlo.detector_means.s": sec.get("montecarlo.detector_means", 0.0),
        "montecarlo.filter_deadtime.s": sec.get("montecarlo.filter_deadtime", 0.0),
        "montecarlo.slots": float(slots),
        "montecarlo.clicks": offered / calls,
        "montecarlo.heralds": float(heralds),
        "montecarlo.key_bits": float(key_bits),
        "montecarlo.herald_ratio": float(heralds) / slots,
        "montecarlo.deadtime_kept_ratio": kept / offered if offered else 1.0,
        "montecarlo.run_protocol.trace_overhead_s": _overhead(bench, "mc"),
    })
    calls, sec, cnt, _ = tr.per_root("keyrate")
    out.update({
        "keyrate.analyze_counts.s": sec["keyrate.analyze_counts"],
        "decoy.estimate.s": sec["decoy.estimate"],
        "finitestats.bound_expected.s": sec["finitestats.bound_expected"],
        "finitestats.bound_expected_calls": cnt["finitestats.bound_expected"],
        "aopp.aopp_estimate.s": sec["aopp.aopp_estimate"],
        "keyrate.secret_key_rate.s": sec["keyrate.secret_key_rate"],
        "keyrate.analyze_counts.trace_overhead_s": _overhead(bench, "keyrate"),
    })
    calls, sec, cnt, _ = tr.per_root("forward")
    out.update({
        "keyrate.expected_rates_model.s": sec["keyrate.expected_rates_model"],
        "keyrate.click_grids.s": sec["montecarlo.detector_means"],
        "keyrate.click_grid_calls": cnt["montecarlo.detector_means"],
        "keyrate.expected_rates_model.trace_overhead_s":
            _overhead(bench, "forward"),
    })
    return out


def _overhead(bench: Bench, kind: str) -> float:
    """Median traced call minus median untraced call, seconds."""
    return float(np.median(bench.traced[kind]) - np.median(bench.samples[kind]))


def load(workload: str, seed: int, sizes: Sizes) -> Bench:
    """Read the bundled fixtures and make the seeded inputs of a workload."""
    bundle = model.load_params_file(PARAMS_PATH)
    field_counts = decoy.DecoyCounts.from_counts_dict(
        json.loads(COUNTS_PATH.read_text()), bundle["protocol"])
    return Bench(workload=workload, seed=seed, sizes=sizes, bundle=bundle,
                 replicas=count_replicas(bundle, field_counts, seed, REPLICAS),
                 mc=mc_config(bundle, workload, sizes))
