"""End-to-end stochastic protocol simulation.

Pattern transmission through lossy asymmetric arms, first-order single-photon
interference with phase noise, gated threshold detection with dark counts and
deadtime, announcement and sifting, plus the two-stage off-band phase
stabilisation loop (fast coarse correction sensed on the support wavelength,
slow fine correction from reference-pulse counts).

Detection model: coherent pulses interfering on a balanced splitter give two
output modes with Poissonian photon numbers of means

    mu_pm = eff * [eta_a mu_a + eta_b mu_b
                   +- 2 V sqrt(eta_a mu_a eta_b mu_b) cos(delta)] / 2

and a detector clicks when its mode, plus a dark-equivalent Poisson admixture
of mean -ln(1 - p_dark), is non-empty.  Z windows with a single active sender
are sampled in the Fock picture instead (source photon number, binomial
survival, 50/50 routing), which is statistically identical for
phase-randomised pulses and provides ground-truth single-photon tags.

Z-window bit convention (truth table):

    Alice sends  -> Alice records 1      Bob sends  -> Bob records 0
    Alice silent -> Alice records 0      Bob silent -> Bob records 1

so matching bits come from exactly-one-sender events and raw-key errors
concentrate in both-sent / neither-sent detections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .aopp import RawKeyPair
from .decoy import CATEGORY_CLASSES, DecoyCounts
from .model import (
    DetectorParams,
    LinkBudget,
    ProtocolParams,
    Z_NOSEND,
    Z_SEND,
    X_U,
    X_V,
    class_totals,
    fair_sampled_classes,
    transmissivities,
)

__all__ = [
    "PhaseConfig",
    "PhaseTrace",
    "SimOutcome",
    "FeedbackDivergence",
    "MIN_SLOTS",
    "detector_means",
    "click_probs",
    "fine_feedback",
    "filter_deadtime",
    "simulate_phase_trace",
    "run_protocol",
]

MIN_SLOTS = 10_000
_BATCH_SLOTS = 1 << 20

# Lookup tables over the joint pair code 5a+b of Alice's and Bob's classes.
_PAIR_A = np.repeat(np.arange(5), 5)
_PAIR_B = np.tile(np.arange(5), 5)
_SN = 5 * Z_SEND + Z_NOSEND
_NS = 5 * Z_NOSEND + Z_SEND
_ZZ = (_PAIR_A <= Z_NOSEND) & (_PAIR_B <= Z_NOSEND)
_ALICE_BIT = (_PAIR_A == Z_SEND).astype(np.uint8)
_BOB_BIT = (_PAIR_B == Z_NOSEND).astype(np.uint8)


class FeedbackDivergence(RuntimeError):
    """Raised when a feedback configuration drives the loop unstable."""


@dataclass(frozen=True)
class PhaseConfig:
    """Phase-noise and stabilisation settings.

    Drift magnitudes are configurable (the reference system's values are
    not published as numbers); defaults give a clearly visible free-running
    drift at desk scale.  ``regime`` selects free / coarse / full
    (coarse+fine) feedback, or "ideal" for an i.i.d. Gaussian residual of
    width ``residual_sigma`` as assumed by the analytic forward model.
    """

    regime: str = "ideal"
    sigma_drift: float = 50.0        # common-path drift, rad / sqrt(s)
    sigma_diff: float = 0.5          # differential drift unseen by coarse
    coarse_gain: float = 0.05        # proportional gain per coarse update
    coarse_sensor_noise: float = 0.02  # rad rms on the coarse error signal
    fine_gain: float = 0.5           # integral gain per fine block
    fine_block_s: float = 1e-3       # fine feedback update period
    setpoint: float = math.pi / 2.0  # lock point (quadrature: max sensitivity)
    lock_tolerance: float = 0.05     # rad, |mean offset| target when locked
    residual_sigma: float = 0.02     # rad, ideal-regime residual width
    initial_offset: float = 0.3      # rad, starting offset from the setpoint
    ref_intensity: float = 0.2       # reference-pulse intensity, photons/pulse

    def __post_init__(self):
        if self.regime not in ("free", "coarse", "full", "ideal"):
            raise ValueError(f"unknown phase regime {self.regime!r}")
        if not 0.0 < self.coarse_gain < 2.0:
            raise FeedbackDivergence(
                f"coarse gain {self.coarse_gain} outside the stable (0, 2) range"
            )
        if not 0.0 < self.fine_gain <= 1.0:
            raise FeedbackDivergence(
                f"fine gain {self.fine_gain} outside the stable (0, 1] range"
            )


def fine_feedback(counts, gain: float, setpoint: float) -> float:
    """Integral correction from one block's reference-pulse counts (n1, n2).

    The count imbalance y = (n1 - n2)/(n1 + n2) ~= V cos(delta_phi)
    estimates the phase; the estimate is unbiased at quadrature, which is
    why the default lock point is pi/2.  An empty block corrects nothing.
    """
    n1, n2 = counts
    total = n1 + n2
    if total <= 0:
        return 0.0
    y = float(np.clip((n1 - n2) / total, -1.0, 1.0))
    return -gain * (math.acos(y) - setpoint)


def detector_means(mu_a, mu_b, delta, eta_a, eta_b, det_eff, visibility):
    """Mean photon numbers of the two interferometer outputs.

    Vectorised and dtype-preserving (float32 inputs stay float32).
    """
    a = eta_a * np.asarray(mu_a)
    b = eta_b * np.asarray(mu_b)
    cross = 2.0 * visibility * np.sqrt(a * b) * np.cos(delta)
    mu_plus = det_eff * (a + b + cross) / 2.0
    mu_minus = det_eff * (a + b - cross) / 2.0
    return mu_plus, mu_minus


def click_probs(mu_a, mu_b, delta, eta_a, eta_b, det_eff, p_dark, visibility):
    """Threshold click probabilities of the two interferometer outputs.

    p = 1 - (1 - p_dark) exp(-mu) per output, written with expm1 so that it
    keeps full relative precision when mu is tiny (deep loss, float32).
    The one click model of the package: the Monte Carlo sampler and the
    analytic forward model both call it.
    """
    mu_plus, mu_minus = detector_means(mu_a, mu_b, delta, eta_a, eta_b,
                                       det_eff, visibility)
    return (p_dark - (1.0 - p_dark) * np.expm1(-mu_plus),
            p_dark - (1.0 - p_dark) * np.expm1(-mu_minus))


def filter_deadtime(times: np.ndarray, deadtime_s: float,
                    last_retained: float = -np.inf) -> tuple[np.ndarray, float]:
    """Non-paralyzable deadtime: keep clicks >= deadtime after the last kept.

    ``times`` must be sorted.  Returns the retain mask and the time of the
    last retained click (carry state for the next batch).
    """
    keep = np.ones(times.size, dtype=bool)
    if times.size == 0:
        return keep, last_retained
    if deadtime_s <= 0:
        return keep, float(times[-1])
    last = last_retained
    for idx in range(times.size):
        if times[idx] - last < deadtime_s:
            keep[idx] = False
        else:
            last = times[idx]
    return keep, last


# ---------------------------------------------------------------------------
# Phase trajectory synthesis
# ---------------------------------------------------------------------------

def _phase_trajectory(cfg: PhaseConfig, n: int, dt: float,
                      rng_drift: np.random.Generator,
                      rng_sensor: np.random.Generator,
                      carry: dict) -> np.ndarray:
    """Evolve the channel phase over n steps (free drift or coarse loop).

    ``carry`` holds {"x": residual support phase, "d": differential phase}
    and is updated so consecutive batches stitch into one continuous
    trajectory.  The fine correction is added by ``_apply_fine_blocks``.
    """
    sq = math.sqrt(dt)
    w_c = (cfg.sigma_drift * sq) * rng_drift.standard_normal(n)
    w_d = (cfg.sigma_diff * sq) * rng_drift.standard_normal(n)
    if cfg.regime == "free":
        x = carry["x"] + np.cumsum(w_c)
    else:
        # Coarse loop linearised around lock: x_t = (1-g) x_{t-1} + w_t - g nu_t.
        g = cfg.coarse_gain
        nu = cfg.coarse_sensor_noise * rng_sensor.standard_normal(n)
        drive = w_c - g * nu
        drive[0] += (1.0 - g) * carry["x"]
        x = lfilter([1.0], [1.0, -(1.0 - g)], drive)
        if not np.isfinite(x[-1]) or abs(x[-1]) > 1e6:
            raise FeedbackDivergence("coarse loop diverged")
    carry["x"] = float(x[-1])
    d = carry["d"] + np.cumsum(w_d)
    carry["d"] = float(d[-1])
    return x + d


def _apply_fine_blocks(cfg: PhaseConfig, phases: np.ndarray, dt: float,
                       rng_ref: np.random.Generator, carry: dict,
                       ref_flux_per_slot: float, visibility: float) -> np.ndarray:
    """Fine feedback: per-block reference-count estimate, integral update.

    Each block is shifted by the accumulated correction ``carry["c_f"]``,
    which the block's estimate then updates for the next block.
    """
    block = max(1, int(round(cfg.fine_block_s / dt)))
    out = np.empty_like(phases)
    for lo in range(0, phases.size, block):
        hi = min(lo + block, phases.size)
        seg = phases[lo:hi] + carry["c_f"]
        out[lo:hi] = seg
        mid = float(np.mean(seg))
        n_ref = (hi - lo) * ref_flux_per_slot / 2.0
        n1 = rng_ref.poisson(max(n_ref * (1.0 + visibility * math.cos(mid)), 0.0))
        n2 = rng_ref.poisson(max(n_ref * (1.0 - visibility * math.cos(mid)), 0.0))
        carry["c_f"] += fine_feedback((n1, n2), cfg.fine_gain, cfg.setpoint)
        if abs(carry["c_f"]) > 1e6:
            raise FeedbackDivergence("fine loop diverged")
    return out


@dataclass(frozen=True)
class PhaseTrace:
    times_s: np.ndarray
    delta_phi_rad: np.ndarray
    regime: str
    seed: int

    def residual_std(self) -> float:
        return float(np.std(self.delta_phi_rad))

    def mean_offset(self, setpoint: float) -> float:
        return float(np.mean(self.delta_phi_rad) - setpoint)


def simulate_phase_trace(cfg: PhaseConfig, n_steps: int, dt: float,
                         seed: int) -> PhaseTrace:
    """Standalone stabilisation-loop run producing a phase trace.

    The drift increments come from a stream independent of the sensor and
    reference streams, so runs with the same seed experience the same
    physical drift in every regime.
    """
    if n_steps <= 0 or dt <= 0:
        raise ValueError("n_steps and dt must be positive")
    ss = np.random.SeedSequence(seed)
    s_drift, s_sensor, s_ref = [np.random.default_rng(c) for c in ss.spawn(3)]
    times = np.arange(n_steps, dtype=float) * dt
    if cfg.regime == "ideal":
        phases = cfg.setpoint + cfg.residual_sigma * s_drift.standard_normal(n_steps)
        return PhaseTrace(times_s=times, delta_phi_rad=phases,
                          regime=cfg.regime, seed=seed)
    carry = {"x": 0.0, "d": cfg.setpoint + cfg.initial_offset, "c_f": 0.0}
    phases = _phase_trajectory(cfg, n_steps, dt, s_drift, s_sensor, carry)
    if cfg.regime == "full":
        phases = _apply_fine_blocks(cfg, phases, dt, s_ref, carry,
                                    cfg.ref_intensity, visibility=0.99)
    return PhaseTrace(times_s=times, delta_phi_rad=phases,
                      regime=cfg.regime, seed=seed)


# ---------------------------------------------------------------------------
# Full protocol run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimOutcome:
    """Result of one Monte Carlo protocol run."""

    counts: DecoyCounts
    qber_z: float
    raw_keys: RawKeyPair
    phase_trace: PhaseTrace
    seed: int
    n_slots: int
    ground_truth: dict = field(default_factory=dict)


def run_protocol(params: ProtocolParams, link: LinkBudget, det: DetectorParams,
                 phase_cfg: PhaseConfig, n_slots: int, seed: int,
                 visibility: float = 0.97) -> SimOutcome:
    """Simulate ``n_slots`` protocol pulse pairs end to end.

    Per slot: draw both users' classes from fair-sampled patterns, evolve
    the channel phase, sample detector photon counts, enforce deadtime,
    classify one-detector heralded events into the 25 categories, build
    Z-window raw keys and X-window error tallies under the phase-matching
    rule.  Identical seeds give bit-identical outcomes.

    The patterns stream in batches of 2^20 slots: ``fair_sampled_classes``
    draws each batch's joint (Alice, Bob) pair codes from the class counts
    not yet placed, which is exactly the law of a whole-run shuffle of each
    side's exact-count classes (see ``model``), in O(batch) memory.  A
    starved class raises PatternError before any batch runs.  Each slot
    draws one uniform global phase difference theta_A - theta_B on
    [0, 2 pi): only that difference (mod 2 pi) enters the interference and
    the phase-matching windows, so this is exact in distribution.

    The protocol frame absorbs the lock setpoint: the phase entering the
    interference is the trajectory minus the setpoint, so a perfect lock
    means zero effective offset.
    """
    if n_slots < MIN_SLOTS:
        raise ValueError(f"run_protocol needs at least {MIN_SLOTS} slots")
    left_a = class_totals(params.alice, n_slots)
    left_b = class_totals(params.bob, n_slots)
    n_batches = (n_slots + _BATCH_SLOTS - 1) // _BATCH_SLOTS
    batch_seeds = np.random.SeedSequence(seed).spawn(n_batches)

    etas = transmissivities(link, det)
    eta_a, eta_b = etas["eta_a"], etas["eta_b"]
    p_dark = det.dark_prob_per_gate(params.clock_rate_hz)
    mu_of_a = params.alice.intensity_of().astype(np.float32)[_PAIR_A]
    mu_of_b = params.bob.intensity_of().astype(np.float32)[_PAIR_B]
    slot_dt = 1.0 / params.protocol_rate_hz
    window = params.phase_window_rad()

    pair_sent = np.zeros((5, 5), dtype=np.int64)
    pair_heralded = np.zeros((5, 5), dtype=np.int64)
    x_tallies = {X_U: [0, 0], X_V: [0, 0]}   # class -> [matched, errors]
    alice_key, bob_key, key_tags = [], [], []
    tagged = {"sn_sent": 0, "sn_heralded": 0, "ns_sent": 0, "ns_heralded": 0}
    phase_carry = {"x": 0.0, "d": phase_cfg.setpoint + phase_cfg.initial_offset,
                   "c_f": 0.0}
    last_retained = [-np.inf, -np.inf]
    trace_t, trace_phi = [], []
    trace_stride = max(1, n_slots // 4096)
    ref_flux = phase_cfg.ref_intensity * det.efficiency * (eta_a + eta_b) / 2.0

    for b in range(n_batches):
        lo = b * _BATCH_SLOTS
        hi = min(lo + _BATCH_SLOTS, n_slots)
        n = hi - lo
        rngs = batch_seeds[b].spawn(4)
        rng_slot = np.random.default_rng(rngs[0])
        rng_drift = np.random.default_rng(rngs[1])
        rng_sensor = np.random.default_rng(rngs[2])
        rng_ref = np.random.default_rng(rngs[3])

        code, table = fair_sampled_classes(left_a, left_b, n, rng_slot)
        left_a -= table.sum(axis=1)
        left_b -= table.sum(axis=0)
        pair_sent += table
        # Interference math runs in float32 (python-float scalars do not
        # promote); click decisions compare float64 uniforms against
        # expm1-based probabilities, which stay accurate at deep loss.
        dtheta = rng_slot.random(n, dtype=np.float32) * np.float32(2 * np.pi)

        if phase_cfg.regime == "ideal":
            dphi = phase_cfg.residual_sigma * rng_drift.standard_normal(
                n, dtype=np.float32)
        else:
            dphi = _phase_trajectory(phase_cfg, n, slot_dt, rng_drift,
                                     rng_sensor, phase_carry)
            if phase_cfg.regime == "full":
                dphi = _apply_fine_blocks(phase_cfg, dphi, slot_dt, rng_ref,
                                          phase_carry, ref_flux, visibility)
            dphi = (dphi - phase_cfg.setpoint).astype(np.float32)

        # Single-active-sender Z windows take the Fock path (exact for
        # phase-randomised pulses) and carry single-photon tags.
        sn = code == _SN
        ns = code == _NS
        click1 = np.zeros(n, dtype=bool)
        click2 = np.zeros(n, dtype=bool)
        tags = np.zeros(n, dtype=bool)
        coherent = np.ones(n, dtype=bool)

        for mask, mu_send, eta_send, mu_silent, tally_key in (
            (sn, params.alice.s, eta_a, params.bob.w, "sn"),
            (ns, params.bob.s, eta_b, params.alice.w, "ns"),
        ):
            idx = np.flatnonzero(mask)
            if idx.size == 0:
                continue
            n_src = rng_slot.poisson(mu_send, idx.size)
            clean = rng_slot.random(idx.size) < math.exp(-mu_silent)
            use = idx[clean]
            # Slots where the silent side emitted anyway fall back to the
            # coherent sampler; second order in the extinction level.
            k1u = np.zeros(use.size, dtype=np.int64)
            emitted = n_src[clean]
            pos = np.flatnonzero(emitted > 0)
            surv = rng_slot.binomial(emitted[pos], eta_send * det.efficiency)
            hit = np.flatnonzero(surv > 0)
            to_one = rng_slot.binomial(surv[hit], 0.5)
            k1u[pos[hit]] = to_one
            k2u = np.zeros(use.size, dtype=np.int64)
            k2u[pos[hit]] = surv[hit] - to_one
            click1[use] = k1u > 0
            click2[use] = k2u > 0
            if p_dark > 0:
                click1[use] |= rng_slot.random(use.size) < p_dark
                click2[use] |= rng_slot.random(use.size) < p_dark
            coherent[use] = False
            slot_tags = clean & (n_src == 1)
            tags[idx[slot_tags]] = True
            tagged[f"{tally_key}_sent"] += int(np.count_nonzero(slot_tags))

        coh = np.flatnonzero(coherent)
        if coh.size:
            c = code[coh]
            p1, p2 = click_probs(mu_of_a[c], mu_of_b[c],
                                 dtheta[coh] + dphi[coh], np.float32(eta_a),
                                 np.float32(eta_b), det.efficiency, p_dark,
                                 visibility)
            click1[coh] = rng_slot.random(coh.size) < p1
            click2[coh] = rng_slot.random(coh.size) < p2
        if det.deadtime_s > 0:
            for det_idx, clicks in enumerate((click1, click2)):
                hit = np.flatnonzero(clicks)
                keep, last_retained[det_idx] = filter_deadtime(
                    (lo + hit) * slot_dt, det.deadtime_s,
                    last_retained[det_idx])
                clicks[hit[~keep]] = False

        h1 = click1 & ~click2
        h2 = click2 & ~click1
        heralded = h1 | h2
        pair_heralded += np.bincount(code[heralded], minlength=25).reshape(5, 5)

        zz = _ZZ[code] & heralded
        if np.any(zz):
            key_codes = code[zz]
            alice_key.append(_ALICE_BIT[key_codes])
            bob_key.append(_BOB_BIT[key_codes])
            key_tags.append(tags[zz])
        tagged["sn_heralded"] += int(np.count_nonzero(tags & sn & heralded))
        tagged["ns_heralded"] += int(np.count_nonzero(tags & ns & heralded))

        for x_cls, tally in x_tallies.items():
            xx = (code == 5 * x_cls + x_cls) & heralded
            if not np.any(xx):
                continue
            dt_xx = dtheta[xx]
            near0 = np.minimum(dt_xx, 2.0 * np.pi - dt_xx) <= window
            nearpi = np.abs(dt_xx - np.pi) <= window
            # Detector 1 is the constructive port in the 0-window; matches
            # in the pi-window flip the expected detector.
            errors = (near0 & h2[xx]) | (nearpi & ~near0 & h1[xx])
            tally[0] += int(np.count_nonzero(near0 | nearpi))
            tally[1] += int(np.count_nonzero(errors))

        sub = np.arange(0, n, trace_stride)
        trace_t.append((lo + sub) * slot_dt)
        trace_phi.append(dphi[sub])

    detected = {k: float(pair_heralded[c]) for k, c in CATEGORY_CLASSES.items()}
    sent = {k: float(pair_sent[c]) for k, c in CATEGORY_CLASSES.items()}

    def _rate(tally):
        return tally[1] / tally[0] if tally[0] > 0 else 0.0

    counts = DecoyCounts(n_tot=float(n_slots), detected=detected, sent=sent,
                         qber_xuu=_rate(x_tallies[X_U]),
                         qber_xvv=_rate(x_tallies[X_V]))

    a_bits = np.concatenate(alice_key) if alice_key else np.zeros(0, np.uint8)
    b_bits = np.concatenate(bob_key) if bob_key else np.zeros(0, np.uint8)
    t_bits = np.concatenate(key_tags) if key_tags else np.zeros(0, bool)
    raw = RawKeyPair(alice_bits=a_bits, bob_bits=b_bits, tags=t_bits)

    gt = dict(tagged)
    s10_true = gt["sn_heralded"] / gt["sn_sent"] if gt["sn_sent"] else 0.0
    s01_true = gt["ns_heralded"] / gt["ns_sent"] if gt["ns_sent"] else 0.0
    v_a, v_b = params.alice.v, params.bob.v
    v_sum = v_a + v_b
    gt.update({
        "s10_true": s10_true,
        "s01_true": s01_true,
        "s1_true": ((v_a * s10_true + v_b * s01_true) / v_sum
                    if v_sum > 0 else 0.0),
    })

    trace = PhaseTrace(times_s=np.concatenate(trace_t),
                       delta_phi_rad=np.concatenate(trace_phi),
                       regime=phase_cfg.regime, seed=seed)
    return SimOutcome(counts=counts, qber_z=raw.error_rate(), raw_keys=raw,
                      phase_trace=trace, seed=seed, n_slots=n_slots,
                      ground_truth=gt)
