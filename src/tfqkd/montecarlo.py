"""End-to-end stochastic protocol simulation, event-driven.

Pattern transmission through lossy asymmetric arms, first-order single-photon
interference with phase noise, gated threshold detection with dark counts and
deadtime, announcement and sifting, plus the two-stage off-band phase
stabilisation loop (fast coarse correction sensed on the support wavelength,
slow fine correction from reference-pulse counts).  The loops' drift, gains
and fine-block period are module constants; ``PhaseConfig`` picks the
regime and the "ideal" residual width.

Detection model: coherent pulses interfering on a balanced splitter give two
output modes with Poissonian photon numbers of means

    mu_pm = eff * [eta_a mu_a + eta_b mu_b
                   +- 2 V sqrt(eta_a mu_a eta_b mu_b) cos(delta)] / 2

and a detector clicks when its mode, plus a dark-equivalent Poisson admixture
of mean -ln(1 - p_dark), is non-empty.  Z windows with a single active sender
also carry a ground-truth single-photon tag.

Sampling law.  At deep loss almost no slot clicks, so ``run_protocol`` pays
per click, not per slot, and cuts the run into batches that each hold
about 2^14 events (at least 2^20 slots).  It is exact, not an
approximation, for six reasons:

* Exchangeable slots.  Given the run's 5x5 (Alice, Bob) pair table every
  arrangement of its pair codes is equally likely (see ``model``), and a
  slot's global phase, click draw and tag do not depend on its position.
* Phase-blind codes by their law.  Every pulse is phase-randomised, and
  only the phase-matched XX windows (XuXu, XvXv) read the relative phase.
  In a slot of any other pair code theta_A - theta_B is uniform and
  independent of the channel phase phi, so delta is uniform too and the
  slot clicks i.i.d. with the phase-averaged law of
  ``phase_averaged_law``.  One multinomial per run splits such a
  code's T_ab slots over the law's four outcomes; numpy draws it as
  binomials in turn with "neither" the remainder, so no probability is
  formed as 1 - neither, which would cancel at deep loss.
* A per-slot bound for the XX codes.  With delta = theta_A - theta_B + phi
  the click probabilities p1(delta), p2(delta) of a slot never exceed
  their values at cos(delta) = 1 and -1, so P(any click) <= p_bar = 1 -
  (1 - p1(0))(1 - p2(pi)).  Each XX code draws Bin(T_ab, p_bar_ab)
  candidates once per run (Poisson/Bernoulli thinning, Lewis & Shedler,
  Naval Res. Logist. Q. 26, 1979); a candidate takes outcome (c1, c2)
  with probability P(c1, c2 | delta) / p_bar at its own delta and is
  dropped otherwise, so every slot gets outcome (c1, c2) with probability
  P(c1, c2 | delta).
* One subset draw per batch.  A slot's fate (its outcome, tag or XX
  candidacy) is independent from slot to slot given the code, so the
  slots labelled with their fate, one label per (code, outcome, tag) and
  one per XX code's candidates (77 labels), or "no event" stay
  exchangeable: the run draws each label's count once, a batch's label
  counts are a uniformly random subset of the labels not yet placed (one
  multivariate hypergeometric draw over 78 labels), and its events sit
  at uniformly random distinct slots of the batch.
* Phase only where it is read.  theta_A - theta_B is uniform and
  independent of phi, and only the XX matching windows read it, so no
  other slot draws a phase at all.  The channel phase is a Gaussian
  Markov process (random walks, and the linearised coarse loop's AR(1))
  on the run's global slot clock, so evaluating it only at the XX
  candidate and trace slots, plus the fine-block ends, through its exact
  k-step transitions gives the slot-by-slot walk's joint law there.  Each
  evaluated slot draws one normal per state part it moves: the support
  phase (the coarse loop's drift step and sensor noise enter it as one
  Gaussian innovation) and the differential drift.  The fine loop reads
  only block means.  Given the steps, the sum of the skipped slots' phases
  is Gaussian with a residual independent of everything else, so each
  closed block draws one more normal, of the summed residual variance,
  and only in "full".  Its two reference counts sum to a Poisson whatever
  the phase, so it draws that total and, when non-empty, detector 1's
  binomial share of it.
* Tags by posterior.  A single-sender slot's outcome o has the
  phase-averaged law P_coh(o), in closed form from
  ``phase_averaged_law``; tagging it with P(tag | o) = t P1(o) /
  P_coh(o) (``_tag_posterior``) gives (o, tag) the Fock picture's joint
  law t P1(o).  Tags are independent from slot to slot given the
  outcome, so one binomial per (sn / ns, outcome) per run tags them all,
  the slots without a click ("neither") included, and the tag rides in
  the event's label.  A label's attributes (key bits, tag, window, XX
  candidacy, clicks) are one byte, ``_LABEL_BITS``, read once per event.

Random streams.  A run builds its three generators once, before its first
batch.  The run's stream, seeded by the run's seed, makes the set-up draws
(the pair table, the fates and the tags) and then every batch draw: the
label subset, the slots, and each XX candidate's uniform and phase
difference.  The phase layer's drift and reference streams are the seed's
two spawned children, those of ``simulate_phase_trace``.  The
sort key of a batch's events, slot << 8 | label, is int32 in batches of
fewer than 2^23 slots and int64 otherwise; slots turn int64 once, when the
batch's offset is added.

Forward-model physics.  The click model's phase averages are in closed
form here too, from one ``detector_means`` call each: the outcome law at
a uniform relative phase (``phase_averaged_law``) and the QBER of the
phase-matched X windows under a Gaussian residual phase
(``phase_matched_qber``), both through the modified Bessel functions
I_k of ``_bessel_i``.  ``keyrate.expected_rates_model`` builds on them.

Deadtime.  Deadtime lives on the slot clock: after a kept click a detector
drops every click in the next ``DetectorParams.dead_slots`` slots (the
whole slots closer than ``deadtime_s``), the sequential non-paralyzable
rule.  ``filter_deadtime`` keeps, in one numpy pass, every click more
than the dead slots after its predecessor and the carried last kept slot,
and walks the rule itself only where two close clicks meet.

Z-window bit convention (truth table):

    Alice sends  -> Alice records 1      Bob sends  -> Bob records 0
    Alice silent -> Alice records 0      Bob silent -> Bob records 1

so matching bits come from exactly-one-sender events and raw-key errors
concentrate in both-sent / neither-sent detections.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .aopp import RawKeyPair
from .decoy import CATEGORY_CLASSES, DecoyCounts, bound_s1
from .model import (
    DEFAULT_VISIBILITY,
    MAX_SLOTS,
    DetectorParams,
    LinkBudget,
    ProtocolParams,
    Z_NOSEND,
    Z_SEND,
    X_U,
    X_V,
    _subset_counts,
    fair_sampled_classes,
    transmissivities,
)

__all__ = [
    "PhaseConfig",
    "PhaseTrace",
    "SimOutcome",
    "FeedbackDivergence",
    "MIN_SLOTS",
    "MAX_SLOTS",
    "detector_means",
    "click_probs",
    "phase_averaged_law",
    "phase_matched_qber",
    "filter_deadtime",
    "simulate_phase_trace",
    "run_protocol",
]

MIN_SLOTS = 10_000
_INT32_KEY_SLOTS = 1 << 23    # batches below it key events in int32
_MIN_BATCH_SLOTS = 1 << 20
_BATCH_EVENTS = 1 << 14       # events per batch above 2^20 slots
_TRACE_POINTS = 4096
_SETPOINT = math.pi / 2.0     # lock point (quadrature: max sensitivity)
_INITIAL_OFFSET = 0.3         # rad, the loops' starting offset from it
_REF_INTENSITY = 0.2          # reference-pulse intensity, photons/pulse
# The loops' drift, gains and fine-block period, read at call time.  The
# reference system does not publish them as numbers; these give a clearly
# visible free-running drift at desk scale.
_SIGMA_DRIFT = 50.0           # common-path drift, rad / sqrt(s)
_SIGMA_DIFF = 0.5             # differential drift unseen by the coarse loop
_COARSE_GAIN = 0.05           # proportional gain per coarse update
_COARSE_SENSOR_NOISE = 0.02   # rad rms, fed back times the gain
_FINE_GAIN = 0.5              # integral gain per fine block
_FINE_BLOCK_S = 1e-3          # fine feedback update period, s

# Lookup tables over the joint pair code 5a+b of Alice's and Bob's classes.
_PAIR_A = np.repeat(np.arange(5), 5)
_PAIR_B = np.tile(np.arange(5), 5)
_SN = 5 * Z_SEND + Z_NOSEND
_NS = 5 * Z_NOSEND + Z_SEND
_ZZ = (_PAIR_A <= Z_NOSEND) & (_PAIR_B <= Z_NOSEND)
_XX = (_PAIR_A == _PAIR_B) & ((_PAIR_A == X_U) | (_PAIR_A == X_V))
_KEY_BITS = ((_PAIR_A == Z_SEND) | (_PAIR_B == Z_NOSEND) << 1).astype(np.uint8)
_XUXU = 5 * X_U + X_U
_XVXV = 5 * X_V + X_V

# Event labels, grouped by pair code: one per (code, outcome, tag) an event
# can take.  A phase-blind event carries its outcome (0: detector 1 only,
# 1: 2 only, 2: both) and, for sn / ns, its single-photon tag, each tagged
# label right after its untagged twin; an XX candidate draws its outcome
# per event, so it has one label and no outcome.  A label's cell is its
# entry in the run's (code, outcome) table of counts, outcome 0 for XX.
_LABEL_CODE, _LABEL_OUTCOME, _LABEL_TAG = np.array([
    (code, outcome, tag) for code in range(25)
    for outcome in ((-1,) if _XX[code] else range(3))
    for tag in ((0, 1) if code in (_SN, _NS) else (0,))]).T
_N_LABELS = _LABEL_CODE.size
_CODE_FIRST_LABEL = np.searchsorted(_LABEL_CODE, np.arange(25))
# A label's attributes in one byte: its ``RawKeyPair`` event byte in bits
# 0-2, then a ZZ window, an XX candidate and each detector's click.
_ZZ_BIT, _XX_BIT, _C1_BIT, _C2_BIT = 8, 16, 32, 64
_LABEL_BITS = (_KEY_BITS[_LABEL_CODE] | _LABEL_TAG << 2
               | _ZZ[_LABEL_CODE] * _ZZ_BIT | _XX[_LABEL_CODE] * _XX_BIT
               | np.isin(_LABEL_OUTCOME, (0, 2)) * _C1_BIT
               | (_LABEL_OUTCOME >= 1) * _C2_BIT).astype(np.uint8)
_LABEL_CELL = 4 * _LABEL_CODE + np.maximum(_LABEL_OUTCOME, 0)
_TAGGED_LABELS = np.array([np.flatnonzero((_LABEL_CODE == code) & _LABEL_TAG)
                           for code in (_SN, _NS)])


class FeedbackDivergence(RuntimeError):
    """Raised when a phase loop's state runs past its divergence bound."""


@dataclass(frozen=True)
class PhaseConfig:
    """Phase-stabilisation regime.

    ``regime`` selects free / coarse / full (coarse+fine) feedback, with
    the loops' drift, gains and fine-block period of the module constants,
    or "ideal" for an i.i.d. Gaussian residual of width ``residual_sigma``
    as assumed by the analytic forward model.
    """

    regime: str = "ideal"
    residual_sigma: float = 0.02     # rad, ideal-regime residual width

    def __post_init__(self):
        if self.regime not in ("free", "coarse", "full", "ideal"):
            raise ValueError(f"unknown phase regime {self.regime!r}")
        if not 0.0 <= self.residual_sigma < math.inf:
            raise ValueError("residual_sigma must be finite and >= 0")


def _fine_block_slots(dt: float) -> int:
    """Slots B per fine block; block k ends at global slot k B - 1.

    Capped at ``MAX_SLOTS``, past every run's last slot."""
    return max(1, round(min(_FINE_BLOCK_S / dt, MAX_SLOTS)))


def detector_means(mu_a, mu_b, delta, eta_a, eta_b, det_eff, visibility):
    """Mean photon numbers of the two interferometer outputs.

    Vectorised over broadcastable inputs; the sampler and the forward model
    both evaluate it in float64.  Scalar inputs stay numpy scalars, not
    0-d arrays, which keeps the forward model's scalar calls cheap.
    """
    a = eta_a * mu_a
    b = eta_b * mu_b
    cross = 2.0 * visibility * np.sqrt(a * b) * np.cos(delta)
    mu_plus = det_eff * (a + b + cross) / 2.0
    mu_minus = det_eff * (a + b - cross) / 2.0
    return mu_plus, mu_minus


def click_probs(mu_a, mu_b, delta, eta_a, eta_b, det_eff, p_dark, visibility):
    """Threshold click probabilities of the two interferometer outputs.

    p = 1 - (1 - p_dark) exp(-mu) per output, written with expm1 so that it
    keeps full relative precision when mu is tiny (deep loss): the direct
    form cancels and loses digits in proportion to 1/mu.
    The one click model of the package: the Monte Carlo sampler and the
    analytic forward model both call it.
    """
    mu_plus, mu_minus = detector_means(mu_a, mu_b, delta, eta_a, eta_b,
                                       det_eff, visibility)
    return (p_dark - (1.0 - p_dark) * np.expm1(-mu_plus),
            p_dark - (1.0 - p_dark) * np.expm1(-mu_minus))


def _bessel_i(b: float, k: int) -> float:
    """I_k(b) = sum_{m >= 0} (b/2)^(2m+k) / (m! (m+k)!), summed term by
    term, less its constant term 1 when k = 0.

    Every term is positive, so the sum keeps full relative precision at
    any b >= 0; np.i0(b) - 1 cancels when b is small (deep loss).
    """
    y = b * b / 4.0
    m = 0 if k else 1
    term = (b / 2.0) ** k / math.factorial(k) if k else y
    total = 0.0
    while term > 1e-17 * total:
        total += term
        m += 1
        term *= y / (m * (m + k))
    return total


def _closed_form_law(mu_plus: float, mu_minus: float, p_dark: float) -> list:
    """The closed form of ``phase_averaged_law`` from the output means at
    delta = 0, as Python floats."""
    a = (mu_plus + mu_minus) / 2.0
    x = (1.0 - p_dark) * math.exp(-a)
    gap = p_dark - (1.0 - p_dark) * math.expm1(-a)
    g = _bessel_i((mu_plus - mu_minus) / 2.0, 0)
    single = x * (gap + g)
    return [single, single, gap * gap - 2.0 * x * g, x * x]


def phase_averaged_law(mu_a, mu_b, eta_a, eta_b, det_eff, p_dark,
                       visibility) -> list:
    """Outcome probabilities (detector 1 only, 2 only, both, neither) of a
    coherent slot at a uniform relative phase, in closed form.

    The output means are A +- B cos(delta), A + B and A - B being the
    ``detector_means`` at delta = 0, and the detectors click independently
    given delta.  The phase average of exp(-B cos(delta)) is I0(B), so with
    x = (1 - p_dark) exp(-A), gap = 1 - x and g = I0(B) - 1:
    neither = x^2, each single = x (gap + g) and both = gap^2 - 2 x g.
    gap takes the expm1 form of ``click_probs`` and g its power series, so
    every outcome keeps full relative precision at deep loss.  Scalar
    inputs; the forward model calls it, and the sampler's per-run table
    (``_law_table``) shares its closed form.
    """
    mu_plus, mu_minus = detector_means(mu_a, mu_b, 0.0, eta_a, eta_b,
                                       det_eff, visibility)
    return _closed_form_law(float(mu_plus), float(mu_minus), p_dark)


def phase_matched_qber(mu_a, mu_b, eta_a, eta_b, det_eff, p_dark, visibility,
                       window_rad: float, jitter_sigma: float) -> float:
    """Expected QBER of phase-matched same-decoy X pairs, in closed form.

    A pair is accepted when its encoding-phase difference theta lies in
    [-W, W] (W = ``window_rad``; the window around pi, disjoint from it at
    every M >= 4 that ``model.structural_checks`` accepts, gives the same
    QBER with the detectors swapped), and delta = theta + a Gaussian
    residual channel phase of width ``jitter_sigma``.  The QBER is the
    heralds by the wrong detector (2 alone) over all heralds, each
    integrated over the window.

    With A +- B the ``detector_means`` at delta = 0 and x = (1 - p_dark)
    exp(-A), the no-click probabilities are x exp(-+B cos delta), so the
    wrong herald is x exp(-B cos delta) - x^2 and either herald
    x (exp(B cos delta) + exp(-B cos delta)) - 2 x^2.  Expanding
    exp(+-B cos delta) = I0(B) + 2 sum_k (+-1)^k I_k(B) cos(k delta), the
    jitter multiplies order k by exp(-k^2 sigma^2 / 2) and the window
    integrates cos(k theta) to 2 sin(k W) / k:

        num = x [2W (I0 - 1 + gap) + 4 sum_k (-1)^k c_k]
        den = x [4W (I0 - 1 + gap) + 8 sum_{k even} c_k]

    with c_k = I_k(B) exp(-k^2 sigma^2 / 2) sin(k W) / k and gap = 1 - x in
    the expm1 form of ``phase_averaged_law``.  Orders are summed until
    I_k exp(-k^2 sigma^2 / 2) falls below 1e-17 of the terms before it.
    Scalar inputs; one ``detector_means`` call.
    """
    mu_plus, mu_minus = detector_means(mu_a, mu_b, 0.0, eta_a, eta_b,
                                       det_eff, visibility)
    mu_plus, mu_minus = float(mu_plus), float(mu_minus)
    a = (mu_plus + mu_minus) / 2.0
    b = (mu_plus - mu_minus) / 2.0
    x = (1.0 - p_dark) * math.exp(-a)
    flat = _bessel_i(b, 0) + p_dark - (1.0 - p_dark) * math.expm1(-a)
    scale, odd, even = flat, 0.0, 0.0
    k = 1
    while True:
        term = _bessel_i(b, k) * math.exp(-0.5 * (k * jitter_sigma) ** 2)
        if not term > 1e-17 * scale:
            break
        scale += term
        c = term * math.sin(k * window_rad) / k
        if k % 2:
            odd += c
        else:
            even += c
        k += 1
    num = x * (2.0 * window_rad * flat + 4.0 * (even - odd))
    den = x * (4.0 * window_rad * flat + 8.0 * even)
    return num / den if den > 0.0 else 0.0


def _law_table(mu_a: np.ndarray, mu_b: np.ndarray, eta_a: float,
               eta_b: float, det_eff: float, p_dark: float,
               visibility: float) -> np.ndarray:
    """``phase_averaged_law`` of each pair code, one row per code, from one
    vectorised ``detector_means`` call."""
    mu_plus, mu_minus = detector_means(mu_a, mu_b, 0.0, eta_a, eta_b,
                                       det_eff, visibility)
    return np.array([_closed_form_law(hi, lo, p_dark) for hi, lo
                     in zip(mu_plus.tolist(), mu_minus.tolist())])


def filter_deadtime(slots: np.ndarray, dead_slots: int,
                    last_kept: int) -> tuple[np.ndarray, int]:
    """Non-paralyzable deadtime on the slot clock.

    ``slots`` are one detector's sorted int64 global slot indices and
    ``last_kept`` the slot of its last kept click (carry state; a detector
    with no click yet carries ``-(dead_slots + 1)``).  A click is dropped
    when ``slot - last kept <= dead_slots``.  Returns the keep mask and the
    slot of the last kept click, the carry for the next batch.

    The result is that of the sequential rule (walk the clicks, drop one
    within the dead slots of ``last``, else keep it and set ``last`` to its
    slot).  The last kept slot before click i is at most its predecessor
    p_i = max(s_{i-1}, last_kept), so a *clear* click, s_i - p_i >
    dead_slots, is always kept.  Clear clicks cut the rest into clusters,
    each led by an anchor that is kept: the clear click before it, or
    ``last_kept`` for a cluster at the start.  The anchor is the
    predecessor of the cluster's first click, so that click is always
    dropped, and clusters of one click need nothing more.  Only the
    clusters where two close clicks meet are walked by the rule itself,
    from their anchors; sparse clicks rarely form one.
    """
    if slots.size == 0:
        return np.ones(0, dtype=bool), last_kept
    pred = np.maximum(np.concatenate(([last_kept], slots[:-1])), last_kept)
    close = slots - pred <= dead_slots
    keep = ~close
    meet = close[1:] & close[:-1]
    if np.count_nonzero(meet):
        # Walk each close click i + 1 after a close click i; where click i
        # opens its cluster the walk restarts from the anchor, pred[i].
        at = np.flatnonzero(meet)
        kept, prev = [], -2
        for i, s, p in zip(at.tolist(), slots[at + 1].tolist(),
                           pred[at].tolist()):
            if i != prev + 1:
                kept_at = p
            if s - kept_at > dead_slots:
                kept_at = s
                kept.append(i + 1)
            prev = i
        keep[kept] = True
    last = slots.size - 1 - int(keep[::-1].argmax())
    return keep, int(slots[last]) if keep[last] else last_kept


# ---------------------------------------------------------------------------
# Phase trajectory synthesis
# ---------------------------------------------------------------------------

def _linear_scan(r: np.ndarray, a: np.ndarray, y0: float) -> np.ndarray:
    """y_j = r_j y_{j-1} + a_j with y_{-1} = y0, for every j at once.

    Log-depth doubling over the affine steps: after the pass with shift s
    entry j holds the composition of steps j-2s+1 .. j.  Only products of
    the |r| <= 1 factors are formed, so nothing overflows or divides.  The
    passes stop once every product that a later pass would apply is
    exactly 0, since those passes would add exact zeros: at sparse points
    the AR(1) factors rho^k underflow after a few passes, long before
    log2(size) of them.
    """
    r = r.copy()
    y = a.copy()
    y[0] += r[0] * y0
    shift = 1
    while shift < y.size and r[shift:].any():
        y[shift:] = y[shift:] + r[shift:] * y[:-shift]
        r[shift:] = r[shift:] * r[:-shift]
        shift *= 2
    return y


def _random_walk(v0: float, sd: float, k: np.ndarray, z: np.ndarray,
                 sums: np.ndarray | None = None) -> np.ndarray:
    """Random walk of step sd at points k_j steps apart, from v0.

    Over k steps the walk moves by W = sum w_i ~ N(0, k sd^2), drawn as
    sd sqrt(k) z from the point's one normal z.  With ``sums`` it also adds
    into its rows, per interval, the law of the sum of its k new values
    given W: they add k v + sum (k - i + 1) w_i, Gaussian with mean k v +
    (k + 1) W / 2 and a residual of variance (k^3 - k)/12 sd^2 that is
    independent of every W and of the other intervals' residuals.
    """
    step = sd * np.sqrt(k) * z
    v = v0 + step.cumsum()
    if sums is not None:
        sums[0] += k * np.concatenate(([v0], v[:-1])) + 0.5 * (k + 1.0) * step
        sums[1] += (sd * sd / 12.0) * (k * k * k - k)
    return v


def _ar1(x0: float, rho: float, k: np.ndarray, sd: float, z: np.ndarray,
         sums: np.ndarray | None = None) -> np.ndarray:
    """AR(1) x_t = rho x_{t-1} + e_t, e_t ~ N(0, sd^2), at points k_j
    steps apart, from x0, with one normal z per point.

    Over k steps x moves to rho^k x + A, A = sqrt(var_a) sd z with var_a =
    (1 - rho^2k)/(1 - rho^2).  With ``sums`` it also adds into its rows,
    per interval, the law of the sum of its k new values given A: they add
    rho (1 - rho^k)/(1 - rho) x + B, with (A, B) jointly Gaussian linear
    functionals of the innovations, so B given A has mean slope A and a
    residual independent of every A and of the other intervals' residuals.
    """
    rk = np.exp(k * math.log(rho))
    var_a = (1.0 - rk * rk) / (1.0 - rho * rho)
    a = sd * np.sqrt(var_a) * z
    x = _linear_scan(rk, a, x0)
    if sums is not None:
        c = 1.0 / (1.0 - rho)
        geo = (1.0 - rk) * c
        cov = (geo - rho * var_a) * c
        slope = cov / var_a
        var_b = (k - 2.0 * rho * geo + rho * rho * var_a) * (c * c)
        var_b -= cov * slope
        sums[0] += rho * geo * np.concatenate(([x0], x[:-1]))
        sums[0] += slope * a
        sums[1] += sd * sd * np.maximum(var_b, 0.0)
    return x


def _phase_trajectory(cfg: PhaseConfig, slots: np.ndarray, dt: float,
                      rng_drift: np.random.Generator, carry: dict,
                      ends: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray | None]:
    """Channel phase at the sorted global slot indices ``slots``, and the
    mean phase of each fine block that ends at ``slots[ends]``.

    ``carry`` holds the residual support phase "x" and the differential
    phase "d" at global slot ``carry["pos"]`` (-1 before slot 0), and moves
    to the last slot, so that consecutive calls stitch into one trajectory.
    Between the slots each part advances by its exact k-step Gaussian
    transition: the differential phase, and the support phase when free,
    are random walks; the coarse loop linearised around lock, x_t = (1-g)
    x_{t-1} + w_t - g nu_t, is an AR(1) process with k-step factor (1-g)^k.
    w_t and nu_t reach x only through their sum, one white Gaussian
    innovation of variance sigma_drift^2 dt + g^2 sigma_sensor^2.  Per
    point ``rng_drift`` draws x's normal and d's (one (2, n) draw), so at
    the same slots every regime shares them: the same differential walk,
    and x's normals scaled to the regime's innovation.

    Block means are formed only when ``ends`` (sorted indices of the block
    ends among ``slots``) is given; ``_channel_phase`` gives it in "full".
    An interval's sum of values is its mean given the steps plus a
    Gaussian residual independent of everything else, so a block's
    residual is one normal of the intervals' summed variance: after the
    step draws ``rng_drift`` draws one normal per closed block.  The open
    block's partial sum and residual variance ride in ``carry["open"]``
    and ``carry["open_var"]``.
    """
    k = np.subtract(slots, np.concatenate(([carry["pos"]], slots[:-1])),
                    dtype=float)
    sq = math.sqrt(dt)
    sums = None if ends is None else np.zeros((2, k.size))
    z = rng_drift.standard_normal((2, k.size))
    if cfg.regime == "free":
        x = _random_walk(carry["x"], _SIGMA_DRIFT * sq, k, z[0], sums)
    else:
        g = _COARSE_GAIN
        x = _ar1(carry["x"], 1.0 - g, k, math.hypot(
            _SIGMA_DRIFT * sq, g * _COARSE_SENSOR_NOISE), z[0], sums)
        if not abs(x[-1]) <= 1e6:      # NaN included
            raise FeedbackDivergence("coarse loop diverged")
    d = _random_walk(carry["d"], _SIGMA_DIFF * sq, k, z[1], sums)
    carry.update(pos=int(slots[-1]), x=float(x[-1]), d=float(d[-1]))
    x += d
    if sums is None:
        return x, None
    # Per closed block, its sum and residual variance; the rest stays open.
    sums[:, 0] += (carry["open"], carry["open_var"])
    cut = int(ends[-1]) + 1 if ends.size else 0
    carry["open"], carry["open_var"] = np.add.reduce(sums[:, cut:], 1).tolist()
    if not cut:
        return x, np.zeros(0)
    total, var = np.add.reduceat(sums[:, :cut],
                                 np.concatenate(([0], ends[:-1] + 1)), axis=1)
    total += np.sqrt(var) * rng_drift.standard_normal(total.size)
    return x, total / _fine_block_slots(dt)


def _apply_fine_blocks(phases: np.ndarray, means: np.ndarray,
                       ends: np.ndarray, dt: float,
                       rng_ref: np.random.Generator, carry: dict,
                       ref_flux_per_slot: float, visibility: float) -> np.ndarray:
    """Fine feedback: per-block reference-count estimate, integral update.

    Block k is global slots (k - 1) B to k B - 1; entry i of
    ``ends`` is the index among the ``phases`` of the end of the i-th block
    closing here, and ``means`` its mean phase (``_phase_trajectory``).  Each
    closed block's mean is shifted by the correction ``carry["c_f"]``, which
    its estimate then updates; a phase takes the correction of its block, added
    to ``phases`` in place.  A block's two reference counts total n ~ Poisson(B
    times the flux) at any phase, and detector 1's n1 given n is Bin(n, (1 + V
    cos delta) / 2).  (n1 - n2) / n ~= V cos delta is unbiased at quadrature,
    the lock point ``_SETPOINT``; an empty block corrects nothing.  The seeded
    contract: per call one ``rng_ref.poisson`` vector of the totals, then per
    non-empty block, in order, one scalar ``rng_ref.binomial``; nothing else
    reads ``rng_ref``.
    """
    totals = rng_ref.poisson(_fine_block_slots(dt) * ref_flux_per_slot,
                             means.size)
    binomial = rng_ref.binomial
    c_f = carry["c_f"]
    shift = [c_f]
    for mean, n in zip(means.tolist(), totals.tolist()):
        if n:
            n1 = binomial(n, (1.0 + visibility * math.cos(mean + c_f)) / 2.0)
            c_f -= _FINE_GAIN * (math.acos((2 * n1 - n) / n) - _SETPOINT)
            if abs(c_f) > 1e6:
                carry["c_f"] = c_f
                raise FeedbackDivergence("fine loop diverged")
        shift.append(c_f)
    carry["c_f"] = c_f
    width = np.concatenate((ends, [phases.size - 1]))   # points per block
    width[1:] -= ends
    width[0] += 1
    phases += np.array(shift).repeat(width)
    return phases


def _channel_phase(cfg: PhaseConfig, slots: np.ndarray, dt: float,
                   rngs, carry: dict, ref_flux_per_slot: float,
                   visibility: float) -> np.ndarray:
    """The channel phase minus the lock setpoint at each requested slot.

    The one phase path, for ``run_protocol`` per batch and
    ``simulate_phase_trace`` once.  ``slots`` are global slot indices past
    the carried position, in any order, repeats allowed, and the phases
    come back in their order.  ``rngs`` are the drift and reference
    streams, ``carry`` the loops' state (empty: start before slot 0), left
    as it is by an empty request.  The evaluated points are the distinct
    slots, plus in "full" the fine-block ends up to the last slot, found
    by one stable argsort (the sorted runs merge) with an inverse index.
    Per point "ideal" draws one normal from the drift stream, an i.i.d.
    Gaussian residual of width ``residual_sigma``.  The other regimes run
    ``_phase_trajectory``: two drift normals per point.  In "full" each
    block closing at a point takes one more drift normal (its sum's
    residual); each call's closed blocks draw their reference totals as
    one vector and each non-empty one a binomial (``_apply_fine_blocks``).
    """
    rng_drift, rng_ref = rngs
    if not slots.size:
        return np.zeros(0)
    if not carry:
        carry.update(pos=-1, x=0.0, d=_SETPOINT + _INITIAL_OFFSET, c_f=0.0,
                     open=0.0, open_var=0.0)
    full = cfg.regime == "full"
    request = slots
    if full:
        block = _fine_block_slots(dt)
        k = np.arange((carry["pos"] + 1) // block, (slots.max() + 1) // block)
        request = np.concatenate([slots, (k + 1) * block - 1])
    order = request.argsort(kind="stable")   # merges the sorted runs
    ranked = request[order]
    distinct = np.ones(ranked.size, dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=distinct[1:])
    at = np.empty_like(order)
    at[order] = np.add.accumulate(distinct, dtype=np.intp) - 1
    points = ranked[distinct]
    if cfg.regime == "ideal":
        return cfg.residual_sigma * rng_drift.standard_normal(points.size)[at]
    ends = at[slots.size:] if full else None
    phi, means = _phase_trajectory(cfg, points, dt, rng_drift, carry, ends)
    if full:
        phi = _apply_fine_blocks(phi, means, ends, dt, rng_ref, carry,
                                 ref_flux_per_slot, visibility)
    return phi[at[:slots.size]] - _SETPOINT


@dataclass(frozen=True)
class PhaseTrace:
    """Channel phase over time, as the residual from the lock setpoint.

    ``delta_phi_rad`` is in the protocol frame of ``_channel_phase``: a
    perfect lock reads zero, in every regime and from both
    ``simulate_phase_trace`` and ``run_protocol``.
    """

    times_s: np.ndarray
    delta_phi_rad: np.ndarray
    regime: str

    def residual_std(self) -> float:
        return float(np.std(self.delta_phi_rad))

    def mean_offset(self) -> float:
        """Mean residual, the trace's offset from the setpoint."""
        return float(np.mean(self.delta_phi_rad))


def simulate_phase_trace(cfg: PhaseConfig, n_steps: int, dt: float,
                         seed: int) -> PhaseTrace:
    """Standalone stabilisation-loop run producing a phase trace.

    The same phase code as ``run_protocol``, evaluated at every step and
    reported as the residual from the setpoint, in the frame of
    ``run_protocol``'s trace.  The drift normals come from a stream
    independent of the reference stream, so runs with the same seed share
    them in every regime: the same differential walk, and the same normals
    behind the support phase's steps, each scaled to the regime's
    innovation (the drift step alone when free, plus the coarse loop's
    sensor noise otherwise).
    """
    if not (0 < n_steps < MAX_SLOTS and 0.0 < dt < math.inf):
        raise ValueError("n_steps must lie in [1, 2^55) and dt be finite "
                         "and positive")
    rngs = [np.random.default_rng(c)
            for c in np.random.SeedSequence(seed).spawn(2)]
    slots = np.arange(n_steps)
    phases = _channel_phase(cfg, slots, dt, rngs, {}, _REF_INTENSITY,
                            visibility=0.99)
    return PhaseTrace(times_s=slots * dt, delta_phi_rad=phases,
                      regime=cfg.regime)


# ---------------------------------------------------------------------------
# Full protocol run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimOutcome:
    """Result of one Monte Carlo protocol run.

    ``wall_s`` is the run's wall time and ``stage_s`` splits it into wall
    seconds per stage: "draws" (set-up, the run's pair table, candidates
    and label counts, each batch's label draw and slots), "phase" (channel
    phase), "thinning" (label lookups and the XX candidates' outcomes),
    "deadtime" and "tally" (label counts, keys and the outcome);
    ``candidates`` counts the events drawn, the 23 phase-blind codes'
    clicks plus the XuXu and XvXv thinning candidates, and ``accepted``
    those that clicked, so candidates - accepted is the XX candidates the
    thinning dropped and accepted / candidates no all-code acceptance
    ratio.  ``batches`` counts the run's batches.
    """

    counts: DecoyCounts
    raw_keys: RawKeyPair
    phase_trace: PhaseTrace
    seed: int
    n_slots: int
    ground_truth: dict = field(default_factory=dict)
    wall_s: float = 0.0
    stage_s: dict = field(default_factory=dict)
    candidates: int = 0
    accepted: int = 0
    batches: int = 0


def _tag_posterior(mu_send: float, mu_silent: float, q: float,
                   p_dark: float, coherent: list) -> np.ndarray:
    """P(tag | outcome) of a single-active-sender Z window, per outcome
    (1 only, 2 only, both, neither).

    Both pulses are phase-randomised, so the window's outcome law is the
    phase-averaged coherent law ``coherent`` (``phase_averaged_law``, which
    the forward model's heralding probabilities also come from).  With
    probability t = exp(-mu_silent) mu_send exp(-mu_send) the silent side
    emits nothing and the sender exactly one photon; such a slot is tagged
    (single-photon ground truth) and has the one-photon law P1: the photon
    survives with q and routes 50/50, and each detector adds its dark
    count.  Bayes gives P(tag | o) = t P1(o) / P_coh(o), capped at 1; an
    outcome that never occurs (P_coh(o) = 0, e.g. a blind, dark-free
    detector) gets 0.  Python floats in and out, one array at the end.
    """
    tag = math.exp(-mu_silent) * mu_send * math.exp(-mu_send)
    only = (1.0 - p_dark) * (q / 2.0 + (1.0 - q) * p_dark)
    one_photon = (only, only, q * p_dark + (1.0 - q) * p_dark**2,
                  (1.0 - q) * (1.0 - p_dark) ** 2)
    return np.array([min(1.0, tag * p1 / p) if p > 0.0 else 0.0
                     for p1, p in zip(one_photon, coherent)])


def _scatter(labels: np.ndarray, n: int,
             rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Slots and labels, in slot order, of a batch's events labelled
    ``labels``, placed at uniformly random distinct slots of the batch's
    ``n`` (exact by exchangeability; see the module docstring).

    Each event draws a uniform slot, and one in-place sort of the key slot
    << 8 | label puts the events in slot order.  The key is int32 when the
    batch has fewer than 2^23 slots, so that it stays below 2^31, and int64
    otherwise; the slots come back in the key's type (an int32 sort is
    about twice as fast).  Where events share a slot the first keeps it,
    and the others take a uniformly random sample of the free slots,
    without replacement and in random order: the r-th free slot is r plus
    the taken slots t_i with t_i - i <= r.  Every step commutes with any
    relabelling of the slots, so the events' slots are a uniformly random
    injection, the law of ``choice(n, k, replace=False)``, with no
    ``choice`` over the whole batch: memory stays near 9 bytes per event,
    and only the sample of free slots (about k^2 / 2n events) goes through
    ``choice``.
    """
    key = np.int32 if n < _INT32_KEY_SLOTS else np.int64
    events = rng.integers(0, n, labels.size, dtype=key)
    events <<= 8
    events |= labels
    events.sort()
    slot = events >> 8
    shared = np.flatnonzero(slot[1:] == slot[:-1]) + 1
    if shared.size:
        kept = np.delete(events, shared)
        taken = kept >> 8
        rank = rng.choice(n - taken.size, shared.size, replace=False)
        free = rank + np.searchsorted(taken - np.arange(taken.size), rank,
                                      side="right")
        moved = np.sort((free << 8 | events[shared] & 255).astype(key))
        events = np.insert(kept, np.searchsorted(kept, moved), moved)
        slot = events >> 8
    return slot, events.astype(np.uint8)


def run_protocol(params: ProtocolParams, link: LinkBudget, det: DetectorParams,
                 phase_cfg: PhaseConfig, n_slots: int, seed: int,
                 visibility: float = DEFAULT_VISIBILITY) -> SimOutcome:
    """Simulate ``n_slots`` protocol pulse pairs end to end.

    The outcome has the law of the slot-by-slot protocol: fair-sampled
    (Alice, Bob) classes, the channel phase, detector clicks, deadtime,
    classification of one-detector heralds into the 25 categories, Z-window
    raw keys and X-window error tallies under the phase-matching rule.
    Identical seeds give identical outcomes.

    The cost grows with the clicks, not the slots.  Before any batch runs,
    ``fair_sampled_classes`` draws the run's pair table T (a starved class
    raises PatternError) and ``_law_table`` the phase-averaged law of each
    pair code.  Each slot's fate is then drawn as counts, once per run, by
    one multinomial per code: each of the 23 phase-blind codes splits its
    T_ab slots over the law's four outcomes (1 only, 2 only, both,
    neither), and XuXu and XvXv draw thinning candidates C_ab ~ Bin(T_ab,
    p_bar_ab), with p_bar_ab = 1 - (1 - p1(cos delta = 1)) (1 - p2(cos
    delta = -1)) from ``click_probs``.  Binomials with ``_tag_posterior``
    tag the sn / ns clicks per outcome and the sn / ns slots that did not
    click.  Every event gets one byte-sized label, one per (code, outcome,
    tag), and an XX code's candidates one label each (``_LABEL_CODE`` and
    the tables beside it).  The run is cut into batches of max(2^20,
    min(n_slots, ceil(2^14 n_slots / C))) slots, C the run's events (clicks
    and candidates): dense links keep 2^20-slot batches, sparse ones pay a
    batch's fixed cost once per ~2^14 events.  Each batch takes its events
    per label by one subset draw over the labels' remaining events and the
    remaining other slots, and ``_scatter`` places them at uniformly random
    distinct slots, in slot order (int32 sort keys below 2^23 slots a
    batch); adding the batch's offset makes them int64 global slots.  Every
    batch draw comes from the run's one stream, which made the set-up
    draws, and the phase from two streams built with it, so no batch
    builds a generator.  One ``take`` of ``_LABEL_BITS`` gives each event
    its attribute byte, and a phase-blind event's outcome, key bits and tag
    are bits of it, with no phase or uniform draw.  An XX candidate draws
    its global phase difference theta_A - theta_B uniform on [0, 2 pi)
    (only that difference mod 2 pi enters the interference and the
    matching windows), adds the channel phase at its slot and keeps
    outcome (c1, c2) with probability P(c1, c2 | delta) / p_bar.  Double
    clicks stay events, so both detectors' clicks reach
    ``filter_deadtime``.  Phase (``_channel_phase``) and deadtime run on
    the global slot clock; each batch asks for the phase at its XX
    candidate slots and its share of ~4096 trace slots spread over the run,
    in that order.  The module docstring says why this is exact.

    The tallies are one ``bincount`` of the heralded labels per batch,
    folded by code at the end.  Each Z-window herald, picked by one
    ``compress``, keeps one ``RawKeyPair`` event byte, its attribute byte's
    bits 0-2: Alice's and Bob's key bits from ``_KEY_BITS`` and its tag in
    bit 2; the raw keys are the batches' bytes joined once at the end.
    """
    t_start = time.perf_counter()
    if not MIN_SLOTS <= n_slots < MAX_SLOTS:
        raise ValueError(f"run_protocol takes {MIN_SLOTS} to 2^55 - 1 "
                         f"slots, not {n_slots}")
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    stage_s = dict.fromkeys(("draws", "phase", "thinning", "deadtime",
                             "tally"), 0.0)
    lap_start = t_start

    def lap(stage):
        """Charge the wall time since the previous lap to ``stage``."""
        nonlocal lap_start
        now = time.perf_counter()
        stage_s[stage] += now - lap_start
        lap_start = now

    seeds = np.random.SeedSequence(seed)
    rng_run = np.random.default_rng(seeds)
    phase_rngs = [np.random.default_rng(s) for s in seeds.spawn(2)]
    sent = fair_sampled_classes(params.alice, params.bob, n_slots,
                                rng_run).ravel()

    eta_a, eta_b = transmissivities(link)
    p_dark = det.dark_prob(params.clock_rate_hz)
    mu_a = params.alice.intensity_of()[_PAIR_A]
    mu_b = params.bob.intensity_of()[_PAIR_B]
    law = _law_table(mu_a, mu_b, eta_a, eta_b, det.efficiency, p_dark,
                     visibility)
    # p2 at cos(delta) = -1 is p1 at cos(delta) = 1, to the bit.
    p, _ = click_probs(mu_a, mu_b, 0.0, eta_a, eta_b, det.efficiency,
                       p_dark, visibility)
    p_bar = p + p - p * p
    # Each slot's fate, as counts: one multinomial per code over the
    # outcomes (1 only, 2 only, both, neither).  A phase-blind code takes
    # its law; numpy draws it as binomials in turn with "neither" the
    # remainder, so no probability is formed as 1 - neither, which cancels
    # at deep loss.  An XX code's events are its thinning candidates, its
    # first outcome at p_bar.  The sn / ns events and slots without a click
    # take their tags by the posterior given the outcome.
    pvals = law.copy()
    pvals[_XX, :3] = 0.0
    pvals[_XX, 0] = p_bar[_XX]
    fate = rng_run.multinomial(sent, pvals)
    tag_prob = np.array([
        _tag_posterior(mu_a[_SN], mu_b[_SN], eta_a * det.efficiency, p_dark,
                       law[_SN].tolist()),
        _tag_posterior(mu_b[_NS], mu_a[_NS], eta_b * det.efficiency, p_dark,
                       law[_NS].tolist())])
    tagged = rng_run.binomial(fate[[_SN, _NS]], tag_prob)
    # Labels not yet placed: each label's events, then the other slots.
    left = np.append(fate.ravel()[_LABEL_CELL], fate[:, 3].sum())
    left[_TAGGED_LABELS] = tagged[:, :3]
    left[_TAGGED_LABELS - 1] -= tagged[:, :3]   # the untagged twin label
    n_cand = n_slots - int(left[-1])
    # ceil(2^14 n_slots / n_cand) in integers; no candidates, one batch.
    batch = max(_MIN_BATCH_SLOTS,
                min(n_slots, -(-_BATCH_EVENTS * n_slots // max(n_cand, 1))))
    n_batches = -(-n_slots // batch)
    slot_dt = 1.0 / params.protocol_rate_hz
    window = params.phase_window_rad()
    trace_stride = max(1, n_slots // _TRACE_POINTS)
    ref_flux = _REF_INTENSITY * det.efficiency * (eta_a + eta_b) / 2.0

    # Heralds per label, XX candidates the thinning dropped, and per pair
    # code the phase-matched and erroneous X heralds.
    heralds = np.zeros(_N_LABELS, dtype=np.int64)
    dropped = 0
    x_matched = np.zeros(25, dtype=np.int64)
    x_errors = np.zeros(25, dtype=np.int64)
    key_events = []
    phase_carry = {}
    dead_slots = det.dead_slots(params.protocol_rate_hz)
    last_kept = [-(dead_slots + 1)] * 2
    trace_phi = []
    lap("draws")

    for b in range(n_batches):
        lo = b * batch
        n = min(batch, n_slots - lo)
        drawn = _subset_counts(left, n, rng_run)
        left -= drawn
        label = np.repeat(np.arange(_N_LABELS, dtype=np.uint8), drawn[:-1])
        slot, label = _scatter(label, n, rng_run)
        slot = np.add(slot, lo, dtype=np.int64)
        bits = _LABEL_BITS.take(label)
        xx_at = np.flatnonzero((bits & _XX_BIT).astype(bool))
        xx_slot = slot[xx_at]
        lap("draws")

        # Channel phase at the XX candidate slots and the trace slots.
        trace_slots = np.arange(lo + -lo % trace_stride, lo + n, trace_stride)
        phi = _channel_phase(
            phase_cfg, np.concatenate([xx_slot, trace_slots]), slot_dt,
            phase_rngs, phase_carry, ref_flux, visibility)
        trace_phi.append(phi[xx_slot.size:])
        lap("phase")

        # Click outcomes.  A phase-blind event's outcome is its label's; an
        # XX candidate keeps (c1, c2) with probability P(c1, c2 | delta) /
        # p_bar at delta = theta_A - theta_B + phi: detector 1 alone for u
        # below p1 - both, both below p1, 2 alone below p1 + p2 - both.
        c1 = (bits & _C1_BIT).astype(bool)
        c2 = (bits & _C2_BIT).astype(bool)
        xx_code = _LABEL_CODE[label[xx_at]]
        u = rng_run.random(xx_at.size) * p_bar[xx_code]
        dtheta = rng_run.random(xx_at.size) * (2.0 * np.pi)
        p1, p2 = click_probs(mu_a[xx_code], mu_b[xx_code],
                             dtheta + phi[:xx_slot.size], eta_a, eta_b,
                             det.efficiency, p_dark, visibility)
        both = p1 * p2
        xx_c1 = u < p1
        xx_c2 = (u >= p1 - both) & (u < p1 + p2 - both)
        c1[xx_at], c2[xx_at] = xx_c1, xx_c2
        dropped += xx_at.size - int(np.count_nonzero(xx_c1 | xx_c2))
        lap("thinning")
        if dead_slots > 0:
            for det_idx, clicks in enumerate((c1, c2)):
                hit = np.flatnonzero(clicks)
                keep, last_kept[det_idx] = filter_deadtime(
                    slot[hit], dead_slots, last_kept[det_idx])
                clicks[hit[~keep]] = False
        lap("deadtime")

        heralded = c1 ^ c2
        heralds += np.bincount(label.compress(heralded), minlength=_N_LABELS)
        zz = (bits & _ZZ_BIT).astype(bool)
        key_events.append(bits.compress(heralded & zz) & 7)

        xx = heralded[xx_at]
        xx_h1 = c1[xx_at][xx]
        dt_xx = dtheta[xx]
        near0 = np.minimum(dt_xx, 2.0 * np.pi - dt_xx) <= window
        nearpi = np.abs(dt_xx - np.pi) <= window
        # Detector 1 is the constructive port in the 0-window; matches in
        # the pi-window flip the expected detector.  The windows are
        # disjoint (M >= 4, ``model.structural_checks``).
        errors = (near0 & ~xx_h1) | (nearpi & xx_h1)
        x_matched += np.bincount(xx_code[xx][near0 | nearpi], minlength=25)
        x_errors += np.bincount(xx_code[xx][errors], minlength=25)
        lap("tally")

    tag_heralded = heralds[_TAGGED_LABELS].sum(axis=1).tolist()
    heralds = np.add.reduceat(heralds, _CODE_FIRST_LABEL)

    def per_category(tally):
        return {k: float(tally[5 * a + b])
                for k, (a, b) in CATEGORY_CLASSES.items()}

    def qber(xx):
        return float(x_errors[xx] / x_matched[xx]) if x_matched[xx] else 0.0

    counts = DecoyCounts(n_tot=float(n_slots), detected=per_category(heralds),
                         sent=per_category(sent), qber_xuu=qber(_XUXU),
                         qber_xvv=qber(_XVXV))
    raw = RawKeyPair(np.concatenate(key_events))

    tag_sent = tagged.sum(axis=1).tolist()
    s10_true, s01_true = (h / t if t else 0.0
                          for h, t in zip(tag_heralded, tag_sent))
    gt = {"sn_sent": tag_sent[0], "sn_heralded": tag_heralded[0],
          "ns_sent": tag_sent[1], "ns_heralded": tag_heralded[1],
          "s10_true": s10_true, "s01_true": s01_true,
          "s1_true": bound_s1(s01_true, s10_true, params),
          "xuu_matched": int(x_matched[_XUXU]),
          "xvv_matched": int(x_matched[_XVXV])}

    trace = PhaseTrace(times_s=np.arange(0, n_slots, trace_stride) * slot_dt,
                       delta_phi_rad=np.concatenate(trace_phi),
                       regime=phase_cfg.regime)
    lap("tally")
    return SimOutcome(counts=counts, raw_keys=raw,
                      phase_trace=trace, seed=seed, n_slots=n_slots,
                      ground_truth=gt, wall_s=lap_start - t_start,
                      stage_s=stage_s, candidates=n_cand,
                      accepted=n_cand - dropped, batches=n_batches)
