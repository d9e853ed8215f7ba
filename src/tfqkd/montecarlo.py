"""End-to-end stochastic protocol simulation, event-driven by thinning.

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
also carry a ground-truth single-photon tag.

Sampling law.  At deep loss almost no slot clicks, so ``run_protocol`` pays
per possible click, not per slot (Poisson/Bernoulli thinning, Lewis &
Shedler, Naval Res. Logist. Q. 26, 1979), and cuts the run into batches
that each hold about 2^14 possible clicks (at least 2^20 slots).  It is
exact, not an approximation, for five reasons:

* Exchangeable slots.  Given the run's 5x5 (Alice, Bob) pair table every
  arrangement of its pair codes is equally likely (see ``model``), and a
  slot's global phase, click draw and tag do not depend on its position.
* A per-slot bound.  With delta = theta_A - theta_B + phi the click
  probabilities p1(delta), p2(delta) of a slot never exceed their values
  at cos(delta) = 1 and -1, so P(any click) <= p_bar = 1 - (1 - p1(0))(1 -
  p2(pi)).  Each pair code draws Bin(T_ab, p_bar_ab) candidates once per
  run; a candidate takes outcome (c1, c2) with probability
  P(c1, c2 | delta) / p_bar at its own delta and is dropped otherwise, so
  every slot gets outcome (c1, c2) with probability P(c1, c2 | delta).
* One subset draw per batch.  Candidacy is independent from slot to slot
  given the code, so the slots labelled "candidate of code ab" or "no
  candidate" stay exchangeable: a batch's label counts are a uniformly
  random subset of the labels not yet placed (one multivariate
  hypergeometric draw over 26 labels), and its candidates sit at
  uniformly random distinct slots of the batch, in random order.
* Phase only where it is read.  theta_A - theta_B is uniform and
  independent of phi, and only the XX matching windows read it, so every
  other slot may take delta = theta_A - theta_B.  The channel phase is a
  Gaussian Markov process (random walks, and the linearised coarse loop's
  AR(1)), so evaluating it only at the XX candidate slots (plus trace
  slots and fine-block ends) through its exact k-step transitions gives
  the same joint law at those slots as the slot-by-slot walk.
* Tags by posterior.  A single-sender slot's outcome o has the
  phase-averaged law P_coh(o); tagging it with P(tag | o) = t P1(o) /
  P_coh(o) (``_tag_posterior``) gives (o, tag) the Fock picture's joint
  law t P1(o).  Slots without a click are all "neither", so one binomial
  per run tags them.

Deadtime.  Deadtime lives on the slot clock: after a kept click a detector
drops every click in the next ``DetectorParams.dead_slots`` slots (the
whole slots closer than ``deadtime_s``), the sequential non-paralyzable
rule.  ``filter_deadtime`` resolves it in integer numpy with the same
result: a click more than the dead slots after its predecessor and the
carried last kept slot is always kept, and within the clusters between
such clicks the kept clicks are the chain of next-kept indices from the
cluster's kept anchor.

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
from .decoy import CATEGORY_CLASSES, DecoyCounts
from .model import (
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
    "detector_means",
    "click_probs",
    "fine_feedback",
    "filter_deadtime",
    "simulate_phase_trace",
    "run_protocol",
]

MIN_SLOTS = 10_000
_MIN_BATCH_SLOTS = 1 << 20
_BATCH_EVENTS = 1 << 14       # thinning candidates per batch above 2^20
_TRACE_POINTS = 4096
_PHASE_GRID = np.linspace(0.0, 2.0 * np.pi, 512, endpoint=False)

# Lookup tables over the joint pair code 5a+b of Alice's and Bob's classes.
_PAIR_A = np.repeat(np.arange(5), 5)
_PAIR_B = np.tile(np.arange(5), 5)
_SN = 5 * Z_SEND + Z_NOSEND
_NS = 5 * Z_NOSEND + Z_SEND
_ZZ = (_PAIR_A <= Z_NOSEND) & (_PAIR_B <= Z_NOSEND)
_XX = (_PAIR_A == _PAIR_B) & ((_PAIR_A == X_U) | (_PAIR_A == X_V))
_ALICE_BIT = (_PAIR_A == Z_SEND).astype(np.uint8)
_BOB_BIT = (_PAIR_B == Z_NOSEND).astype(np.uint8)
_TAG_BIT = 0x80      # a key event's code byte: pair code, | this if tagged
_XUXU = 5 * X_U + X_U
_XVXV = 5 * X_V + X_V


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
    y = min(max((n1 - n2) / total, -1.0), 1.0)
    return -gain * (math.acos(y) - setpoint)


def detector_means(mu_a, mu_b, delta, eta_a, eta_b, det_eff, visibility):
    """Mean photon numbers of the two interferometer outputs.

    Vectorised over broadcastable inputs; the sampler and the forward model
    both evaluate it in float64.
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
    keeps full relative precision when mu is tiny (deep loss): the direct
    form cancels and loses digits in proportion to 1/mu.
    The one click model of the package: the Monte Carlo sampler and the
    analytic forward model both call it.
    """
    mu_plus, mu_minus = detector_means(mu_a, mu_b, delta, eta_a, eta_b,
                                       det_eff, visibility)
    return (p_dark - (1.0 - p_dark) * np.expm1(-mu_plus),
            p_dark - (1.0 - p_dark) * np.expm1(-mu_minus))


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
    slot), resolved in numpy.  The last kept slot before click i is at most
    its predecessor p_i = max(s_{i-1}, last_kept), so a *clear* click,
    s_i - p_i > dead_slots, is always kept.  Clear clicks cut the rest into
    clusters, each led by an anchor that is kept: the clear click before
    it, or ``last_kept`` for a cluster at the start.  The anchor is the
    predecessor of the cluster's first click, so that click is always
    dropped, and clusters of one click need nothing more.  After a kept
    slot T the next kept click is the first at or past T + dead_slots + 1,
    one ``searchsorted`` away, and never past the clear click that ends the
    cluster.  The kept clicks of a cluster are the chain of these next-kept
    links from its anchor, marked by pointer doubling in log2(chain
    length) passes (``_resolve_clusters``).  Sparse clicks rarely form a
    cluster of two, and then no chain is resolved at all.
    """
    if slots.size == 0:
        return np.ones(0, dtype=bool), last_kept
    pred = np.maximum(np.concatenate(([last_kept], slots[:-1])), last_kept)
    close = slots - pred <= dead_slots
    keep = ~close
    if np.count_nonzero(close[1:] & close[:-1]):
        keep[close] = _resolve_clusters(slots, close, dead_slots, last_kept)
    last = slots.size - 1 - int(keep[::-1].argmax())
    return keep, int(slots[last]) if keep[last] else last_kept


def _resolve_clusters(slots: np.ndarray, close: np.ndarray, dead_slots: int,
                      last_kept: int) -> np.ndarray:
    """Keep mask of the ``close`` clicks (see ``filter_deadtime``)."""
    # Cluster nodes in click order: each run of close clicks, led by its
    # anchor, the entry before the run.  Entry i + 1 of ``row`` is click i
    # and entry 0 the carry.
    row = np.concatenate(([False], close))
    is_node = row.copy()
    is_node[np.flatnonzero(row[1:] > row[:-1])] = True
    node = np.flatnonzero(is_node)
    anchor = ~row[node]
    s_node = slots[node - 1]
    if node[0] == 0:
        s_node[0] = last_kept
    # Next kept node: the first later node past the dead slots (node 0 is
    # never one).  Past the cluster's last node that is the next anchor or
    # none, and the chain goes to the sentinel m, which maps to itself.
    m = node.size
    nxt = np.searchsorted(s_node[1:], s_node + (dead_slots + 1)) + 1
    jump = np.append(np.where(np.append(anchor, True)[nxt], m, nxt), m)
    # Pointer doubling: after each pass ``kept`` holds the chain's first
    # 2^k nodes from each anchor and ``jump`` leaps 2^k links; stop when
    # every leap from a kept node lands on the sentinel.
    kept = np.append(anchor, False)
    while (hit := jump[kept]).min() < m:
        kept[hit] = True
        jump = jump[jump]
    return kept[:m][~anchor]


# ---------------------------------------------------------------------------
# Phase trajectory synthesis
# ---------------------------------------------------------------------------

def _linear_scan(r: np.ndarray, a: np.ndarray) -> np.ndarray:
    """y_j = r_j y_{j-1} + a_j with y_{-1} = 0, for every j at once.

    Log-depth doubling over the affine steps: after the pass with shift s
    entry j holds the composition of steps j-2s+1 .. j.  Only products of
    the |r| <= 1 factors are formed, so nothing overflows or divides.
    """
    r = r.copy()
    y = a.copy()
    shift = 1
    while shift < y.size:
        y[shift:] = y[shift:] + r[shift:] * y[:-shift]
        r[shift:] = r[shift:] * r[:-shift]
        shift *= 2
    return y


def _random_walk(v0: float, sd: float, k: np.ndarray, z_step: np.ndarray,
                 z_area: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Random walk of step sd at points k_j steps apart, with running sums.

    Over k steps the walk moves by W = sum w_i and its k new values add
    k v + sum (k - i + 1) w_i to the running sum; (W, area) is drawn from
    its exact joint Gaussian law, Var W = k sd^2, Cov = k(k+1)/2 sd^2 and
    residual area variance (k^3 - k)/12 sd^2.
    """
    step = sd * np.sqrt(k) * z_step
    area = 0.5 * (k + 1.0) * step + sd * np.sqrt((k**3 - k) / 12.0) * z_area
    v = v0 + np.cumsum(step)
    prev = np.concatenate(([v0], v[:-1]))
    return v, np.cumsum(k * prev + area)


def _ar1(x0: float, rho: float, k: np.ndarray, sources
         ) -> tuple[np.ndarray, np.ndarray]:
    """AR(1) x_t = rho x_{t-1} + e_t at points k_j steps apart, with sums.

    Over k steps x moves to rho^k x + A and the k new values add
    rho (1 - rho^k)/(1 - rho) x + B to the running sum, where (A, B) are
    jointly Gaussian linear functionals of the innovations.  ``sources``
    lists independent innovation parts as (sd, z_step, z_area); each part
    enters (A, B) through the same unit-variance Cholesky factor.
    """
    kk = k.astype(np.int64)
    rk = rho ** kk
    var_a = (1.0 - rho ** (2 * kk)) / (1.0 - rho * rho)
    geo = (1.0 - rk) / (1.0 - rho)
    cov = (geo - rho * var_a) / (1.0 - rho)
    var_b = (k - 2.0 * rho * geo + rho * rho * var_a) / (1.0 - rho) ** 2
    slope = cov / var_a
    resid = np.sqrt(np.maximum(var_b - cov * slope, 0.0))
    a = sum(sd * np.sqrt(var_a) * z for sd, z, _ in sources)
    b = slope * a + sum(sd * resid * z for sd, _, z in sources)
    a[0] += rk[0] * x0
    x = _linear_scan(rk, a)
    prev = np.concatenate(([x0], x[:-1]))
    return x, np.cumsum(rho * geo * prev + b)


def _phase_trajectory(cfg: PhaseConfig, slots: np.ndarray, dt: float,
                      rng_drift: np.random.Generator,
                      rng_sensor: np.random.Generator,
                      carry: dict) -> tuple[np.ndarray, np.ndarray]:
    """Channel phase at the sorted slot indices ``slots`` of one batch.

    Slot i lies i + 1 steps after the state in ``carry`` ({"x": residual
    support phase, "d": differential phase}), which moves to the last slot
    given so that consecutive batches stitch into one trajectory.  Between
    the given slots each part advances by its exact k-step Gaussian
    transition: the differential phase, and the support phase when free,
    are random walks; the coarse loop linearised around lock,
    x_t = (1-g) x_{t-1} + w_t - g nu_t, is an AR(1) process with k-step
    factor (1-g)^k.  Unit steps give the slot-by-slot walk, and at unit
    steps every regime sees the same drift draws.

    Returns the phase x + d at the slots and its running sum from slot 0
    through each slot, from which ``_apply_fine_blocks`` takes block means.
    """
    k = np.diff(slots, prepend=-1).astype(float)
    sq = math.sqrt(dt)
    z = rng_drift.standard_normal((4, k.size))
    if cfg.regime == "free":
        x, x_sum = _random_walk(carry["x"], cfg.sigma_drift * sq, k, z[0], z[1])
    else:
        nu = rng_sensor.standard_normal((2, k.size))
        x, x_sum = _ar1(carry["x"], 1.0 - cfg.coarse_gain, k, (
            (cfg.sigma_drift * sq, z[0], z[1]),
            (cfg.coarse_gain * cfg.coarse_sensor_noise, nu[0], nu[1])))
        if not np.isfinite(x[-1]) or abs(x[-1]) > 1e6:
            raise FeedbackDivergence("coarse loop diverged")
    d, d_sum = _random_walk(carry["d"], cfg.sigma_diff * sq, k, z[2], z[3])
    carry["x"] = float(x[-1])
    carry["d"] = float(d[-1])
    return x + d, x_sum + d_sum


def _fine_block_ends(cfg: PhaseConfig, n: int, dt: float) -> np.ndarray:
    """Last slot of each fine-feedback block of an n-slot batch."""
    block = max(1, int(round(cfg.fine_block_s / dt)))
    return np.minimum(np.arange(block, n + block, block), n) - 1


def _apply_fine_blocks(cfg: PhaseConfig, slots: np.ndarray,
                       phases: np.ndarray, sums: np.ndarray, dt: float,
                       rng_ref: np.random.Generator, carry: dict,
                       ref_flux_per_slot: float, visibility: float) -> np.ndarray:
    """Fine feedback: per-block reference-count estimate, integral update.

    ``slots`` are a batch's sorted evaluated slots, ending with its last
    slot and holding every ``_fine_block_ends`` slot; ``sums`` are the
    running phase sums there (``_phase_trajectory``), so each block's mean
    phase is exact.  Each block is shifted by the accumulated correction
    ``carry["c_f"]``, which the block's estimate then updates for the next
    block.

    The RNG call order is part of the seeded contract: each block, in
    order, makes two scalar ``rng_ref.poisson`` draws, n1 then n2, and
    nothing else reads ``rng_ref``, so the same seed gives the same loop.
    """
    ends = _fine_block_ends(cfg, int(slots[-1]) + 1, dt)
    block_sums = np.diff(sums[np.searchsorted(slots, ends)], prepend=0.0)
    lengths = np.diff(ends, prepend=-1)
    means = (block_sums / lengths).tolist()
    n_refs = (lengths * ref_flux_per_slot / 2.0).tolist()
    poisson = rng_ref.poisson
    gain, setpoint = cfg.fine_gain, cfg.setpoint
    c_f = carry["c_f"]
    shift = []
    for mean, n_ref in zip(means, n_refs):
        shift.append(c_f)
        v_cos = visibility * math.cos(mean + c_f)
        n1 = poisson(max(n_ref * (1.0 + v_cos), 0.0))
        n2 = poisson(max(n_ref * (1.0 - v_cos), 0.0))
        c_f += fine_feedback((n1, n2), gain, setpoint)
        if abs(c_f) > 1e6:
            carry["c_f"] = c_f
            raise FeedbackDivergence("fine loop diverged")
    carry["c_f"] = c_f
    return phases + np.array(shift)[np.searchsorted(ends, slots)]


def _channel_phase(cfg: PhaseConfig, slots: np.ndarray, dt: float,
                   rngs, carry: dict, ref_flux_per_slot: float,
                   visibility: float) -> np.ndarray:
    """Channel phase minus the lock setpoint at the sorted slot indices.

    The one phase path: ``run_protocol`` calls it per batch and
    ``simulate_phase_trace`` once.  "ideal" draws an i.i.d. Gaussian
    residual of width ``residual_sigma``; the other regimes evaluate
    ``_phase_trajectory`` and, in "full", ``_apply_fine_blocks``.  The
    protocol frame absorbs the setpoint, so a perfect lock reads zero.
    ``rngs`` are the drift, sensor and reference streams; ``carry`` holds
    the loops' state between calls, and an empty one starts them at the
    setpoint plus ``initial_offset``.
    """
    rng_drift, rng_sensor, rng_ref = rngs
    if cfg.regime == "ideal":
        return cfg.residual_sigma * rng_drift.standard_normal(slots.size)
    if not carry:
        carry.update(x=0.0, d=cfg.setpoint + cfg.initial_offset, c_f=0.0)
    phi, sums = _phase_trajectory(cfg, slots, dt, rng_drift, rng_sensor,
                                  carry)
    if cfg.regime == "full":
        phi = _apply_fine_blocks(cfg, slots, phi, sums, dt, rng_ref, carry,
                                 ref_flux_per_slot, visibility)
    return phi - cfg.setpoint


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
    seed: int

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
    ``run_protocol``'s trace.  The drift increments come from a stream
    independent of the sensor and reference streams, so runs with the same
    seed experience the same physical drift in every regime.
    """
    if n_steps <= 0 or dt <= 0:
        raise ValueError("n_steps and dt must be positive")
    rngs = [np.random.default_rng(c)
            for c in np.random.SeedSequence(seed).spawn(3)]
    slots = np.arange(n_steps)
    phases = _channel_phase(cfg, slots, dt, rngs, {}, cfg.ref_intensity,
                            visibility=0.99)
    return PhaseTrace(times_s=slots * dt, delta_phi_rad=phases,
                      regime=cfg.regime, seed=seed)


# ---------------------------------------------------------------------------
# Full protocol run
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimOutcome:
    """Result of one Monte Carlo protocol run.

    ``wall_s`` is the run's wall time and ``stage_s`` splits it into wall
    seconds per stage: "draws" (set-up, the run's pair table and
    candidates, each batch's label draw and slots), "phase" (channel
    phase), "thinning" (click outcomes and tags), "deadtime" and "tally"
    (counts, keys and the outcome); ``candidates`` counts the thinning
    candidates the run drew over every pair code, the single-sender Z
    windows included, and ``accepted`` those of them that clicked, so
    accepted / candidates is the thinning's acceptance ratio; ``batches``
    is the number of batches the run was cut into.
    """

    counts: DecoyCounts
    qber_z: float
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


def _phase_averaged_law(mu_a, mu_b, eta_a, eta_b, det_eff, p_dark,
                        visibility) -> list:
    """Outcome probabilities (detector 1 only, 2 only, both, neither) of a
    coherent slot at a uniform relative phase.

    Given the phase the two detectors click independently, so the joint
    law is the phase average of products of ``click_probs``, taken over a
    uniform grid as the forward model does.
    """
    p1, p2 = click_probs(mu_a, mu_b, _PHASE_GRID, eta_a, eta_b, det_eff,
                         p_dark, visibility)
    return [float(np.mean(p1 * (1.0 - p2))), float(np.mean(p2 * (1.0 - p1))),
            float(np.mean(p1 * p2)), float(np.mean((1.0 - p1) * (1.0 - p2)))]


def _tag_posterior(mu_send: float, mu_silent: float, q: float,
                   p_dark: float, coherent: list) -> np.ndarray:
    """P(tag | outcome) of a single-active-sender Z window, per outcome
    (1 only, 2 only, both, neither).

    Both pulses are phase-randomised, so the window's outcome law is the
    phase-averaged coherent law ``coherent``.  With probability
    t = exp(-mu_silent) mu_send exp(-mu_send) the silent side emits nothing
    and the sender exactly one photon; such a slot is tagged (single-photon
    ground truth) and has the one-photon law P1: the photon survives with q
    and routes 50/50, and each detector adds its dark count.  Bayes gives
    P(tag | o) = t P1(o) / P_coh(o), capped at 1; an outcome that never
    occurs (P_coh(o) = 0, e.g. a blind, dark-free detector) gets 0.
    """
    tag = math.exp(-mu_silent) * mu_send * math.exp(-mu_send)
    only = (1.0 - p_dark) * (q / 2.0 + (1.0 - q) * p_dark)
    one_photon = np.array([only, only, q * p_dark + (1.0 - q) * p_dark**2,
                           (1.0 - q) * (1.0 - p_dark) ** 2])
    coherent = np.asarray(coherent)
    posterior = np.divide(tag * one_photon, coherent, out=np.zeros(4),
                          where=coherent > 0.0)
    return np.minimum(1.0, posterior)


def _scatter(codes: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    """Slots of a batch's events labelled ``codes``: distinct, uniform, in
    random order (exact by exchangeability; see the module docstring).

    A batch above 2^20 slots holds about 2^14 candidates, under 1/64 of its
    slots, below the 1/50 share at which numpy's ``choice`` allocates the
    whole slot range.
    """
    return rng.choice(n, codes.size, replace=False)


def run_protocol(params: ProtocolParams, link: LinkBudget, det: DetectorParams,
                 phase_cfg: PhaseConfig, n_slots: int, seed: int,
                 visibility: float = 0.97) -> SimOutcome:
    """Simulate ``n_slots`` protocol pulse pairs end to end.

    The outcome has the law of the slot-by-slot protocol: fair-sampled
    (Alice, Bob) classes, the channel phase, detector clicks, deadtime,
    classification of one-detector heralds into the 25 categories, Z-window
    raw keys and X-window error tallies under the phase-matching rule.
    Identical seeds give identical outcomes.

    The cost grows with the possible clicks, not the slots.  Before any
    batch runs, ``fair_sampled_classes`` draws the run's pair table T (a
    starved class raises PatternError) and each pair code draws its
    thinning candidates C_ab ~ Bin(T_ab, p_bar_ab), p_bar_ab = 1 - (1 -
    p1(cos delta = 1)) (1 - p2(cos delta = -1)) from ``click_probs``.  The
    run is cut into batches of max(2^20, min(n_slots, ceil(2^14 n_slots /
    sum C))) slots: dense links keep 2^20-slot batches, sparse ones pay a
    batch's fixed cost once per ~2^14 candidates.  Each batch takes its
    candidates per code by one subset draw over the 25 codes' remaining
    candidates and the remaining other slots, and places them at uniformly
    random distinct slots.  Each candidate draws its global phase
    difference theta_A - theta_B uniform on [0, 2 pi) (only that
    difference mod 2 pi enters the interference and the matching windows),
    adds the channel phase at its slot if it is an XX candidate, and keeps
    outcome (c1, c2) with probability P(c1, c2 | delta) / p_bar.  Double
    clicks stay events, so both detectors' clicks reach
    ``filter_deadtime``.  Clicking sn / ns slots draw their single-photon
    tag from ``_tag_posterior`` given their outcome, and one binomial at
    the end of the run tags the sn / ns slots that did not click.  The
    module docstring says why this is exact.

    The channel phase (``_channel_phase``) is evaluated only at XX
    candidate slots, at ~4096 trace slots spread over the run and at
    fine-block ends; the fine blocks restart at each batch boundary.

    Each Z-window herald keeps one code byte, its pair code with
    ``_TAG_BIT`` set when tagged, until the raw keys are built at the end.
    """
    t_start = time.perf_counter()
    if n_slots < MIN_SLOTS:
        raise ValueError(f"run_protocol needs at least {MIN_SLOTS} slots")
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
    sent = fair_sampled_classes(params.alice, params.bob, n_slots,
                                rng_run).ravel()

    eta_a, eta_b = transmissivities(link)
    p_dark = det.dark_prob_per_gate(params.clock_rate_hz)
    mu_a = params.alice.intensity_of()[_PAIR_A]
    mu_b = params.bob.intensity_of()[_PAIR_B]
    # p2 at cos(delta) = -1 is p1 at cos(delta) = 1, to the bit.
    p, _ = click_probs(mu_a, mu_b, 0.0, eta_a, eta_b, det.efficiency,
                       p_dark, visibility)
    p_bar = p + p - p * p
    cand = rng_run.binomial(sent, p_bar)
    n_cand = int(cand.sum())
    # ceil(2^14 n_slots / n_cand) in integers; no candidates, one batch.
    batch = max(_MIN_BATCH_SLOTS,
                min(n_slots, -(-_BATCH_EVENTS * n_slots // max(n_cand, 1))))
    n_batches = -(-n_slots // batch)
    batch_seeds = seeds.spawn(n_batches)
    # Labels not yet placed: each code's candidates, then the other slots.
    left = np.append(cand, n_slots - n_cand)
    tag_prob = np.zeros((25, 4))     # pair code, outcome -> P(tag | outcome)
    for code, mu_send, mu_silent, eta_send in (
            (_SN, mu_a[_SN], mu_b[_SN], eta_a),
            (_NS, mu_b[_NS], mu_a[_NS], eta_b)):
        tag_prob[code] = _tag_posterior(
            mu_send, mu_silent, eta_send * det.efficiency, p_dark,
            _phase_averaged_law(mu_a[code], mu_b[code], eta_a, eta_b,
                                det.efficiency, p_dark, visibility))
    slot_dt = 1.0 / params.protocol_rate_hz
    window = params.phase_window_rad()
    trace_stride = max(1, n_slots // _TRACE_POINTS)
    ref_flux = phase_cfg.ref_intensity * det.efficiency * (eta_a + eta_b) / 2.0

    # Per pair code: clicked candidates, heralds, tagged slots and heralds,
    # phase-matched and erroneous X heralds.
    clicked = np.zeros(25, dtype=np.int64)
    heralds = np.zeros(25, dtype=np.int64)
    tag_sent = np.zeros(25, dtype=np.int64)
    tag_heralded = np.zeros(25, dtype=np.int64)
    x_matched = np.zeros(25, dtype=np.int64)
    x_errors = np.zeros(25, dtype=np.int64)
    key_codes = []
    phase_carry = {}
    dead_slots = det.dead_slots(params.protocol_rate_hz)
    last_kept = [-(dead_slots + 1)] * 2
    trace_t, trace_phi = [], []

    for b in range(n_batches):
        lo = b * batch
        n = min(batch, n_slots - lo)
        rng_slot, *phase_rngs = [
            np.random.default_rng(s) for s in batch_seeds[b].spawn(4)]

        drawn = _subset_counts(left, n, rng_slot)
        left -= drawn
        code = np.repeat(np.arange(25, dtype=np.uint8), drawn[:25])
        slot = _scatter(code, n, rng_slot)
        lap("draws")

        # Channel phase at the XX candidate slots, the trace slots, the
        # fine-block ends and the batch's last slot (the carried state).
        in_xx = _XX[code]
        trace_slots = np.arange(-lo % trace_stride, n, trace_stride)
        ends = _fine_block_ends(phase_cfg, n, slot_dt)
        points = np.sort(np.concatenate([slot[in_xx], trace_slots, ends]))
        points = points[np.diff(points, prepend=-1) > 0]
        phi = _channel_phase(phase_cfg, points, slot_dt, phase_rngs,
                             phase_carry, ref_flux, visibility)
        trace_t.append((lo + trace_slots) * slot_dt)
        trace_phi.append(phi[np.searchsorted(points, trace_slots)])
        lap("phase")

        # Thinning: candidate (c1, c2) with probability P(c1, c2 | delta)/p_bar.
        dtheta = rng_slot.random(code.size) * (2.0 * np.pi)
        delta = dtheta.copy()
        delta[in_xx] += phi[np.searchsorted(points, slot[in_xx])]
        p1, p2 = click_probs(mu_a[code], mu_b[code], delta, eta_a, eta_b,
                             det.efficiency, p_dark, visibility)
        u = rng_slot.random(code.size) * p_bar[code]
        both = p1 * p2
        c1 = u < p1
        c2 = (u >= p1 - both) & (u < p1 + p2 - both)
        fired = np.flatnonzero(c1 | c2)
        del delta, p1, p2, u, both   # candidate-sized: free before the clicks

        order = fired[np.argsort(slot[fired])]
        slot, code, c1, c2 = slot[order], code[order], c1[order], c2[order]
        dtheta = dtheta[order]
        clicked += np.bincount(code, minlength=25)
        # Tags given the outcome (0: 1 only, 1: 2 only, 2: both); the slots
        # that did not click are all "neither" (3), tagged after the loop.
        outcome = np.where(c1, 2 * c2, 1)
        tags = rng_slot.random(code.size) < tag_prob[code, outcome]
        lap("thinning")
        if dead_slots > 0:
            for det_idx, clicks in enumerate((c1, c2)):
                hit = np.flatnonzero(clicks)
                keep, last_kept[det_idx] = filter_deadtime(
                    lo + slot[hit], dead_slots, last_kept[det_idx])
                clicks[hit[~keep]] = False
        lap("deadtime")

        h1 = c1 & ~c2
        h2 = c2 & ~c1
        heralded = h1 | h2
        tag_sent += np.bincount(code[tags], minlength=25)
        heralds += np.bincount(code[heralded], minlength=25)
        tag_heralded += np.bincount(code[tags & heralded], minlength=25)
        zz = _ZZ[code] & heralded
        key_codes.append(code[zz] | tags[zz] * np.uint8(_TAG_BIT))

        xx = _XX[code] & heralded
        dt_xx = dtheta[xx]
        near0 = np.minimum(dt_xx, 2.0 * np.pi - dt_xx) <= window
        nearpi = np.abs(dt_xx - np.pi) <= window
        # Detector 1 is the constructive port in the 0-window; matches in
        # the pi-window flip the expected detector.
        errors = (near0 & h2[xx]) | (nearpi & ~near0 & h1[xx])
        x_matched += np.bincount(code[xx][near0 | nearpi], minlength=25)
        x_errors += np.bincount(code[xx][errors], minlength=25)
        lap("tally")

    tag_sent += rng_run.binomial(sent - clicked, tag_prob[:, 3])
    lap("draws")

    def per_category(tally):
        return {k: float(tally[5 * a + b])
                for k, (a, b) in CATEGORY_CLASSES.items()}

    def qber(xx):
        return float(x_errors[xx] / x_matched[xx]) if x_matched[xx] else 0.0

    counts = DecoyCounts(n_tot=float(n_slots), detected=per_category(heralds),
                         sent=per_category(sent), qber_xuu=qber(_XUXU),
                         qber_xvv=qber(_XVXV))
    key = np.concatenate(key_codes)
    del key_codes
    tags = key >= _TAG_BIT
    key &= _TAG_BIT - 1
    raw = RawKeyPair(alice_bits=_ALICE_BIT[key], bob_bits=_BOB_BIT[key],
                     tags=tags)

    gt = {"sn_sent": int(tag_sent[_SN]),
          "sn_heralded": int(tag_heralded[_SN]),
          "ns_sent": int(tag_sent[_NS]),
          "ns_heralded": int(tag_heralded[_NS])}
    s10_true = gt["sn_heralded"] / gt["sn_sent"] if gt["sn_sent"] else 0.0
    s01_true = gt["ns_heralded"] / gt["ns_sent"] if gt["ns_sent"] else 0.0
    v_a, v_b = params.alice.v, params.bob.v
    v_sum = v_a + v_b
    gt.update({
        "s10_true": s10_true,
        "s01_true": s01_true,
        "s1_true": ((v_a * s10_true + v_b * s01_true) / v_sum
                    if v_sum > 0 else 0.0),
        "xuu_matched": int(x_matched[_XUXU]),
        "xvv_matched": int(x_matched[_XVXV]),
    })

    trace = PhaseTrace(times_s=np.concatenate(trace_t),
                       delta_phi_rad=np.concatenate(trace_phi),
                       regime=phase_cfg.regime, seed=seed)
    qber_z = raw.error_rate()
    lap("tally")
    return SimOutcome(counts=counts, qber_z=qber_z, raw_keys=raw,
                      phase_trace=trace, seed=seed, n_slots=n_slots,
                      ground_truth=gt, wall_s=lap_start - t_start,
                      stage_s=stage_s,
                      candidates=n_cand, accepted=int(clicked.sum()),
                      batches=n_batches)
