"""Protocol, channel, detector and security parameters, plus pattern synthesis.

The parameter set mirrors a 4-intensity sending-or-not-sending protocol over
an asymmetric pair of fibre arms meeting at a middle interference node.  The
not-sending intensity is aliased to the dimmest test intensity ``w`` on each
side (finite extinction ratio), so each transmitter has four distinct levels:
s, u, v, w.

Transmission patterns are fair-sampled: each side's run holds exact
per-class counts (largest-remainder rounding of probability * n_slots), in
a uniformly random order, independently of the other side.  This removes
sampling fluctuations from the pulse-pair distribution.

The patterns are never materialised.  ``fair_sampled_classes`` draws the
run's joint 5x5 (Alice, Bob) pair table once.  Under two independent
uniform arrangements, Alice's class-a slots hold a uniformly random subset
of Bob's classes (multivariate hypergeometric counts), so one subset draw
per Alice class gives the table its exact law; and given the table every
order of the run's pair codes is equally likely.  The slots are
exchangeable, which is what lets the Monte Carlo sampler cut the run into
batches by one subset draw each and place only the slots that may click
(see ``montecarlo``).
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

__all__ = [
    "ProtocolParams",
    "LinkBudget",
    "DetectorParams",
    "SecurityParams",
    "ConstraintCheck",
    "ValidationReport",
    "PatternError",
    "CLASS_NAMES",
    "DEFAULT_VISIBILITY",
    "DEFAULT_MISALIGNMENT_SIGMA_RAD",
    "MAX_INTENSITY",
    "MAX_SLOTS",
    "Z_SEND",
    "Z_NOSEND",
    "X_U",
    "X_V",
    "X_W",
    "structural_checks",
    "validate_params",
    "class_totals",
    "fair_sampled_classes",
    "transmissivities",
    "load_params_file",
]

# Per-side slot class codes used throughout the simulator.
Z_SEND, Z_NOSEND, X_U, X_V, X_W = 0, 1, 2, 3, 4
CLASS_NAMES = ("Zs", "Zn", "Xu", "Xv", "Xw")

# Interference visibility and residual phase misalignment (rad, Gaussian
# sigma) assumed when a parameter file or caller gives none.
DEFAULT_VISIBILITY = 0.97
DEFAULT_MISALIGNMENT_SIGMA_RAD = 0.0

# The largest intensity the decoy analysis can take: its three-intensity
# bound forms e^u (``decoy._three_intensity_bound``), and math.exp raises
# OverflowError past ln(largest float), which is itself the largest float
# with a finite exponential.
MAX_INTENSITY = math.log(sys.float_info.max)

# Runs hold fewer slots than this (exclusive: the sampler's event sort key
# slot << 8 | label fits int64).  A duration turned into slots is capped
# here too: no run reaches the cap, so the capped value acts as the real one.
MAX_SLOTS = 1 << 55


class PatternError(ValueError):
    """Raised when a pattern cannot represent the requested probabilities."""


@dataclass(frozen=True)
class SideParams:
    """One transmitter's intensities and probabilities."""

    s: float        # signal intensity, photons/pulse
    u: float        # brightest decoy
    v: float        # middle decoy
    w: float        # dimmest decoy, aliased to the not-sending level
    p_z: float      # probability of the code basis
    send_prob: float  # probability of sending given the code basis
    p_u: float      # decoy probabilities conditioned on the test basis
    p_v: float
    p_w: float

    def class_probs(self) -> np.ndarray:
        """Unconditional probabilities of the five slot classes."""
        p_x = 1.0 - self.p_z
        return np.array([
            self.p_z * self.send_prob,
            self.p_z * (1.0 - self.send_prob),
            p_x * self.p_u,
            p_x * self.p_v,
            p_x * self.p_w,
        ])

    def intensity_of(self) -> np.ndarray:
        """Mean photon number per class (not-sending emits the w level)."""
        return np.array([self.s, self.w, self.u, self.v, self.w])


@dataclass(frozen=True)
class ProtocolParams:
    """Full two-transmitter encoding configuration."""

    alice: SideParams
    bob: SideParams
    phase_slices_m: int = 16
    clock_rate_hz: float = 1.0e9
    duty_cycle: float = 0.5

    @property
    def protocol_rate_hz(self) -> float:
        """Protocol pulse-pair rate: clock rate times duty cycle."""
        return self.clock_rate_hz * self.duty_cycle

    def phase_window_rad(self) -> float:
        """Half-width of each accepted phase-matching window, 2*pi/M."""
        return 2.0 * math.pi / self.phase_slices_m

    def matched_fraction(self) -> float:
        """Fraction of uniform phase pairs accepted by the matching rule.

        Two windows (around 0 and around pi) of full width 4*pi/M each,
        disjoint at every M that ``structural_checks`` accepts (M >= 4).
        """
        return 4.0 / self.phase_slices_m


@dataclass(frozen=True)
class LinkBudget:
    """Per-arm fibre losses and lengths."""

    length_ac_km: float
    length_bc_km: float
    loss_ac_db: float
    loss_bc_db: float

    def __post_init__(self):
        # Each value is tested on its own, so that NaN fails too.
        if not (self.length_ac_km >= 0 and self.length_bc_km >= 0):
            raise ValueError("fibre lengths must be non-negative")
        if not (self.loss_ac_db >= 0 and self.loss_bc_db >= 0):
            raise ValueError("fibre losses must be non-negative")


@dataclass(frozen=True)
class DetectorParams:
    """Threshold single-photon detector behind the interference node."""

    efficiency: float
    dark_rate_hz: float = 0.0
    deadtime_s: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must lie in [0, 1]")
        for key in ("dark_rate_hz", "deadtime_s"):
            value = getattr(self, key)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{key} must be finite and non-negative, "
                                 f"not {value!r}")

    def dark_prob(self, rate_hz: float) -> float:
        """Dark-count probability of one detector in a window of 1/rate_hz.

        Every caller passes the clock rate: one detection gate per clock
        period.
        """
        p = self.dark_rate_hz / rate_hz
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dark_rate_hz must lie below the gate rate "
                             f"{rate_hz} Hz, not {self.dark_rate_hz}")
        return p

    def dead_slots(self, protocol_rate_hz: float) -> int:
        """Whole slots after a kept click in which a click is dropped.

        The slots k >= 1 with k < deadtime_s * rate, so a click exactly
        one deadtime after the last kept one is kept.  The product is first
        rounded to 1e-6 slot, so a deadtime that is a whole number of slots
        counts as one even where the float product is not (122 ns at 5e8 Hz
        gives 61.00000000000001).  The one place the deadtime turns into
        slots: the Monte Carlo filter and the forward model's retention
        factor both read it.  Capped below ``MAX_SLOTS``: within a run
        the capped deadtime drops every click after the first.
        """
        slots = min(round(self.deadtime_s * protocol_rate_hz, 6), MAX_SLOTS)
        return max(math.ceil(slots) - 1, 0)


@dataclass(frozen=True)
class SecurityParams:
    """Failure probabilities and error-correction inefficiency.

    ``chernoff_xi`` is the per-estimate failure probability for every
    Chernoff interval in the decoy analysis.  The three epsilons enter the
    finite-size correction term only.
    """

    eps_cor: float = 1e-10
    eps_pa: float = 1e-10
    eps_hat: float = 1e-10
    f_ec: float = 1.05
    chernoff_xi: float = 1e-5

    def __post_init__(self):
        for name in ("eps_cor", "eps_pa", "eps_hat", "chernoff_xi"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")
        if self.f_ec < 1.0:
            raise ValueError("f_ec must be >= 1")


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    passed: bool
    kind: str          # "structural" or "tolerance"
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ConstraintCheck, ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "checks": [
                {"name": c.name, "passed": c.passed, "kind": c.kind, "detail": c.detail}
                for c in self.checks
            ],
        }


def asymmetry_condition_sides(params: ProtocolParams) -> tuple[float, float]:
    """LHS and RHS of the asymmetric-encoding security condition.

    v_A / v_B  ==  [eps_A (1-eps_B) s_A e^-s_A] / [eps_B (1-eps_A) s_B e^-s_B]
    """
    a, b = params.alice, params.bob
    lhs = a.v / b.v
    rhs = (a.send_prob * (1.0 - b.send_prob) * a.s * math.exp(-a.s)) / (
        b.send_prob * (1.0 - a.send_prob) * b.s * math.exp(-b.s)
    )
    return lhs, rhs


def structural_checks(params: ProtocolParams) -> list[ConstraintCheck]:
    """The structural invariants (negative or overflowing intensities,
    probabilities not summing to one, a send probability of 0 or 1, ...),
    each a hard failure."""
    checks: list[ConstraintCheck] = []

    def structural(name: str, ok: bool, detail: str = ""):
        checks.append(ConstraintCheck(name, bool(ok), "structural", detail))

    for label, side in (("A", params.alice), ("B", params.bob)):
        structural(
            f"intensities_nonneg_{label}",
            min(side.s, side.u, side.v, side.w) >= 0.0,
            f"s={side.s} u={side.u} v={side.v} w={side.w}",
        )
        structural(
            f"intensities_finite_{label}",
            all(mu <= MAX_INTENSITY for mu in (side.s, side.u, side.v, side.w)),
            f"require every intensity <= ln(max float) = {MAX_INTENSITY:.6g}",
        )
        structural(f"signal_positive_{label}", side.s > 0.0, f"s={side.s}")
        structural(
            f"decoy_ordering_{label}",
            side.u > side.v > side.w,
            f"require u > v > w, got {side.u} > {side.v} > {side.w}",
        )
        structural(
            f"basis_probability_{label}",
            0.0 <= side.p_z <= 1.0 and 0.0 < side.send_prob < 1.0,
            f"p_z={side.p_z} send_prob={side.send_prob}",
        )
        decoy_sum = side.p_u + side.p_v + side.p_w
        structural(
            f"decoy_probabilities_{label}",
            math.isclose(decoy_sum, 1.0, rel_tol=0.0, abs_tol=1e-9)
            and min(side.p_u, side.p_v, side.p_w) >= 0.0,
            f"p_u+p_v+p_w={decoy_sum}",
        )
    structural("phase_slices", params.phase_slices_m >= 4,
               f"require M >= 4, so that the matching windows around 0 and "
               f"pi (half-width 2*pi/M) do not overlap, got "
               f"M={params.phase_slices_m}")
    structural("duty_cycle", 0.0 < params.duty_cycle <= 1.0,
               f"duty={params.duty_cycle}")
    structural("clock_rate", 0.0 < params.clock_rate_hz < math.inf,
               f"clock={params.clock_rate_hz}")
    return checks


def validate_params(params: ProtocolParams, tolerance: float = 0.02) -> ValidationReport:
    """Check ``structural_checks`` and the asymmetric security condition,
    compared as a relative deviation |LHS/RHS - 1| <= tolerance."""
    checks = structural_checks(params)
    if all(c.passed for c in checks):
        lhs, rhs = asymmetry_condition_sides(params)
        deviation = abs(lhs / rhs - 1.0)
        checks.append(ConstraintCheck(
            "asymmetric_security_condition",
            deviation <= tolerance,
            "tolerance",
            f"v_A/v_B={lhs:.6g} vs rhs={rhs:.6g}, relative deviation {deviation:.4%}",
        ))
    return ValidationReport(checks=tuple(checks), tolerance=tolerance)


def largest_remainder_counts(probs: np.ndarray, n: int) -> np.ndarray:
    """Integer class counts summing to n, deviating < 1 from probs * n.

    Floor each target then hand the remaining slots to the largest
    fractional parts (ties broken by class index).
    """
    target = np.asarray(probs, dtype=float) * n
    counts = np.floor(target).astype(int)
    remainder = n - counts.sum()
    if remainder > 0:
        order = np.argsort(-(target - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def class_totals(side: SideParams, n_slots: int) -> np.ndarray:
    """Exact per-class slot counts of one side over a run of n_slots.

    Raises PatternError when a class with nonzero probability would round
    to zero slots.
    """
    probs = side.class_probs()
    counts = largest_remainder_counts(probs, n_slots)
    starved = (probs > 0.0) & (counts == 0)
    if np.any(starved):
        names = [CLASS_NAMES[i] for i in np.nonzero(starved)[0]]
        raise PatternError(
            f"{n_slots} slots cannot represent classes {names} "
            f"with probabilities {probs[starved]}"
        )
    return counts


# numpy's hypergeometric samplers refuse populations of this size or more.
_HYPERGEOMETRIC_LIMIT = 10**9


def _subset_counts(colors: np.ndarray, n: int,
                   rng: np.random.Generator) -> np.ndarray:
    """Class counts of a uniformly random n-subset of a multiset.

    ``colors`` holds the multiset's count per class; the result follows the
    multivariate hypergeometric law.
    """
    if int(colors.sum()) < _HYPERGEOMETRIC_LIMIT:
        return rng.multivariate_hypergeometric(colors, n)
    return _conditioned_binomials(colors, n, rng)


def _conditioned_binomials(colors: np.ndarray, n: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Multivariate hypergeometric draw for populations of any size.

    Independent Bin(colors_i, n/N) counts conditioned on summing to n have
    exactly the multivariate hypergeometric law.  The condition is met by
    rejection on the largest class j: the other classes are drawn as
    independent binomials, class j takes the remainder r, and the trial is
    kept with probability pmf_j(r) / pmf_j(mode), which leaves the joint
    law proportional to prod_i pmf_i, i.e. the conditioned one.  A trial is
    kept with probability about sqrt(colors_j / N), so five classes need at
    most about 2.2 trials on average.
    """
    j = int(np.argmax(colors))
    big = int(colors[j])
    rest = np.delete(colors, j)
    p = n / int(colors.sum())
    mode = min(big, math.floor((big + 1) * p))
    while True:
        draw = rng.binomial(rest, p)
        r = n - int(draw.sum())
        if 0 <= r <= big and (
                rng.random() < math.exp(_binomial_log_ratio(big, p, r, mode))):
            return np.insert(draw, j, r)


def _binomial_log_ratio(c: int, p: float, r: int, m: int) -> float:
    """log(pmf(r) / pmf(m)) of Bin(c, p), for 0 <= r, m <= c.

    Sums the log of pmf(k+1)/pmf(k) = (c - k) p / ((k + 1)(1 - p)) between
    m and r.  Each term is near zero close to the mode, so the sum keeps
    its absolute precision at any c; differences of log-gamma values at
    c ~ 1e13 would carry errors of ~0.06.
    """
    if r == m:
        return 0.0
    k = np.arange(min(r, m), max(r, m), dtype=float)
    step = np.log((c - k) * p / ((k + 1.0) * (1.0 - p)))
    return float(step.sum()) if r > m else -float(step.sum())


def fair_sampled_classes(side_a: SideParams, side_b: SideParams,
                         n_slots: int, rng: np.random.Generator) -> np.ndarray:
    """Joint (Alice, Bob) class table of a fair-sampled run of n_slots.

    Each side holds its ``class_totals`` (a starved class raises
    PatternError); pairing Alice's class-a slots with a uniformly random
    subset of Bob's slots not yet paired, one draw per Alice class, gives
    the 5x5 table.  Row sums are Alice's totals, column sums Bob's; every
    arrangement of the run's pair codes is equally likely given the table.
    """
    totals_a = class_totals(side_a, n_slots)
    pool = class_totals(side_b, n_slots)
    table = np.empty((5, 5), dtype=np.int64)
    for a in range(5):
        table[a] = _subset_counts(pool, int(totals_a[a]), rng)
        pool = pool - table[a]
    return table


def transmissivities(link: LinkBudget) -> tuple[float, float]:
    """Arm transmissivities (eta_a, eta_b), eta = 10^(-loss_db/10) per arm.

    The detector efficiency is not included; the click model applies it.
    """
    return 10.0 ** (-link.loss_ac_db / 10.0), 10.0 ** (-link.loss_bc_db / 10.0)


# ---------------------------------------------------------------------------
# Parameter file I/O.  The JSON object is flat; protocol keys follow the
# conventional table naming (s_A, u_A, ..., p_z_A, eps_A, p_u_A, ...,
# phase_slices_M, clock_rate_hz, duty_cycle).  Optional link / detector /
# security keys ride along in the same object; _PROTOCOL_KEYS lists the
# required keys, and an optional key left out takes its dataclass default.
# ---------------------------------------------------------------------------

# File key stem of each SideParams field; one side's keys end in _A or _B.
_SIDE_KEYS = {"s": "s", "u": "u", "v": "v", "w": "w", "p_z": "p_z",
              "send_prob": "eps", "p_u": "p_u", "p_v": "p_v", "p_w": "p_w"}
_PROTOCOL_KEYS = [
    *(f"{stem}_{side}" for side in "AB" for stem in _SIDE_KEYS.values()),
    "phase_slices_M", "clock_rate_hz", "duty_cycle",
]


def _number(raw: dict, key: str) -> int | float:
    """``raw[key]``, an int or a float (a bool is neither) that fits a
    float: the rule for every number in the parameter and counts files."""
    if type(raw[key]) not in (int, float):
        raise ValueError(f"{key} must be a number, not {raw[key]!r}")
    if type(raw[key]) is int and abs(raw[key]) > sys.float_info.max:
        raise ValueError(f"{key} is an integer that no float holds")
    return raw[key]


def _given(raw: dict, *keys: str) -> dict:
    """The entries of ``raw`` under ``keys`` that the file sets, each a
    ``_number``."""
    return {k: _number(raw, k) for k in keys if k in raw}


def _side_from_dict(raw: dict, side: str) -> SideParams:
    return SideParams(**{name: _number(raw, f"{stem}_{side}")
                         for name, stem in _SIDE_KEYS.items()})


def params_from_dict(raw: dict) -> ProtocolParams:
    missing = [k for k in _PROTOCOL_KEYS if k not in raw]
    if missing:
        raise KeyError(f"parameter file is missing keys: {missing}")
    m = _number(raw, "phase_slices_M")
    if isinstance(m, float) and not m.is_integer():  # 16.9 is no M
        raise ValueError("phase_slices_M must be a whole number")
    return ProtocolParams(
        alice=_side_from_dict(raw, "A"), bob=_side_from_dict(raw, "B"),
        phase_slices_m=int(m),
        clock_rate_hz=float(_number(raw, "clock_rate_hz")),
        duty_cycle=float(_number(raw, "duty_cycle")),
    )


def link_from_dict(raw: dict) -> LinkBudget | None:
    keys = ("length_ac_km", "length_bc_km", "loss_ac_db", "loss_bc_db")
    if not all(k in raw for k in keys):
        return None
    return LinkBudget(**_given(raw, *keys))


def detector_from_dict(raw: dict) -> DetectorParams | None:
    if "detector_efficiency" not in raw:
        return None
    return DetectorParams(efficiency=_number(raw, "detector_efficiency"),
                          **_given(raw, "dark_rate_hz", "deadtime_s"))


def security_from_dict(raw: dict) -> SecurityParams:
    return SecurityParams(
        **_given(raw, *(f.name for f in fields(SecurityParams))))


def load_params_file(path: str | Path) -> dict:
    """Load a parameter JSON file into its typed parts.

    Returns a dict with keys "protocol", "link", "detector", "security" and
    "extras" (visibility in [0, 1] and misalignment_sigma_rad >= 0, each
    finite, or their defaults); every value read is an int or a float.
    Link and detector sections are optional; a detector's dark probability
    per clock gate must lie below 1 (``DetectorParams.dark_prob``).  A
    clock rate that is not positive is left to ``structural_checks``.
    Raises OSError when the file cannot be read, else KeyError, ValueError
    (text that is not UTF-8 or not JSON, too) or TypeError.
    """
    raw = json.loads(Path(path).read_text())
    protocol, detector = params_from_dict(raw), detector_from_dict(raw)
    extras = {"visibility": DEFAULT_VISIBILITY,
              "misalignment_sigma_rad": DEFAULT_MISALIGNMENT_SIGMA_RAD}
    extras.update(_given(raw, *extras))
    for (key, value), high in zip(extras.items(), (1.0, math.inf)):
        if not 0.0 <= value <= high or value == math.inf:
            raise ValueError(f"{key} must be a finite number in [0, {high}], "
                             f"not {value!r}")
    if detector is not None and protocol.clock_rate_hz > 0.0:
        detector.dark_prob(protocol.clock_rate_hz)   # one gate per period
    return {
        "protocol": protocol,
        "link": link_from_dict(raw),
        "detector": detector,
        "security": security_from_dict(raw),
        "extras": extras,
    }
