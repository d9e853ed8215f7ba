"""Decoy-state estimation for the sending-or-not-sending protocol.

Turns category-resolved counting rates into bounded single-photon yields,
untagged-bit counts, and the phase-flip error rate of untagged bits.

Category keys follow the "B1B2t1t2" convention: basis and pulse type of
Alice, then of Bob, e.g. "ZXsv" = Alice sent a Z-basis signal pulse, Bob an
X-basis v decoy.  There are 4 ZZ + 6 ZX + 6 XZ + 9 XX = 25 categories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .aopp import ZBitTally
from .finitestats import BoundedValue, bound_expected, bounded_rate
from .model import (
    X_U,
    X_V,
    X_W,
    Z_NOSEND,
    Z_SEND,
    ProtocolParams,
    SecurityParams,
    _number,
)

__all__ = [
    "CATEGORIES",
    "CATEGORY_CLASSES",
    "DecoyCounts",
    "DecoyEstimates",
    "EstimationError",
    "counting_rates",
    "bound_s01",
    "bound_s10",
    "bound_s1",
    "untagged_counts",
    "phase_error_rate",
    "t_x1_upper_bound",
    "estimate",
]

_SIDE_CLASSES = {"Z": (("s", Z_SEND), ("n", Z_NOSEND)),
                 "X": (("u", X_U), ("v", X_V), ("w", X_W))}

# Each category's (Alice, Bob) slot class codes, in category order.
CATEGORY_CLASSES: dict[str, tuple[int, int]] = {
    ba + bb + ta + tb: (ia, ib)
    for ba in ("Z", "X")
    for bb in ("Z", "X")
    for ta, ia in _SIDE_CLASSES[ba]
    for tb, ib in _SIDE_CLASSES[bb]
}
CATEGORIES: tuple[str, ...] = tuple(CATEGORY_CLASSES)


class EstimationError(RuntimeError):
    """Raised when the decoy bounds cannot support a key-rate estimate."""


def sent_counts(params: ProtocolParams, n_tot: float) -> dict[str, float]:
    """Expected pulse-pair counts per category under fair sampling."""
    pa = params.alice.class_probs().tolist()
    pb = params.bob.class_probs().tolist()
    return {k: pa[ia] * pb[ib] * n_tot
            for k, (ia, ib) in CATEGORY_CLASSES.items()}


@dataclass(frozen=True)
class DecoyCounts:
    """Category-resolved detection record for one protocol run.

    ``detected`` maps each category to its one-detector-heralded count and
    ``sent`` to the number of pulse pairs emitted in that category.  The
    X-basis QBERs are measured on phase-matched same-decoy pairs and are
    carried alongside the counts because they cannot be reconstructed from
    the 25 category totals.  Non-finite counts, and QBERs that are neither
    None nor a number in [0, 1] (NaN included), raise ValueError.
    """

    n_tot: float
    detected: dict[str, float]
    sent: dict[str, float]
    qber_xuu: float | None = None
    qber_xvv: float | None = None

    def __post_init__(self):
        missing = [k for k in CATEGORIES if k not in self.detected]
        if missing:
            raise ValueError(f"detected counts missing categories: {missing}")
        if not 0.0 < self.n_tot < math.inf:
            raise ValueError(
                f"n_tot must be finite and positive, got {self.n_tot}")
        for k in CATEGORIES:
            n, big_n = self.detected[k], self.sent.get(k, 0.0)
            if not (math.isfinite(n) and math.isfinite(big_n)):
                raise ValueError(
                    f"non-finite count for category {k}: detected {n}, sent {big_n}")
            if n < 0:
                raise ValueError(f"negative detected count for {k}")
            if n > big_n:
                raise ValueError(f"detected > sent for category {k}: {n} > {big_n}")
        for name in ("qber_xuu", "qber_xvv"):
            q = getattr(self, name)
            if q is not None and not 0.0 <= q <= 1.0:
                raise ValueError(f"{name} must be None or lie in [0, 1], got {q}")

    @classmethod
    def from_detected(cls, params: ProtocolParams, n_tot: float,
                      detected: dict[str, float],
                      qber_xuu: float | None = None,
                      qber_xvv: float | None = None) -> "DecoyCounts":
        return cls(n_tot=n_tot, detected=dict(detected),
                   sent=sent_counts(params, n_tot),
                   qber_xuu=qber_xuu, qber_xvv=qber_xvv)

    @classmethod
    def from_counts_dict(cls, raw: dict, params: ProtocolParams) -> "DecoyCounts":
        """Build from the external counts schema (Detected-XXvv, ... keys).

        Numbers follow ``model._number``; a QBER may also be null.  Other
        keys, such as a Monte Carlo outcome file's "provenance", are ignored.
        """
        keys = {k: f"Detected-{k}" for k in CATEGORIES}
        missing = [k for k in [*keys.values(), "N_total_sent"] if k not in raw]
        if missing:
            raise KeyError(f"counts file is missing keys: {missing}")
        detected = {k: float(_number(raw, key)) for k, key in keys.items()}
        qber_xuu, qber_xvv = (None if raw.get(k) is None else _number(raw, k)
                              for k in ("Xuu_error_rate", "Xvv_error_rate"))
        return cls.from_detected(params, float(_number(raw, "N_total_sent")),
                                 detected, qber_xuu, qber_xvv)

    def to_counts_dict(self) -> dict:
        out: dict = {"N_total_sent": self.n_tot}
        for k in CATEGORIES:
            out[f"Detected-{k}"] = self.detected[k]
        if self.qber_xuu is not None:
            out["Xuu_error_rate"] = self.qber_xuu
        if self.qber_xvv is not None:
            out["Xvv_error_rate"] = self.qber_xvv
        return out

    def z_bit_tally(self) -> ZBitTally:
        """Composition (n0, n1, err0, err1) of the receiver-side raw key.

        Bit convention: the sender of a pulse records 1 on Alice's side and
        0 on Bob's side, so Bob's 0-bits come from ZZss/ZZns events and his
        1-bits from ZZsn/ZZnn; ss and nn events are the bit errors.
        """
        d = self.detected
        return ZBitTally(n0=d["ZZss"] + d["ZZns"], n1=d["ZZsn"] + d["ZZnn"],
                         err0=d["ZZss"], err1=d["ZZnn"])


@dataclass(frozen=True)
class DecoyEstimates:
    """Staged outputs of the decoy analysis (expected-value bounds)."""

    s01_lower: float
    s10_lower: float
    s1_lower: float
    n01_lower: float
    n10_lower: float
    n1_lower: float
    t_x1_upper: float
    e1ph_upper: float


def counting_rates(counts: DecoyCounts,
                   failure_prob: float) -> dict[str, BoundedValue]:
    """Bounded counting rate S = n/N per category.

    Chernoff bounds are applied to the heralded count and divided by the
    sent count.  Raises EstimationError when a category was never sent.
    """
    rates: dict[str, BoundedValue] = {}
    for key in CATEGORIES:
        n_sent = counts.sent[key]
        if n_sent <= 0:
            raise EstimationError(f"no pulse pairs sent in category {key}")
        rates[key] = bounded_rate(counts.detected[key], n_sent, failure_prob)
    return rates


def _three_intensity_bound(u: float, v: float, s_low_v: float,
                           s_up_u: float, s_up_w: float) -> float:
    """Three-intensity lower bound on the single-photon yield of one side.

    [u^2 e^v S_lower(v-class) - v^2 e^u S_upper(u-class)
     - (u^2 - v^2) S_upper(w-class)] / [u v (u - v)], clamped to [0, 1].
    """
    if u <= v:
        raise EstimationError(f"decoy bound needs u > v, got u={u}, v={v}")
    if v <= 0:
        raise EstimationError("decoy bound needs v > 0")
    num = (u**2 * math.exp(v) * s_low_v
           - v**2 * math.exp(u) * s_up_u
           - (u**2 - v**2) * s_up_w)
    return min(1.0, max(0.0, num / (u * v * (u - v))))


def bound_s01(rates: dict[str, BoundedValue], params: ProtocolParams) -> float:
    """Lower bound on the yield of the single photon sent by Bob.

    Uses the rates measured with Alice at her dimmest level: XXwv (lower),
    XXwu (upper) and XXww (upper).
    """
    b = params.bob
    return _three_intensity_bound(
        b.u, b.v,
        rates["XXwv"].lower, rates["XXwu"].upper, rates["XXww"].upper,
    )


def bound_s10(rates: dict[str, BoundedValue], params: ProtocolParams) -> float:
    """Lower bound on the yield of the single photon sent by Alice (mirror)."""
    a = params.alice
    return _three_intensity_bound(
        a.u, a.v,
        rates["XXvw"].lower, rates["XXuw"].upper, rates["XXww"].upper,
    )


def bound_s1(s01: float, s10: float, params: ProtocolParams) -> float:
    """Convex combination of the one-sided yields with weights v_A, v_B."""
    v_a, v_b = params.alice.v, params.bob.v
    if v_a + v_b <= 0:
        raise EstimationError("v_A + v_B must be positive")
    return (v_a * s10 + v_b * s01) / (v_a + v_b)


def untagged_counts(s01: float, s10: float, params: ProtocolParams,
                    n_tot: float) -> dict[str, float]:
    """Lower bounds on the untagged single-photon bit counts in Z windows.

    n10 counts Alice-sent single photons with Bob silent, n01 the mirror;
    n1 is their sum.
    """
    a, b = params.alice, params.bob
    pz = a.p_z * b.p_z
    n10 = n_tot * pz * a.send_prob * (1.0 - b.send_prob) * a.s * math.exp(-a.s) * s10
    n01 = n_tot * pz * b.send_prob * (1.0 - a.send_prob) * b.s * math.exp(-b.s) * s01
    return {"n10_lower": n10, "n01_lower": n01, "n1_lower": n10 + n01}


def t_x1_upper_bound(counts: DecoyCounts, params: ProtocolParams,
                     failure_prob: float) -> float:
    """Upper bound on the error rate of phase-matched same-v pulse pairs.

    T = (error events inside the accepted phase windows) / (pulse pairs
    sent inside those windows).  Encoding phases are uniform, so detections
    spread evenly over the phase difference and the accepted fraction
    cancels between numerator and denominator:

        T = qber_xvv * detected_XXvv / sent_XXvv

    up to the Chernoff bound on the matched error count.
    """
    if counts.qber_xvv is None:
        raise EstimationError("counts carry no Xvv_error_rate; cannot bound T_X1")
    frac = params.matched_fraction()
    matched_errors = counts.qber_xvv * frac * counts.detected["XXvv"]
    matched_sent = frac * counts.sent["XXvv"]
    if matched_sent <= 0:
        raise EstimationError("no phase-matched vv pairs sent")
    return bound_expected(matched_errors, failure_prob, "upper") / matched_sent


def phase_error_rate(t_x1_upper: float, s_ww_lower: float, s1_lower: float,
                     params: ProtocolParams) -> float:
    """Upper bound on the phase-flip error rate of untagged bits.

    e1ph = [T_X1_upper - e^-(vA+vB) * S_ww / 2]
           / [e^-(vA+vB) * (vA + vB) * s1_lower]

    The half-S_ww term removes the error floor contributed by events where
    both users emitted at the dimmest level; its lower bound is subtracted
    so the result stays an upper bound.  Clamped to [0, 0.5].  Raises
    EstimationError when s1_lower is zero (no extractable key).
    """
    if s1_lower <= 0.0:
        raise EstimationError("s1 lower bound is zero; phase error undefined")
    v_a, v_b = params.alice.v, params.bob.v
    atten = math.exp(-(v_a + v_b))
    num = t_x1_upper - atten * s_ww_lower / 2.0
    den = atten * (v_a + v_b) * s1_lower
    return min(0.5, max(0.0, num / den))


def estimate(counts: DecoyCounts, params: ProtocolParams,
             sec: SecurityParams) -> DecoyEstimates:
    """Run the full decoy chain: rates -> yields -> counts -> phase error."""
    rates = counting_rates(counts, sec.chernoff_xi)
    s01 = bound_s01(rates, params)
    s10 = bound_s10(rates, params)
    s1 = bound_s1(s01, s10, params)
    tagged = untagged_counts(s01, s10, params, counts.n_tot)
    t_x1 = t_x1_upper_bound(counts, params, sec.chernoff_xi)
    e1ph = phase_error_rate(t_x1, rates["XXww"].lower, s1, params)
    return DecoyEstimates(
        s01_lower=s01, s10_lower=s10, s1_lower=s1,
        n01_lower=tagged["n01_lower"], n10_lower=tagged["n10_lower"],
        n1_lower=tagged["n1_lower"],
        t_x1_upper=t_x1, e1ph_upper=e1ph,
    )
