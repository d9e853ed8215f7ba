"""Finite-size statistical primitives for the key-rate analysis.

Entropy helpers plus closed-form Chernoff-style interval bounds that turn
an observed count into a bounded expected value.  All functions are pure
and accept scalars or numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundedValue",
    "binary_entropy",
    "hbar",
    "bound_expected",
    "bounded_rate",
]


@dataclass(frozen=True)
class BoundedValue:
    """An observed quantity with lower/upper bounds on its expected value.

    ``failure_prob`` is the per-bound failure probability used to derive
    the interval.  Invariant: lower <= point <= upper.
    """

    lower: float
    point: float
    upper: float
    failure_prob: float

    def __post_init__(self):
        if not (self.lower <= self.point <= self.upper):
            raise ValueError(
                f"bounds out of order: {self.lower} <= {self.point} <= {self.upper}"
            )


def binary_entropy(x):
    """Shannon entropy of a bit, h(x) = -x log2 x - (1-x) log2 (1-x).

    Extended by continuity with h(0) = h(1) = 0.  Raises for arguments
    outside [0, 1].
    """
    x = np.asarray(x, dtype=float)
    if np.any((x < 0.0) | (x > 1.0)):
        raise ValueError("binary_entropy argument must lie in [0, 1]")
    inner = (x > 0.0) & (x < 1.0)
    xs = np.where(inner, x, 0.5)  # dummy value, masked out below
    h = np.where(inner, -xs * np.log2(xs) - (1.0 - xs) * np.log2(1.0 - xs), 0.0)
    return float(h) if h.ndim == 0 else h


def hbar(x):
    """Bosonic entropy h(x) = (x+1) log2 (x+1) - x log2 x for x >= 0.

    h(0) = 0 by continuity; strictly increasing on x > 0.  Evaluated as
    [log1p(x) + x log(1 + 1/x)] / ln 2, a sum of non-negative terms, free of
    the cancellation between the two terms of the definition at small x;
    below x = 1, log(1 + 1/x) is log1p(x) - log(x), so 1/x cannot overflow.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("hbar argument must be non-negative")
    pos = x > 0.0
    xs = np.where(pos, x, 1.0)
    lo = np.minimum(xs, 1.0)
    log_inv = np.where(xs < 1.0, np.log1p(lo) - np.log(lo),
                       np.log1p(1.0 / np.maximum(xs, 1.0)))
    h = np.where(pos, (np.log1p(xs) + xs * log_inv) / np.log(2.0), 0.0)
    return float(h) if h.ndim == 0 else h


def bound_expected(observed, failure_prob: float, direction: str):
    """Chernoff-style bound on the expected value behind an observed count.

    With beta = ln(1/failure_prob):

        upper = observed + beta + sqrt(2*beta*observed + beta**2)
        lower = max(0, observed - sqrt(2*beta*observed))

    The relative width shrinks as 1/sqrt(observed).  ``observed`` need not
    be an integer (fractional effective counts are allowed).
    """
    if not 0.0 < failure_prob < 1.0:
        raise ValueError("failure_prob must lie in (0, 1)")
    observed = np.asarray(observed, dtype=float)
    if np.any(observed < 0.0):
        raise ValueError("observed count must be non-negative")
    beta = np.log(1.0 / failure_prob)
    if direction == "upper":
        out = observed + beta + np.sqrt(2.0 * beta * observed + beta**2)
    elif direction == "lower":
        out = np.maximum(0.0, observed - np.sqrt(2.0 * beta * observed))
    else:
        raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")
    return float(out) if out.ndim == 0 else out


def bounded_rate(count: float, trials: float, failure_prob: float) -> BoundedValue:
    """Bound the expected rate count/trials from an observed count.

    Bounds are applied to the count and divided by the (fixed) number of
    trials.  Raises when trials == 0.
    """
    if trials <= 0:
        raise ValueError("trials must be positive to form a rate")
    return BoundedValue(
        lower=bound_expected(count, failure_prob, "lower") / trials,
        point=count / trials,
        upper=bound_expected(count, failure_prob, "upper") / trials,
        failure_prob=failure_prob,
    )
