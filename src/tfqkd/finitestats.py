"""Finite-size statistical primitives for the key-rate analysis.

Entropy helpers plus closed-form Chernoff-style interval bounds that turn
an observed count into a bounded expected value.  All functions are pure,
take and return Python floats and use the ``math`` module: the analysis
calls them once per value, where the fixed per-call cost of array code would
dominate the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    Invariant: lower <= point <= upper.
    """

    lower: float
    point: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.point <= self.upper):
            raise ValueError(
                f"bounds out of order: {self.lower} <= {self.point} <= {self.upper}"
            )


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit, h(x) = -x log2 x - (1-x) log2 (1-x).

    Extended by continuity with h(0) = h(1) = 0.  Raises for arguments
    outside [0, 1], NaN included.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def hbar(x: float) -> float:
    """Bosonic entropy h(x) = (x+1) log2 (x+1) - x log2 x for x >= 0.

    h(0) = 0 by continuity; strictly increasing on x > 0.  Evaluated as
    [log1p(x) + x log(1 + 1/x)] / ln 2, a sum of non-negative terms, free of
    the cancellation between the two terms of the definition at small x;
    below x = 1, log(1 + 1/x) is log1p(x) - log(x), so 1/x cannot overflow.
    Raises for negative arguments, NaN included.
    """
    if not x >= 0.0:
        raise ValueError(f"hbar argument must be non-negative, got {x}")
    if x == 0.0:
        return 0.0
    log_inv = math.log1p(x) - math.log(x) if x < 1.0 else math.log1p(1.0 / x)
    return (math.log1p(x) + x * log_inv) / math.log(2.0)


def bound_expected(observed: float, failure_prob: float,
                   direction: str) -> float:
    """Chernoff-style bound on the expected value behind an observed count.

    With beta = ln(1/failure_prob):

        upper = observed + beta + sqrt(2*beta*observed + beta**2)
        lower = max(0, observed - sqrt(2*beta*observed))

    (Zhang et al., PRA 95, 012333 (2017)).  The relative width shrinks as
    1/sqrt(observed).  ``observed`` is a float and need not be an integer
    (fractional effective counts are allowed); a negative or NaN count
    raises.
    """
    if not 0.0 < failure_prob < 1.0:
        raise ValueError("failure_prob must lie in (0, 1)")
    if not observed >= 0.0:
        raise ValueError(f"observed count must be non-negative, got {observed}")
    beta = math.log(1.0 / failure_prob)
    if direction == "upper":
        return observed + beta + math.sqrt(2.0 * beta * observed + beta**2)
    if direction == "lower":
        return max(0.0, observed - math.sqrt(2.0 * beta * observed))
    raise ValueError(f"direction must be 'lower' or 'upper', got {direction!r}")


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
    )
