import decimal

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfqkd.finitestats import (
    BoundedValue,
    binary_entropy,
    bound_expected,
    bounded_rate,
    hbar,
)


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_limits(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_against_high_precision_evaluation(self):
        # mpmath at 50 digits: h(0.0356)
        assert binary_entropy(0.0356) == pytest.approx(0.2217411411119694,
                                                       rel=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x),
                                                  abs=1e-12)

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6),
           st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_concavity(self, a, b):
        mid = binary_entropy((a + b) / 2.0)
        assert mid >= (binary_entropy(a) + binary_entropy(b)) / 2.0 - 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)

    def test_vectorised(self):
        out = binary_entropy(np.array([0.0, 0.5, 1.0]))
        assert np.allclose(out, [0.0, 1.0, 0.0])


class TestHbar:
    def test_vacuum(self):
        assert hbar(0.0) == 0.0

    def test_one(self):
        assert hbar(1.0) == pytest.approx(2.0, rel=1e-14)

    def test_small_argument(self):
        # mpmath at 50 digits: hbar(9e-7)
        assert hbar(9e-7) == pytest.approx(1.9373640617583685e-05, rel=1e-10)

    @given(st.floats(min_value=1e-9, max_value=100.0),
           st.floats(min_value=1e-9, max_value=100.0))
    def test_strictly_increasing(self, a, b):
        # Near x = 100 adjacent floats differ in true hbar by less than half
        # an ulp of hbar, so no float hbar is strictly increasing there;
        # pairs 1e-12 apart (relative) are far enough for any argument.
        lo, hi = sorted((a, b))
        if hi - lo >= 1e-12 * hi:
            assert hbar(hi) > hbar(lo)

    @given(st.floats(min_value=1e-9, max_value=100.0))
    def test_against_decimal_reference(self, x):
        # 60 digits keep the cancellation in (x+1) log(x+1) - x log x exact
        # enough down to x = 1e-9.
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            d, two = decimal.Decimal(x), decimal.Decimal(2)
            ref = ((d + 1) * (d + 1).ln() - d * d.ln()) / two.ln()
        assert hbar(x) == pytest.approx(float(ref), rel=1e-15, abs=0.0)

    def test_array_input(self):
        x = np.array([0.0, 9e-7, 1.0, 100.0])
        assert hbar(x).tolist() == [hbar(float(v)) for v in x]

    def test_domain(self):
        with pytest.raises(ValueError):
            hbar(-1e-9)


class TestBoundExpected:
    def test_empty_observation_lower(self):
        assert bound_expected(0, 1e-10, "lower") == 0.0

    def test_relative_width_at_large_counts(self):
        n = 1e6
        width = (bound_expected(n, 1e-10, "upper")
                 - bound_expected(n, 1e-10, "lower"))
        assert width / n < 2e-2

    def test_ordering_over_random_pairs(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            obs = float(rng.uniform(0, 1e7))
            xi = float(10.0 ** rng.uniform(-12, -1))
            lo = bound_expected(obs, xi, "lower")
            hi = bound_expected(obs, xi, "upper")
            assert lo <= obs <= hi

    @given(st.floats(min_value=0, max_value=1e9),
           st.floats(min_value=0, max_value=1e9))
    def test_monotone_in_observed(self, a, b):
        lo, hi = sorted((a, b))
        for d in ("lower", "upper"):
            assert bound_expected(hi, 1e-8, d) >= bound_expected(lo, 1e-8, d)

    @given(st.floats(min_value=1.0, max_value=1e9))
    def test_widens_as_failure_prob_shrinks(self, obs):
        tight = (bound_expected(obs, 1e-4, "upper")
                 - bound_expected(obs, 1e-4, "lower"))
        wide = (bound_expected(obs, 1e-12, "upper")
                - bound_expected(obs, 1e-12, "lower"))
        assert wide > tight

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            bound_expected(10, 0.0, "lower")
        with pytest.raises(ValueError):
            bound_expected(-1, 1e-5, "lower")
        with pytest.raises(ValueError):
            bound_expected(10, 1e-5, "sideways")


class TestBoundedValue:
    def test_ordering_enforced(self):
        with pytest.raises(ValueError):
            BoundedValue(lower=2.0, point=1.0, upper=3.0, failure_prob=1e-5)

    def test_bounded_rate_needs_trials(self):
        with pytest.raises(ValueError):
            bounded_rate(5, 0, 1e-5)

    def test_bounded_rate_point(self):
        bv = bounded_rate(50, 1000, 1e-6)
        assert bv.point == pytest.approx(0.05)
        assert bv.lower <= bv.point <= bv.upper
