import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfqkd.bounds import (
    capacity_point,
    capacity_sweep,
    noisy_skc0_ub,
    relative_skc0,
    skc0,
    skc1,
    thermal_mean_photon,
)


class TestSkc0:
    def test_half(self):
        assert skc0(0.5) == 1.0

    def test_zero(self):
        assert skc0(0.0) == 0.0

    def test_field_channel(self):
        assert skc0(2.509e-6) == pytest.approx(3.62e-6, abs=0.005e-6)

    def test_low_transmissivity_linearisation(self):
        eta = 1e-6
        assert skc0(eta) == pytest.approx(eta / math.log(2), rel=1e-5)

    def test_divergent_input(self):
        with pytest.raises(ValueError):
            skc0(1.0)

    @given(st.floats(0.0, 0.999), st.floats(1e-6, 1e-3))
    def test_monotone_increasing(self, eta, d):
        hi = min(eta + d, 0.9999)
        assert skc0(hi) >= skc0(eta)


class TestSkc1:
    def test_symmetric_half(self):
        assert skc1(0.5, 0.5) == 1.0

    def test_min_selection(self):
        assert skc1(1e-3, 1 - 1e-9) == skc0(1e-3)
        assert skc1(1 - 1e-9, 1e-3) == skc0(1e-3)

    @given(st.floats(0.0, 0.999))
    def test_reduces_to_skc0_on_diagonal(self, eta):
        assert skc1(eta, eta) == skc0(eta)

    def test_asymmetric_split_lower_at_56db(self):
        total = 56.0
        sym = skc1(10 ** (-total / 20), 10 ** (-total / 20))
        eta_a = 10 ** (-total * 0.6 / 10)
        eta_b = 10 ** (-total * 0.4 / 10)
        assert skc1(eta_a, eta_b) < sym


class TestRelativeSkc0:
    def test_unit_efficiency(self):
        assert relative_skc0(0.3, 1.0) == skc0(0.3)

    def test_zero_efficiency(self):
        assert relative_skc0(0.3, 0.0) == 0.0

    def test_field_value(self):
        assert relative_skc0(2.509e-6, 0.145) == pytest.approx(5.249e-7,
                                                               rel=1e-3)


class TestThermalMeanPhoton:
    def test_no_dark_counts(self):
        assert thermal_mean_photon(0.0, 0.5) == 0.0

    def test_vanishing_transmissivity_limit(self):
        d = 9e-7
        assert thermal_mean_photon(d, 0.0) == d

    def test_field_value(self):
        assert thermal_mean_photon(9e-7, 3.64e-7) == pytest.approx(9e-7,
                                                                   rel=1e-5)


class TestNoisyUpperBound:
    def test_exact_reduction_at_zero_noise(self):
        for eta in (1e-6, 1e-3, 0.1, 0.9):
            value, valid = noisy_skc0_ub(eta, 0.0)
            assert value == skc0(eta)
            assert valid

    def test_validity_flag_flips_at_threshold(self):
        eta = 0.25
        threshold = eta / (1.0 - eta)
        assert noisy_skc0_ub(eta, threshold * (1 - 1e-12))[1] is True
        assert noisy_skc0_ub(eta, threshold)[1] is False
        assert noisy_skc0_ub(eta, threshold * 1.5)[1] is False

    def test_continuity_near_zero(self):
        eta = 1e-3
        value, _ = noisy_skc0_ub(eta, 1e-12)
        assert value == pytest.approx(skc0(eta), rel=1e-6)

    def test_monotone_decreasing_in_noise(self):
        eta = 0.01
        ns = np.linspace(0.0, 0.9 * eta / (1 - eta), 25)
        values = [noisy_skc0_ub(eta, n)[0] for n in ns]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_field_comparison_point(self):
        # 56 dB channel with 14.5% detectors and 9e-7 dark probability per
        # use: the dark counts exceed the thermal-loss validity threshold,
        # i.e. the noisy repeaterless capacity is zero there.  Any positive
        # achieved rate beats it; the report emits the comparison rather
        # than asserting a numeric bound.
        eta_total = 2.5119e-6 * 0.145
        n_bar = thermal_mean_photon(9e-7, eta_total)
        value, valid = noisy_skc0_ub(eta_total, n_bar)
        assert not valid
        assert n_bar > eta_total / (1 - eta_total)
        # At a shallower loss the bound is valid and finite.
        eta_30db = 1e-3 * 0.145
        n30 = thermal_mean_photon(9e-7, eta_30db)
        value30, valid30 = noisy_skc0_ub(eta_30db, n30)
        assert valid30
        assert 0.0 < value30 < skc0(eta_30db)


class TestSweep:
    def test_row_schema_and_invariants(self):
        rows = capacity_sweep([10.0, 30.0, 56.0], det_efficiency=0.145,
                              dark_prob=9e-7)
        assert list(rows[0]) == ["loss_db", "skc0", "skc0_relative",
                                 "skc1_sym", "skc1_asym", "noisy_ub", "valid"]
        for row in rows:
            assert row["skc1_sym"] >= row["skc0"]
            assert row["skc1_asym"] >= row["skc0"]
            assert row["skc0"] >= row["skc0_relative"]

    def test_point_at_3db(self):
        point = capacity_point(10 * math.log10(2.0), det_efficiency=1.0,
                               dark_prob=0.0)
        assert point["skc0"] == pytest.approx(1.0, rel=1e-12)
