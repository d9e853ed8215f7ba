import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tfqkd import decoy, keyrate
from tfqkd.aopp import AoppOutput
from tfqkd.keyrate import (
    analyze_counts,
    balanced_arm_delta_db,
    expected_rates_model,
    finite_size_correction,
    secret_key_rate,
    skr_vs_distance,
)
from tfqkd.model import DetectorParams, LinkBudget, SecurityParams


class TestFiniteSizeCorrection:
    def test_reference_epsilons(self, security):
        assert finite_size_correction(security) == pytest.approx(166.0964,
                                                                 abs=1e-3)

    @given(st.floats(1e-12, 0.5), st.floats(1e-12, 0.5), st.floats(1e-12, 0.5))
    def test_matches_direct_formula(self, ec, ep, eh):
        sec = SecurityParams(eps_cor=ec, eps_pa=ep, eps_hat=eh)
        direct = math.log2(2.0 / ec) + 2.0 * math.log2(
            1.0 / (math.sqrt(2.0) * ep * eh))
        assert finite_size_correction(sec) == pytest.approx(direct, rel=1e-12)

    def test_formula_zero_point(self):
        # The correction vanishes when eps_cor = 2 and eps_pa*eps_hat =
        # 1/sqrt(2); those values are outside the valid security range, so
        # check the raw formula rather than the validated container.
        value = math.log2(2.0 / 2.0) + 2.0 * math.log2(
            1.0 / (math.sqrt(2.0) * (1.0 / math.sqrt(2.0))))
        assert value == 0.0

    def test_monotone_as_epsilons_shrink(self, security):
        tighter = dataclasses.replace(security, eps_pa=1e-12)
        assert finite_size_correction(tighter) > finite_size_correction(security)


class TestSecretKeyRate:
    def _aopp(self, **kw):
        base = dict(n_t_prime=5e7, e_z_prime=0.03, n1_prime=2e7,
                    e1ph_prime=0.05)
        base.update(kw)
        return AoppOutput(**base)

    def test_no_untagged_bits_gives_zero(self, security):
        report = secret_key_rate(self._aopp(n1_prime=0.0), security,
                                 1e13, 1e9, 0.5)
        assert report.r_per_signal == 0.0
        assert "diagnostic" in report.intermediates

    def test_rate_unit_identity(self, security):
        report = secret_key_rate(self._aopp(), security, 1e13, 1e9, 0.5)
        assert report.bits_per_second == pytest.approx(
            report.r_per_signal * 1e9 * 0.5, rel=1e-15)

    def test_secure_bits_identity(self, security):
        report = secret_key_rate(self._aopp(), security, 1e13, 1e9, 0.5)
        assert report.secure_bits == pytest.approx(
            report.r_per_signal * 1e13, rel=1e-12)

    def test_printed_formula_convention_is_double(self, security):
        report = secret_key_rate(self._aopp(), security, 1e13, 1e9, 0.5)
        assert report.r_printed_formula_convention == pytest.approx(
            2.0 * report.r_per_signal, rel=1e-15)

    @given(st.floats(0.0, 0.4), st.floats(0.0, 0.05))
    def test_non_increasing_in_error_rates(self, e1, bump):
        sec = SecurityParams()
        low = secret_key_rate(self._aopp(e1ph_prime=e1), sec, 1e13, 1e9, 0.5)
        high = secret_key_rate(self._aopp(e1ph_prime=min(e1 + bump, 0.5)),
                               sec, 1e13, 1e9, 0.5)
        assert high.r_per_signal <= low.r_per_signal + 1e-18
        low_z = secret_key_rate(self._aopp(e_z_prime=e1), sec, 1e13, 1e9, 0.5)
        high_z = secret_key_rate(self._aopp(e_z_prime=min(e1 + bump, 0.5)),
                                 sec, 1e13, 1e9, 0.5)
        assert high_z.r_per_signal <= low_z.r_per_signal + 1e-18

    def test_deterministic(self, field_counts, params, security):
        r1 = analyze_counts(field_counts, params, security)
        r2 = analyze_counts(field_counts, params, security)
        assert r1.as_dict() == r2.as_dict()

    def test_bit_level_output_rejected(self, security):
        with pytest.raises(ValueError):
            secret_key_rate(AoppOutput(n_t_prime=10, e_z_prime=0.0),
                            security, 1e13, 1e9, 0.5)


class TestFieldPipeline:
    def test_intermediates(self, field_counts, params, security):
        report = analyze_counts(field_counts, params, security)
        inter = report.intermediates
        assert inter["delta_fs"] == pytest.approx(166.0964, abs=1e-3)
        assert inter["e_z_prime"] == pytest.approx(0.035603, abs=1e-5)
        assert inter["n_t_prime"] == pytest.approx(5.63533e7, rel=1e-4)
        assert inter["n1_prime"] == pytest.approx(2.23755e7, rel=1e-4)
        assert inter["e1ph_prime"] == pytest.approx(0.051450, abs=1e-5)
        assert report.r_per_signal == pytest.approx(1.98293e-7, rel=1e-4)

    def test_estimation_failure_gives_zero_report(self, params, security):
        detected = {k: 0.0 for k in decoy.CATEGORIES}
        counts = decoy.DecoyCounts.from_detected(params, 1e9, detected,
                                                 qber_xuu=0.0, qber_xvv=0.0)
        report = analyze_counts(counts, params, security)
        assert report.r_per_signal == 0.0
        assert "estimation failure" in report.intermediates["diagnostic"]


class TestForwardModel:
    def test_dark_free_vacuum_is_silent(self, params):
        link = LinkBudget(1, 1, 10.0, 10.0)
        det = DetectorParams(efficiency=0.5, dark_rate_hz=0.0)
        silent = dataclasses.replace(
            params,
            alice=dataclasses.replace(params.alice, s=0.0, u=0.0, v=0.0, w=0.0),
            bob=dataclasses.replace(params.bob, s=0.0, u=0.0, v=0.0, w=0.0),
        )
        pred = expected_rates_model(silent, link, det, visibility=1.0,
                                    n_tot=1e6)
        assert all(v == 0.0 for v in pred.detected.values())

    def test_perfect_interference_destructive_port(self):
        from tfqkd.montecarlo import detector_means

        mu_p, mu_m = detector_means(0.2, 0.2, 0.0, 1.0, 1.0, 1.0, 1.0)
        assert mu_m == pytest.approx(0.0, abs=1e-15)
        assert mu_p == pytest.approx(0.4, rel=1e-12)

    def test_expected_counts_scale_with_n_tot(self, params, field_detector):
        link = LinkBudget(1, 1, 15.0, 10.0)
        a = expected_rates_model(params, link, field_detector, n_tot=1e6)
        b = expected_rates_model(params, link, field_detector, n_tot=2e6)
        assert b.detected["ZZsn"] == pytest.approx(2 * a.detected["ZZsn"],
                                                   rel=1e-12)

    def test_deadtime_retention_counts_whole_dead_slots(self, params):
        # At 2 ns slots a 2 ns deadtime leaves no dead slot, so it keeps
        # every count, and 3 ns and 4 ns both leave one.
        link = LinkBudget(0, 0, 0.0, 0.0)

        def detected(deadtime_s):
            det = DetectorParams(0.5, 0.0, deadtime_s=deadtime_s)
            return expected_rates_model(params, link, det,
                                        n_tot=1e6).detected["ZZss"]

        assert detected(2e-9) == detected(0.0)
        assert detected(3e-9) == detected(4e-9) < detected(0.0)

    def test_qber_depends_on_visibility(self, params, field_detector):
        link = LinkBudget(1, 1, 15.0, 10.0)
        good = expected_rates_model(params, link, field_detector,
                                    visibility=0.99, n_tot=1e6)
        bad = expected_rates_model(params, link, field_detector,
                                   visibility=0.90, n_tot=1e6)
        assert bad.qber_xvv > good.qber_xvv

    def test_field_point_reproduces_measured_qbers(self, params, field_link,
                                                   field_detector):
        # Visibility 0.97 plus 0.1 rad residual phase noise lands on the
        # recorded X-basis error rates of the golden dataset.
        pred = expected_rates_model(params, field_link, field_detector,
                                    visibility=0.97,
                                    misalignment_sigma_rad=0.1,
                                    n_tot=1.36581e13)
        assert pred.qber_xvv == pytest.approx(0.0583, abs=0.01)
        assert pred.qber_xuu == pytest.approx(0.0461, abs=0.01)


class TestSweep:
    def test_balanced_delta(self, params):
        assert balanced_arm_delta_db(params) == pytest.approx(
            10 * math.log10(0.08 / 0.012))

    def test_monotone_non_increasing(self, params, field_detector, security):
        rows = skr_vs_distance([10.0, 30.0, 50.0], params, field_detector,
                               security, n_tot=1e13)
        rates = [r["skr_bit_per_pulse"] for r in rows]
        assert rates[0] > rates[-1]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_row_schema(self, params, field_detector, security):
        rows = skr_vs_distance([20.0], params, field_detector, security,
                               n_tot=1e12)
        assert set(rows[0]) == {"loss_db", "length_km", "skr_bit_per_pulse",
                                "skr_bit_per_s"}
        assert rows[0]["length_km"] == pytest.approx(20.0 / 0.22)

    def test_empty_sweep_rejected(self, params, field_detector, security):
        with pytest.raises(ValueError):
            skr_vs_distance([], params, field_detector, security)

    def test_operating_point_vs_field_rate(self, params, field_link,
                                           field_detector, security):
        # Model prediction at the golden link should land near the measured
        # 2.2e-7 bit/signal (same order; the model is not fitted).
        counts = expected_rates_model(params, field_link, field_detector,
                                      visibility=0.97,
                                      misalignment_sigma_rad=0.1,
                                      n_tot=1.36581e13)
        report = analyze_counts(counts, params, security)
        assert report.r_per_signal == pytest.approx(2.20e-7, rel=2.0)
        assert report.r_per_signal > 0
