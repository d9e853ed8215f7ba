import dataclasses
import math

import numpy as np
import pytest

from tfqkd import decoy
from tfqkd.decoy import (
    CATEGORIES,
    DecoyCounts,
    EstimationError,
    bound_s01,
    bound_s10,
    bound_s1,
    counting_rates,
    phase_error_rate,
    t_x1_upper_bound,
    untagged_counts,
)
from tfqkd.finitestats import BoundedValue
from tfqkd.model import ProtocolParams, SideParams


def exact(value):
    """Infinite-sample-limit rate: all three bounds coincide."""
    return BoundedValue(lower=value, point=value, upper=value,
                        failure_prob=1e-10)


def lossless_rate(mu):
    """One-detector-heralded rate for a single phase-randomised source at
    unit transmissivity, no dark counts: all surviving photons must land on
    the same detector, so S(mu) = 2 (e^{-mu/2} - e^{-mu})."""
    return 2.0 * (math.exp(-mu / 2.0) - math.exp(-mu))


def oracle_params(u, v):
    side = SideParams(s=0.3, u=u, v=v, w=0.0, p_z=0.8, send_prob=0.3,
                      p_u=0.1, p_v=0.7, p_w=0.2)
    return ProtocolParams(alice=side, bob=side)


class TestCountingRates:
    def test_zero_detected(self, params):
        detected = {k: 0.0 for k in CATEGORIES}
        counts = DecoyCounts.from_detected(params, 1e9, detected)
        rates = counting_rates(counts, 1e-10)
        assert rates["XXvv"].lower == 0.0
        assert rates["XXvv"].point == 0.0

    def test_field_xxvv_point(self, field_counts):
        rates = counting_rates(field_counts, 1e-10)
        # 3,873,980 / (1.36581e13 * 0.16 * 0.16)
        assert rates["XXvv"].point == pytest.approx(1.1079678e-05, rel=1e-6)

    def test_scale_invariance_of_point(self, params):
        detected = {k: 100.0 for k in CATEGORIES}
        c1 = DecoyCounts.from_detected(params, 1e9, detected)
        c2 = DecoyCounts.from_detected(
            params, 2e9, {k: 200.0 for k in CATEGORIES})
        r1 = counting_rates(c1, 1e-10)
        r2 = counting_rates(c2, 1e-10)
        assert r1["ZZss"].point == pytest.approx(r2["ZZss"].point)

    def test_zero_sent_category_raises(self, params):
        detected = {k: 0.0 for k in CATEGORIES}
        counts = DecoyCounts(n_tot=10.0, detected=detected,
                             sent={k: 0.0 for k in CATEGORIES})
        with pytest.raises(EstimationError):
            counting_rates(counts, 1e-10)

    def test_detected_above_sent_rejected(self, params):
        detected = {k: 0.0 for k in CATEGORIES}
        detected["XXvv"] = 1e12
        with pytest.raises(ValueError):
            DecoyCounts.from_detected(params, 1e9, detected)

    def test_missing_category_named(self, params):
        raw = {f"Detected-{k}": 1.0 for k in CATEGORIES if k != "XXvv"}
        raw["N_total_sent"] = 1e9
        with pytest.raises(KeyError, match="Detected-XXvv"):
            DecoyCounts.from_counts_dict(raw, params)


class TestYieldBounds:
    def test_lossless_single_photon_oracle(self):
        # Small intensities keep the three-intensity truncation error under
        # 1e-6 relative; the true one-photon yield at unit transmissivity
        # is exactly 1.
        params = oracle_params(u=1e-2, v=1e-3)
        rates = {
            "XXwv": exact(lossless_rate(params.bob.v)),
            "XXwu": exact(lossless_rate(params.bob.u)),
            "XXww": exact(0.0),
            "XXvw": exact(lossless_rate(params.alice.v)),
            "XXuw": exact(lossless_rate(params.alice.u)),
        }
        assert bound_s01(rates, params) == pytest.approx(1.0, rel=1e-6)
        assert bound_s10(rates, params) == pytest.approx(1.0, rel=1e-6)

    def test_all_zero_rates(self):
        params = oracle_params(u=0.1, v=0.01)
        rates = {k: exact(0.0) for k in ("XXwv", "XXwu", "XXww", "XXvw",
                                         "XXuw")}
        assert bound_s01(rates, params) == 0.0
        assert bound_s10(rates, params) == 0.0

    def test_perturbing_wu_upward_decreases_s01(self):
        params = oracle_params(u=1e-2, v=1e-3)
        base = {
            "XXwv": exact(lossless_rate(params.bob.v)),
            "XXwu": exact(lossless_rate(params.bob.u)),
            "XXww": exact(0.0),
        }
        bumped = dict(base)
        bumped["XXwu"] = exact(lossless_rate(params.bob.u) * 1.01)
        assert bound_s01(bumped, params) < bound_s01(base, params)

    def test_u_equal_v_rejected(self):
        params = oracle_params(u=0.1, v=0.1)
        rates = {k: exact(0.0) for k in ("XXwv", "XXwu", "XXww")}
        with pytest.raises(EstimationError):
            bound_s01(rates, params)

    def test_clamped_to_unit_interval(self):
        params = oracle_params(u=1e-2, v=1e-3)
        rates = {
            "XXwv": exact(1.0),
            "XXwu": exact(0.0),
            "XXww": exact(0.0),
        }
        assert bound_s01(rates, params) <= 1.0


class TestS1Combination:
    def test_equal_inputs(self, params):
        assert bound_s1(0.37, 0.37, params) == pytest.approx(0.37)

    def test_symmetric_weights(self):
        params = oracle_params(u=0.1, v=0.01)
        assert bound_s1(0.2, 0.4, params) == pytest.approx(0.3)

    def test_field_weights(self, params):
        # v_A/(v_A+v_B) = 0.08/0.092, v_B/(v_A+v_B) = 0.012/0.092
        s01, s10 = 1.0, 0.0
        assert bound_s1(s01, s10, params) == pytest.approx(0.13043478, rel=1e-6)
        assert bound_s1(0.0, 1.0, params) == pytest.approx(0.86956522, rel=1e-6)


class TestUntaggedCounts:
    def test_zero_yields(self, params):
        out = untagged_counts(0.0, 0.0, params, 1e13)
        assert out["n01_lower"] == 0.0
        assert out["n10_lower"] == 0.0
        assert out["n1_lower"] == 0.0

    def test_symmetric(self):
        params = oracle_params(u=0.1, v=0.01)
        out = untagged_counts(0.5, 0.5, params, 1e10)
        assert out["n01_lower"] == pytest.approx(out["n10_lower"])

    def test_sum(self, params):
        out = untagged_counts(1e-4, 2e-4, params, 1e13)
        assert out["n1_lower"] == pytest.approx(
            out["n01_lower"] + out["n10_lower"])


class TestPhaseErrorRate:
    def test_noise_free(self, params):
        assert phase_error_rate(0.0, 0.0, 1e-4, params) == 0.0

    def test_inverse_scaling_in_s1(self, params):
        e1 = phase_error_rate(1e-6, 0.0, 1e-4, params)
        e2 = phase_error_rate(1e-6, 0.0, 2e-4, params)
        assert e1 == pytest.approx(2.0 * e2)

    def test_clamped(self, params):
        assert phase_error_rate(1.0, 0.0, 1e-9, params) == 0.5

    def test_zero_s1_raises(self, params):
        with pytest.raises(EstimationError):
            phase_error_rate(1e-6, 0.0, 0.0, params)

    def test_field_t_x1(self, field_counts, params):
        t = t_x1_upper_bound(field_counts, params, 1e-5)
        assert t == pytest.approx(6.5912187e-07, rel=1e-6)

    def test_missing_qber_raises(self, params):
        detected = {k: 0.0 for k in CATEGORIES}
        counts = DecoyCounts.from_detected(params, 1e9, detected)
        with pytest.raises(EstimationError):
            t_x1_upper_bound(counts, params, 1e-5)


class TestFullEstimate:
    def test_field_values(self, field_counts, params, security):
        est = decoy.estimate(field_counts, params, security)
        assert est.s01_lower == pytest.approx(4.4340118e-04, rel=1e-6)
        assert est.s10_lower == pytest.approx(6.0742885e-05, rel=1e-6)
        assert est.s1_lower == pytest.approx(1.1065484e-04, rel=1e-6)
        assert est.n1_lower == pytest.approx(1.2226092e08, rel=1e-6)
        assert est.e1ph_upper == pytest.approx(0.0264233, abs=1e-6)

    def test_deterministic(self, field_counts, params, security):
        a = decoy.estimate(field_counts, params, security)
        b = decoy.estimate(field_counts, params, security)
        assert a == b

    def test_z_bit_tally(self, field_counts):
        tally = field_counts.z_bit_tally()
        assert tally.n0 == 80342420 + 86381667
        assert tally.n1 == 104894262 + 4163565
        assert tally.err0 == 80342420
        assert tally.err1 == 4163565
        assert tally.e_z == pytest.approx(0.3064, abs=5e-4)

    def test_roundtrip_counts_dict(self, field_counts, params):
        raw = field_counts.to_counts_dict()
        back = DecoyCounts.from_counts_dict(raw, params)
        assert back.detected == field_counts.detected
        assert back.qber_xvv == field_counts.qber_xvv
