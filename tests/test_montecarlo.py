import dataclasses
import hashlib
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0
from scipy.stats import chi2

from tfqkd import decoy, keyrate, montecarlo
from tfqkd.model import (X_U, X_V, DetectorParams, LinkBudget, SideParams,
                         ProtocolParams, transmissivities)
from tfqkd.montecarlo import (
    PhaseConfig,
    _apply_fine_blocks,
    _phase_trajectory,
    click_probs,
    detector_means,
    filter_deadtime,
    run_protocol,
    simulate_phase_trace,
)


LOCK_TOLERANCE = 0.05   # rad, |mean offset| of a locked full-regime trace


@pytest.fixture(scope="module")
def quick_link():
    return LinkBudget(20, 15, 9.0, 6.0)


@pytest.fixture(scope="module")
def quick_det():
    return DetectorParams(efficiency=0.145, dark_rate_hz=450.0,
                          deadtime_s=0.0)


class TestInterfere:
    def test_silent_inputs_no_dark(self):
        p1, p2 = click_probs(0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        assert p1 == 0.0 and p2 == 0.0

    def test_perfect_visibility_dark_port(self):
        p1, p2 = click_probs(0.3, 0.3, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0)
        assert p2 == pytest.approx(0.0, abs=1e-15)
        assert p1 == pytest.approx(1.0 - math.exp(-0.6), rel=1e-12)

    def test_energy_conservation(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            mu_a, mu_b = rng.uniform(0, 1, 2)
            eta_a, eta_b = rng.uniform(0.01, 1, 2)
            eff = rng.uniform(0.1, 1)
            delta = rng.uniform(0, 2 * np.pi)
            v = rng.uniform(0, 1)
            mp, mm = detector_means(mu_a, mu_b, delta, eta_a, eta_b, eff, v)
            assert mp + mm == pytest.approx(
                eff * (eta_a * mu_a + eta_b * mu_b), rel=1e-10)
            assert mp >= 0 and mm >= 0

    def test_phase_average_matches_bessel_oracle(self):
        # Integrating the click probability over a uniform relative phase
        # must equal the phase-randomised Poisson rate
        # 1 - (1-pd) e^-m I0(c).
        det = DetectorParams(efficiency=0.3, dark_rate_hz=1e5)
        eta_a, eta_b = 0.02, 0.15
        mu_a, mu_b = 0.4, 0.05
        pd = det.dark_prob(1e9)
        grid = np.linspace(0, 2 * np.pi, 20001)[:-1]
        p1, _ = click_probs(mu_a, mu_b, grid, eta_a, eta_b, det.efficiency,
                            pd, 0.9)
        a = eta_a * mu_a * det.efficiency
        b = eta_b * mu_b * det.efficiency
        m = (a + b) / 2.0
        c = 0.9 * math.sqrt(a * b)
        oracle = 1.0 - (1.0 - pd) * math.exp(-m) * i0(c)
        assert np.mean(p1) == pytest.approx(oracle, rel=1e-6)

    def test_float32_tiny_mean_keeps_precision(self):
        # expm1 keeps relative precision at tiny means, where the direct
        # form 1 - (1 - pd) exp(-mu) cancels.  float32 makes the loss total
        # at mu ~ 1e-8, where exp(-mu) rounds to 1; the expm1 form keeps
        # the click probability to float32 precision.
        mu = np.float32(2e-8) * np.arange(1, 65, dtype=np.float32)
        pd = 0.0
        p1, _ = click_probs(mu, np.float32(0.0), np.float32(0.0),
                            np.float32(1.0), np.float32(1.0), 1.0, pd, 1.0)
        mu_plus = mu.astype(np.float64) / 2.0
        exact = -np.expm1(-mu_plus)
        assert p1.dtype == np.float32
        np.testing.assert_allclose(p1, exact, rtol=1e-6)
        naive = 1.0 - (1.0 - pd) * np.exp(-mu_plus.astype(np.float32))
        assert np.max(np.abs(naive / exact - 1.0)) > 0.5


def _quiet(monkeypatch):
    """Switch every noise source of the phase loops off."""
    for name in ("_SIGMA_DRIFT", "_SIGMA_DIFF", "_COARSE_SENSOR_NOISE"):
        monkeypatch.setattr(montecarlo, name, 0.0)


def _trajectory(cfg: PhaseConfig, n: int, x0: float, d0: float,
                dt: float = 1e-6, seed: int = 5):
    rng = np.random.default_rng(seed)
    carry = {"pos": -1, "x": x0, "d": d0}
    phases, _ = _phase_trajectory(cfg, np.arange(n), dt, rng, carry)
    return phases, carry


class TestPhaseAveragedLaw:
    # The closed form against its own reference: a fine uniform-phase
    # average of click_probs.  A uniform grid integrates a smooth periodic
    # function to rounding, so 4096 points is exact in float64.
    GRID = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)

    def quadrature(self, mu_a, mu_b, eta_a, eta_b, det_eff, p_dark, v):
        p1, p2 = click_probs(mu_a, mu_b, self.GRID, eta_a, eta_b, det_eff,
                             p_dark, v)
        return [np.mean(p1 * (1.0 - p2)), np.mean(p2 * (1.0 - p1)),
                np.mean(p1 * p2), np.mean((1.0 - p1) * (1.0 - p2))]

    def cases(self, params, visibilities=(0.5, 0.97, 1.0)):
        # Every class pair of the bundled link, 0-60 dB and three dark
        # probabilities (none, the bundled one, a noisy one).  At 60 dB,
        # V = 1 and no dark counts I0(B) - 1 is ~1e-14, and np.i0(B) - 1
        # would put "both" up to 1.6% off.
        for loss_db in range(0, 61, 10):
            eta_a, eta_b = transmissivities(
                keyrate.split_loss_link(float(loss_db), params))
            for v in visibilities:
                for p_dark in (0.0, 4.5e-7, 1e-3):
                    for mu_a in params.alice.intensity_of():
                        for mu_b in params.bob.intensity_of():
                            yield (mu_a, mu_b, eta_a, eta_b, 0.145, p_dark, v)

    def test_matches_the_quadrature(self, params):
        for args in self.cases(params):
            law = montecarlo.phase_averaged_law(*args)
            np.testing.assert_allclose(law, self.quadrature(*args),
                                       rtol=1e-13, atol=0.0, err_msg=str(args))
            assert abs(math.fsum(law) - 1.0) <= 1e-15, args

    def test_no_visibility_means_independent_detectors(self, params):
        for args in self.cases(params, visibilities=(0.0,)):
            one, two, both, neither = montecarlo.phase_averaged_law(*args)
            p1, p2 = one + both, two + both
            assert both == pytest.approx(p1 * p2, rel=1e-15, abs=0.0)
            assert neither == pytest.approx((1 - p1) * (1 - p2), rel=1e-15)


class TestPhaseMatchedQber:
    # The closed form against an independent quadrature of click_probs:
    # 400 Gauss-Legendre nodes over the window times 101 Gauss-Hermite
    # nodes over the jitter, both far past convergence for these smooth
    # integrands.
    LEGENDRE = np.polynomial.legendre.leggauss(400)
    HERMITE = np.polynomial.hermite_e.hermegauss(101)

    def quadrature(self, mu_a, mu_b, eta_a, eta_b, det_eff, p_dark, v,
                   window, sigma):
        theta = window * self.LEGENDRE[0]
        delta = theta[:, None] + sigma * self.HERMITE[0][None, :]
        p1, p2 = click_probs(mu_a, mu_b, delta, eta_a, eta_b, det_eff,
                             p_dark, v)
        jitter = self.HERMITE[1] / math.sqrt(2.0 * math.pi)
        wrong = (p2 * (1.0 - p1)) @ jitter
        either = (p1 * (1.0 - p2) + p2 * (1.0 - p1)) @ jitter
        return (wrong @ self.LEGENDRE[1]) / (either @ self.LEGENDRE[1])

    def test_matches_the_quadrature(self, params):
        # 0-90 dB, down to V = 1, sigma = 0 and no dark counts at 90 dB,
        # where the window's first-order terms nearly cancel.
        window = params.phase_window_rad()
        for loss_db in range(0, 91, 10):
            eta_a, eta_b = transmissivities(
                keyrate.split_loss_link(float(loss_db), params))
            for c in (X_U, X_V):
                mu_a = float(params.alice.intensity_of()[c])
                mu_b = float(params.bob.intensity_of()[c])
                for v in (0.5, 0.97, 1.0):
                    for sigma in (0.0, 0.1, 0.5, 1.2):
                        for p_dark in (0.0, 4.5e-7, 1e-3):
                            args = (mu_a, mu_b, eta_a, eta_b, 0.145, p_dark,
                                    v, window, sigma)
                            assert montecarlo.phase_matched_qber(
                                *args) == pytest.approx(
                                    self.quadrature(*args), rel=1e-12,
                                    abs=0.0), args

    def test_no_visibility_errs_half_the_time(self, params):
        # Without interference the two detectors are alike at every phase.
        args = (0.3, 0.1, 1e-3, 1e-2, 0.145, 4.5e-7, 0.0,
                params.phase_window_rad(), 0.1)
        assert montecarlo.phase_matched_qber(*args) == 0.5

    def test_no_heralds_no_error(self):
        # Blind, dark-free detectors, or detectors that always click.
        assert montecarlo.phase_matched_qber(0.0, 0.0, 1.0, 1.0, 1.0, 0.0,
                                             1.0, 0.4, 0.1) == 0.0
        assert montecarlo.phase_matched_qber(0.3, 0.3, 1.0, 1.0, 1.0, 1.0,
                                             1.0, 0.4, 0.1) == 0.0


class TestPhaseDrift:
    def test_zero_sigma_constant(self, monkeypatch):
        _quiet(monkeypatch)
        phases, carry = _trajectory(PhaseConfig("free"), 100, x0=0.7, d0=0.0)
        assert np.all(phases == 0.7)
        assert carry == {"pos": 99, "x": 0.7, "d": 0.0}

    def test_increment_statistics(self, monkeypatch):
        # Free drift: the step-to-step increments of the returned phase are
        # the common and differential random-walk steps, Gaussian with
        # variance (sigma_drift^2 + sigma_diff^2) dt.
        monkeypatch.setattr(montecarlo, "_SIGMA_DRIFT", 30.0)
        monkeypatch.setattr(montecarlo, "_SIGMA_DIFF", 40.0)
        cfg = PhaseConfig(regime="free")
        dt, n = 1e-6, 1_000_000
        phases, _ = _trajectory(cfg, n, x0=0.0, d0=0.0, dt=dt, seed=1)
        steps = np.diff(phases)
        assert np.std(steps) == pytest.approx(50.0 * math.sqrt(dt), rel=0.01)
        # moment sanity: skewness ~ 0, excess kurtosis ~ 0
        z = steps / np.std(steps)
        assert abs(np.mean(z**3)) < 0.02
        assert abs(np.mean(z**4) - 3.0) < 0.05

    def test_dt_must_be_positive(self):
        for dt in (0.0, -1e-6, math.nan, math.inf):
            with pytest.raises(ValueError):
                simulate_phase_trace(PhaseConfig(regime="free"), 100, dt,
                                     seed=0)


def _law_z(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """Two-sample z-scores of the means and of the variances of a and b."""
    z_mean = (a.mean() - b.mean()) / math.sqrt(a.var() / a.size
                                               + b.var() / b.size)

    def var_of_var(x):
        return (np.mean((x - x.mean()) ** 4) - x.var() ** 2) / x.size

    z_var = (a.var() - b.var()) / math.sqrt(var_of_var(a) + var_of_var(b))
    return float(z_mean), float(z_var)


class TestSparsePhaseLaw:
    """The phase at sparse slots has the law of the slot-by-slot walk."""

    N_STEPS, DT, SEEDS = 4000, 2e-6, 300    # 500-slot fine blocks
    SHARED = np.array([0, 1, 57, 1499, 2500, 3999])

    def _run(self, cfg, seed, sparse):
        n = self.N_STEPS
        block = montecarlo._fine_block_slots(self.DT)
        ends = np.arange(block - 1, n, block)
        if sparse:
            # Random slots in the first half only, so that blocks 4-7 are
            # crossed by long k-step transitions.
            extra = np.random.default_rng(seed).choice(n // 2, 20,
                                                       replace=False)
            slots = np.unique(np.concatenate([self.SHARED, ends, extra]))
        else:
            slots = np.arange(n)
        carry = {"pos": -1, "x": 0.1, "d": montecarlo._SETPOINT + 0.3,
                 "c_f": 0.0, "open": 0.0, "open_var": 0.0}
        drift, ref = [np.random.default_rng(s) for s in
                      np.random.SeedSequence(seed).spawn(2)]
        at = np.searchsorted(slots, ends)
        phases, means = _phase_trajectory(cfg, slots, self.DT, drift, carry,
                                          at)
        # Block mean minus the phase at the block's last slot: the part of
        # each block sum that the evaluated slots leave free.
        spread = means - phases[at]
        if cfg.regime == "full":
            phases = _apply_fine_blocks(phases, means, at, self.DT, ref,
                                        carry, 20.0, 0.99)
        return phases[np.searchsorted(slots, self.SHARED)], spread, carry["c_f"]

    @pytest.mark.parametrize("regime", ["free", "coarse", "full"])
    def test_sparse_steps_match_unit_steps(self, regime):
        cfg = PhaseConfig(regime=regime)
        runs = []
        for sparse in (False, True):
            out = [self._run(cfg, 10_000 * sparse + s, sparse)
                   for s in range(self.SEEDS)]
            runs.append([np.array([o[i] for o in out]) for i in range(3)])
        (phase_d, spread_d, cf_d), (phase_s, spread_s, cf_s) = runs
        for j, slot in enumerate(self.SHARED):
            for z in _law_z(phase_d[:, j], phase_s[:, j]):
                assert abs(z) < 5.0, (regime, slot, z)
        # Blocks 4-7 hold no random slot; their spreads pool as samples.
        for z in _law_z(spread_d[:, 4:].ravel(), spread_s[:, 4:].ravel()):
            assert abs(z) < 5.0, (regime, "block spread", z)
        if regime == "full":
            assert cf_d.std() > 0.0
            for z in _law_z(cf_d, cf_s):
                assert abs(z) < 5.0, ("c_f", z)

    @pytest.mark.parametrize("k", [1, 2, 7, 500])
    @pytest.mark.parametrize("rho", [None, 0.9])
    def test_k_step_covariance_matches_unit_steps(self, rho, k):
        # The value and the running sum after k steps are linear in the
        # innovations.  Their covariance from one k-step transition must
        # equal the one of k unit steps (rho None: random walk, else AR(1)).
        def walk(steps, z_step, z_area):
            sums = np.zeros((2, steps.size))
            if rho is None:
                v = montecarlo._random_walk(0.0, 1.0, steps, z_step, sums)
            else:
                v = montecarlo._ar1(0.0, rho, steps, 1.0, z_step, sums)
            mean, var = sums
            return v, np.cumsum(mean + np.sqrt(var) * z_area)

        unit = np.ones(k)
        runs = [walk(unit, e, np.zeros(k)) for e in np.eye(k)]
        for v, s in runs:   # at unit steps the sums are the running sums
            np.testing.assert_allclose(s, np.cumsum(v), rtol=1e-12,
                                       atol=1e-12)
        dense = np.array([[v[-1], s[-1]] for v, s in runs])
        one = np.array([float(k)])
        sparse = np.array([[v[-1], s[-1]] for v, s in (
            walk(one, np.array([1.0]), np.array([0.0])),
            walk(one, np.array([0.0]), np.array([1.0])))])
        np.testing.assert_allclose(sparse.T @ sparse, dense.T @ dense,
                                   rtol=1e-9)

    @pytest.mark.parametrize("k", [1, 2, 7, 500])
    @pytest.mark.parametrize("gain", [0.05, 0.5])
    def test_one_innovation_matches_the_two_source_slot_loop(self, gain, k,
                                                             monkeypatch):
        # The slot loop x_t = (1 - g) x_{t-1} + w_t - g nu_t draws the drift
        # step w and the sensor noise nu separately.  The value and the
        # running sum after k slots are linear in those 2k innovations, and
        # their covariance must equal that of one k-step transition of
        # ``_phase_trajectory`` (one normal for the value, one for the
        # block sum's residual) at the module's drift and sensor noise, over
        # one fine block of k slots.
        monkeypatch.setattr(montecarlo, "_COARSE_GAIN", gain)
        monkeypatch.setattr(montecarlo, "_SIGMA_DIFF", 0.0)
        dt = montecarlo._FINE_BLOCK_S / k
        assert montecarlo._fine_block_slots(dt) == k
        cfg = PhaseConfig(regime="coarse")
        drift = montecarlo._SIGMA_DRIFT * math.sqrt(dt) * np.eye(2 * k, k)
        sensor = montecarlo._COARSE_SENSOR_NOISE * np.eye(2 * k, k, -k)
        x = np.zeros(2 * k)     # one entry per unit innovation
        total = np.zeros(2 * k)
        for t in range(k):
            x = (1.0 - gain) * x + drift[:, t] - gain * sensor[:, t]
            total += x
        dense = np.column_stack([x, total])

        class Normals:
            def __init__(self, *draws):
                self.draws = [np.array(d, dtype=float) for d in draws]

            def standard_normal(self, shape):
                out = self.draws.pop(0)
                assert out.shape == np.empty(shape).shape
                return out

        rows = []
        for z_step, z_area in ((1.0, 0.0), (0.0, 1.0)):
            carry = {"pos": -1, "x": 0.0, "d": 0.0, "open": 0.0,
                     "open_var": 0.0}
            phases, means = _phase_trajectory(
                cfg, np.array([k - 1]), dt,
                Normals([[z_step], [0.0]], [z_area]), carry, np.array([0]))
            rows.append([phases[0], means[0] * k])
        sparse = np.array(rows)
        np.testing.assert_allclose(sparse.T @ sparse, dense.T @ dense,
                                   rtol=1e-9)


def _full_doubling(r, a, y0):
    """``_linear_scan`` without its early exit: every log-depth pass."""
    r = r.copy()
    y = a.copy()
    y[0] += r[0] * y0
    shift = 1
    while shift < y.size:
        y[shift:] = y[shift:] + r[shift:] * y[:-shift]
        r[shift:] = r[shift:] * r[:-shift]
        shift *= 2
    return y


# AR(1) factors rho^k: exact zeros, factors whose products underflow, any
# value in [0, 1] and values near 1.  Offsets never carry -0.0 (+ 0.0 maps
# it to +0.0), as sums of Gaussian terms never do; only a -0.0 entry could
# tell an added exact +0.0 apart.
_FACTORS = st.one_of(st.just(0.0), st.floats(1e-300, 1e-60),
                     st.floats(0.0, 1.0), st.floats(1.0 - 1e-6, 1.0))
_OFFSETS = st.floats(-10.0, 10.0).map(lambda v: v + 0.0)


class TestLinearScan:
    @given(st.lists(st.tuples(_FACTORS, _OFFSETS), min_size=1, max_size=300),
           _OFFSETS)
    def test_early_exit_is_bit_identical(self, steps, y0):
        r, a = (np.array(column) for column in zip(*steps))
        fast = montecarlo._linear_scan(r, a, y0)
        full = _full_doubling(r, a, y0)
        assert fast.tobytes() == full.tobytes()

    def test_matches_the_recursion(self):
        rng = np.random.default_rng(3)
        r, a = rng.random(1000), rng.standard_normal(1000)
        y, expected = 0.4, []
        for rj, aj in zip(r.tolist(), a.tolist()):
            y = rj * y + aj
            expected.append(y)
        np.testing.assert_allclose(montecarlo._linear_scan(r, a, 0.4),
                                   expected, rtol=1e-12, atol=1e-12)


class TestFeedback:
    def test_coarse_zero_error_zero_correction(self, monkeypatch):
        _quiet(monkeypatch)
        phases, carry = _trajectory(PhaseConfig("coarse"), 1000, x0=0.0,
                                    d0=1.2)
        assert np.all(phases == 1.2)
        assert carry["x"] == 0.0

    def test_coarse_sign(self, monkeypatch):
        # The correction opposes the residual, so the loop relaxes it
        # geometrically by (1 - gain) per step from either side.
        _quiet(monkeypatch)
        monkeypatch.setattr(montecarlo, "_COARSE_GAIN", 0.1)
        for x0 in (0.5, -0.5):
            phases, _ = _trajectory(PhaseConfig("coarse"), 50, x0=x0, d0=0.0)
            expected = x0 * 0.9 ** np.arange(1, 51)
            np.testing.assert_allclose(phases, expected, rtol=1e-12)

    @staticmethod
    def _fine_step(totals, n1, c_f=0.0):
        """``_apply_fine_blocks`` over one point per closed block, fed fixed
        reference totals and detector-1 counts; the corrections and carry."""
        class FixedCounts:
            def poisson(self, lam, size):
                assert size == len(totals)
                return np.array(totals)

            def binomial(self, n, p):
                assert 0.0 <= p <= 1.0
                return n1

        phases = np.zeros(len(totals))
        ends = np.arange(len(totals))
        carry = {"c_f": c_f}
        out = _apply_fine_blocks(phases, phases, ends, 1e-7,
                                 FixedCounts(), carry, ref_flux_per_slot=1.0,
                                 visibility=0.99)
        return out, carry

    def test_fine_balanced_counts_at_quadrature(self):
        out, carry = self._fine_step([2000], 1000)
        assert carry["c_f"] == pytest.approx(0.0)
        assert out.tolist() == [0.0]

    def test_fine_correction_sign(self):
        # More counts on detector 1 (1500 of 2000) means cos(delta) > 0,
        # i.e. the phase sits below quadrature, so the integral step
        # raises it.
        _, carry = self._fine_step([2000], 1500)
        step = carry["c_f"]
        assert step == pytest.approx(-0.5 * (math.acos(0.5) - math.pi / 2))
        assert step > 0.0

    def test_fine_empty_window(self):
        # An empty block draws no binomial and holds the correction.
        out, carry = self._fine_step([0, 0], None, c_f=0.25)
        assert carry == {"c_f": 0.25}
        assert out.tolist() == [0.25, 0.25]
        # No reference flux: every block is empty, so the loop only carries
        # the correction it already holds.
        phases = np.linspace(0.0, 1.0, 1000)
        expected = phases + 0.25    # the phases are corrected in place
        ends = np.arange(99, 1000, 100)     # 100-slot blocks
        carry = {"c_f": 0.25}
        out = _apply_fine_blocks(phases, phases[ends], ends, 1e-5,
                                 np.random.default_rng(0), carry,
                                 ref_flux_per_slot=0.0, visibility=0.99)
        assert carry == {"c_f": 0.25}
        assert np.array_equal(out, expected)

    def test_coarse_reduction_and_fine_lock(self):
        free = simulate_phase_trace(PhaseConfig(regime="free"), 100_000,
                                    1e-5, seed=11)
        coarse = simulate_phase_trace(PhaseConfig(regime="coarse"), 100_000,
                                      1e-5, seed=11)
        full = simulate_phase_trace(PhaseConfig(regime="full"), 100_000,
                                    1e-5, seed=11)
        assert coarse.residual_std() < free.residual_std() / 10.0
        tail = full.delta_phi_rad[full.delta_phi_rad.size // 2:]
        assert abs(np.mean(tail)) < LOCK_TOLERANCE


class TestGlobalSlotClock:
    """The phase loops run on the run's global slot clock."""

    def test_fine_blocks_close_on_the_global_clock(self, params, quick_link,
                                                   quick_det, monkeypatch):
        # 15 000-slot blocks against 2^20-slot batches: blocks straddle
        # every batch boundary, and each must still close exactly once, at
        # its global end k B - 1.  Each call draws its closed blocks'
        # reference totals as one Poisson vector, and at most one binomial
        # per closed block.
        monkeypatch.setattr(montecarlo, "_FINE_BLOCK_S", 3e-5)
        cfg = PhaseConfig(regime="full")
        block = montecarlo._fine_block_slots(1.0 / params.protocol_rate_hz)
        evaluated, closed = [], []
        draws = Counter()
        phase_trajectory = montecarlo._phase_trajectory
        apply_fine_blocks = montecarlo._apply_fine_blocks

        class CountingRng:
            def __init__(self, rng, closing):
                self.rng, self.closing = rng, closing

            def poisson(self, lam, size):
                assert size == self.closing
                draws["poisson"] += 1
                return self.rng.poisson(lam, size)

            def binomial(self, n, p):
                draws["binomial"] += 1
                return self.rng.binomial(n, p)

        def trajectory_spy(cfg_, slots, dt, rng_drift, carry, ends):
            evaluated.append(slots)
            closed.append(slots[ends])
            return phase_trajectory(cfg_, slots, dt, rng_drift, carry, ends)

        def spy(phases, means, ends, dt, rng_ref, *rest):
            draws["calls"] += 1
            return apply_fine_blocks(phases, means, ends, dt,
                                     CountingRng(rng_ref, means.size), *rest)

        monkeypatch.setattr(montecarlo, "_phase_trajectory", trajectory_spy)
        monkeypatch.setattr(montecarlo, "_apply_fine_blocks", spy)
        out = run_protocol(params, quick_link, quick_det, cfg, 10_000_000,
                           seed=3)
        assert out.batches > 1
        last = int(evaluated[-1][-1])
        expected = np.arange(block - 1, last + 1, block)
        assert np.array_equal(np.concatenate(closed), expected)
        assert draws["poisson"] == draws["calls"] == len(closed)
        assert 0 < draws["binomial"] <= expected.size

    def test_empty_request_leaves_the_carry(self, monkeypatch):
        cfg = PhaseConfig(regime="full")    # 100-slot blocks at 1e-5 s
        rngs = [np.random.default_rng(s) for s in range(2)]
        carry = {}
        evaluated = []
        phase_trajectory = montecarlo._phase_trajectory

        def trajectory_spy(cfg_, slots, *rest):
            evaluated.append(slots.tolist())
            return phase_trajectory(cfg_, slots, *rest)

        monkeypatch.setattr(montecarlo, "_phase_trajectory", trajectory_spy)
        phi = montecarlo._channel_phase(
            cfg, np.array([250, 7, 250]), 1e-5, rngs, carry, 20.0, 0.99)
        assert evaluated == [[7, 99, 199, 250]] and phi.size == 3
        before = dict(carry)
        phi = montecarlo._channel_phase(
            cfg, np.zeros(0, dtype=np.int64), 1e-5, rngs, carry, 20.0, 0.99)
        assert phi.size == 0 and len(evaluated) == 1
        assert carry == before

    @pytest.mark.parametrize("regime", ["ideal", "free", "coarse", "full"])
    def test_phases_come_back_in_request_order(self, regime):
        # An unsorted request with repeats that hits the block ends 99 and
        # 199 gets each slot's phase in request order: the phase that a
        # request for the evaluated points themselves (its distinct slots,
        # plus the block ends in "full") gets there from the same streams.
        cfg = PhaseConfig(regime=regime)    # 100-slot blocks at 1e-5 s
        request = np.array([250, 7, 199, 250, 99, 7, 31, 250])
        evaluated = np.array([7, 31, 99, 199, 250])

        def phases(slots):
            rngs = [np.random.default_rng(s) for s in (4, 5)]
            return montecarlo._channel_phase(cfg, slots, 1e-5, rngs, {},
                                             20.0, 0.99)

        at_points = phases(evaluated)
        assert np.unique(at_points).size == evaluated.size
        expected = at_points[np.searchsorted(evaluated, request)]
        assert phases(request).tobytes() == expected.tobytes()


class TestPhaseDrawBudget:
    """The phase layer draws only what it reads, per evaluated slot and per
    closed fine block."""

    # Normals per evaluated slot from the drift stream.
    PER_POINT = {"ideal": 1, "free": 2, "coarse": 2, "full": 2}

    @pytest.mark.parametrize("regime", ["ideal", "free", "coarse", "full"])
    def test_each_stream_advances_by_the_budget(self, regime):
        # 100-slot fine blocks: a request up to slot 1234 closes 12 blocks
        # (ends 99 .. 1199) in "full", and each takes one drift normal.
        # Only "full" reads the reference stream.
        cfg = PhaseConfig(regime=regime)    # 100-slot blocks at 1e-5 s
        streams = [np.random.default_rng(s) for s in (1, 2)]
        twin, ref_twin = (np.random.default_rng(s) for s in (1, 2))
        phi = montecarlo._channel_phase(
            cfg, np.array([1234, 5, 250, 251, 777]), 1e-5, streams, {},
            20.0, 0.99)
        assert phi.size == 5
        closed = 12 if regime == "full" else 0
        twin.standard_normal(self.PER_POINT[regime] * (5 + closed) + closed)
        assert streams[0].bit_generator.state == twin.bit_generator.state
        if regime != "full":
            assert (streams[1].bit_generator.state
                    == ref_twin.bit_generator.state)


class TestPhaseTracePin:
    # Criterion 7 reads simulate_phase_trace; its output at seed 41 over
    # 150 050 steps of 10 us (a partial final fine block) is pinned bit for
    # bit, as little-endian float64 bytes.
    @pytest.mark.parametrize("regime, digest", [
        pytest.param("free", "a385d1bdf71480c7a162d69b9963f305"
                             "e89e75f40b323deec13403dc4d39e8f6", id="free"),
        pytest.param("coarse", "6bdbb3666377cb32a578370d2a1e8c93"
                               "4e73bed7dcca7222991458cb81c143f7",
                     id="coarse"),
        pytest.param("full", "b498525d9f1253861f1e02ec0065068f"
                             "7b3e55403559b301f45b65675532012e", id="full"),
    ])
    def test_trace_is_bit_identical(self, regime, digest):
        trace = simulate_phase_trace(PhaseConfig(regime=regime), 150_050,
                                     1e-5, seed=41)
        data = np.ascontiguousarray(trace.delta_phi_rad, dtype="<f8")
        assert hashlib.sha256(data.tobytes()).hexdigest() == digest


def outcome_digest(out) -> str:
    """sha256 of a run's seeded outputs: its counts, ground truth, event
    tallies and batches (canonical JSON), raw-key bytes and phase trace
    (little-endian float64)."""
    record = {"counts": out.counts.to_counts_dict(), "gt": out.ground_truth,
              "events": [out.candidates, out.accepted, out.batches]}
    h = hashlib.sha256(json.dumps(record, sort_keys=True).encode())
    h.update(np.ascontiguousarray(out.raw_keys.events, dtype=np.uint8))
    for data in (out.phase_trace.times_s, out.phase_trace.delta_phi_rad):
        h.update(np.ascontiguousarray(data, dtype="<f8"))
    return h.hexdigest()


class TestSamplerPin:
    # run_protocol's seeded outputs, pinned bit for bit.  "metro" is the
    # benchmark's dense 10 dB flux-balanced link in "ideal" with a 64 ns
    # (31-slot) deadtime, and "metro-1us" the same with 499 dead slots, so
    # that most clicks fall in deadtime chains; both cut the run into
    # several batches, so the deadtime and phase carries cross batch
    # boundaries.  "field" is the bundled link and detector (10 us
    # deadtime) in "full" over 20 closed fine blocks.
    @pytest.mark.parametrize("case, digest", [
        pytest.param("metro", "1e5127159b349747bd777a0969c6f050"
                              "86be225bdc9ce4d131806ccbad59195e", id="metro"),
        pytest.param("metro-1us", "59925a59f18344c01c9fabbdf0936981"
                                  "208460ff9ba1808a75502c1328fcfaea",
                     id="metro-1us"),
        pytest.param("field", "c533681433ae164397dff7eee71fdf37"
                              "22e9c8e24130293c8f2504980668466c", id="field"),
    ])
    def test_outputs_are_bit_identical(self, case, digest, params,
                                       field_link, field_detector):
        if case == "field":
            link, det, cfg = field_link, field_detector, PhaseConfig("full")
            n_slots, batches = 10_000_000, 1
        else:
            loss_a = (10.0 + keyrate.balanced_arm_delta_db(params)) / 2.0
            link = LinkBudget(0.0, 0.0, loss_a, 10.0 - loss_a)
            det = dataclasses.replace(
                field_detector,
                deadtime_s=1e-6 if case == "metro-1us" else 64e-9)
            cfg = PhaseConfig("ideal", residual_sigma=0.1)
            n_slots, batches = 8_000_000, 4
        out = run_protocol(params, link, det, cfg, n_slots, seed=2024)
        assert out.batches == batches
        assert outcome_digest(out) == digest


def sequential_deadtime(slots, dead_slots, last_kept):
    """Reference: the non-paralyzable rule on the slot clock, one click at a
    time."""
    keep = np.ones(slots.size, dtype=bool)
    last = last_kept
    for idx, slot in enumerate(slots.tolist()):
        if slot - last <= dead_slots:
            keep[idx] = False
        else:
            last = slot
    return keep, last


def assert_same_as_sequential(slots, dead_slots, last_kept):
    keep, last = filter_deadtime(slots, dead_slots, last_kept)
    ref_keep, ref_last = sequential_deadtime(slots, dead_slots, last_kept)
    assert keep.dtype == bool
    assert np.array_equal(keep, ref_keep)
    assert last == ref_last
    return keep, last


# Sorted slot indices with duplicates, and a carry given as an offset from
# the first, middle or last click, or none (a detector with no click yet).
_SLOTS = st.lists(st.integers(0, 60), max_size=80).map(sorted)
_CARRY = st.one_of(st.none(), st.tuples(st.sampled_from([0, 0.5, 1]),
                                        st.integers(-14, 14)))


def _slots(values, lo=0):
    return lo + np.asarray(values, dtype=np.int64)


def _carry_slot(slots, carry, dead_slots):
    if carry is None:
        return -(dead_slots + 1)
    where, offset = carry
    if slots.size == 0:
        return offset
    return int(slots[int(where * (slots.size - 1))]) + offset


class TestDeadtimeFilter:
    @settings(max_examples=400)
    @given(_SLOTS, _CARRY, st.integers(0, 10**12),
           st.one_of(st.integers(0, 12),
                     st.integers(montecarlo.MAX_SLOTS - 8,
                                 montecarlo.MAX_SLOTS)),
           st.integers(0, 80))
    def test_matches_sequential_rule(self, values, carry, lo, dead_slots,
                                     split):
        # Dead slots near MAX_SLOTS too, where a capped deadtime lands.  The
        # clicks cut into two batches at ``split`` and stitched by the carry
        # keep the same clicks, chains across the cut included.
        slots = _slots(values, lo)
        carry_slot = _carry_slot(slots, carry, dead_slots)
        keep, last = assert_same_as_sequential(slots, dead_slots, carry_slot)
        head, carry_slot = filter_deadtime(slots[:split], dead_slots,
                                           carry_slot)
        tail, carry_slot = filter_deadtime(slots[split:], dead_slots,
                                           carry_slot)
        assert np.array_equal(np.concatenate([head, tail]), keep)
        assert carry_slot == last

    @given(_SLOTS, _CARRY, st.integers(0, 12))
    def test_no_deadtime_and_empty_input(self, values, carry, dead_slots):
        # With no dead slots every click past the carry, each on its own
        # slot, is kept.
        slots = _slots(sorted(set(values)))
        carry_slot = _carry_slot(slots, carry, 0)
        keep, _ = filter_deadtime(slots, 0, carry_slot)
        assert np.array_equal(keep, slots > carry_slot)
        assert_same_as_sequential(slots, 0, carry_slot)
        carry_slot = _carry_slot(slots, carry, dead_slots)
        keep, last = filter_deadtime(_slots([]), dead_slots, carry_slot)
        assert keep.size == 0 and last == carry_slot

    def test_long_chain(self):
        # A click on every slot and 3 dead slots: one cluster of 1e5 clicks
        # whose kept chain has 25 000 links.
        slots = _slots(np.arange(100_000), 12_345)
        assert_same_as_sequential(slots, 3, -4)
        assert_same_as_sequential(slots, 3, int(slots[7]))
        keep, _ = filter_deadtime(slots, 3, -4)
        assert np.count_nonzero(keep) == 25_000

    def test_empty(self):
        keep, last = filter_deadtime(_slots([]), 499, -500)
        assert keep.size == 0
        assert last == -500

    def test_no_deadtime_keeps_all(self):
        keep, last = filter_deadtime(_slots([0, 1, 2]), 0, -1)
        assert keep.all()
        assert last == 2

    def test_blocks_within_window(self):
        # 1 us at 2 ns slots: 499 dead slots.
        dead = DetectorParams(0.5, 0.0, deadtime_s=1e-6).dead_slots(5e8)
        assert dead == 499
        keep, _ = filter_deadtime(_slots([0, 250, 550, 750, 1150]), dead,
                                  -(dead + 1))
        assert keep.tolist() == [True, False, True, False, True]
        # A click exactly one deadtime after the kept one is kept.
        keep, _ = filter_deadtime(_slots([0, 499, 500, 999, 1000]), dead,
                                  -(dead + 1))
        assert keep.tolist() == [True, False, True, False, True]

    def test_carry_state_across_batches(self):
        keep1, last = filter_deadtime(_slots([0]), 499, -500)
        assert keep1.tolist() == [True] and last == 0
        keep2, _ = filter_deadtime(_slots([200, 600]), 499, last)
        assert keep2.tolist() == [False, True]

    def test_retained_spacing_property(self):
        rng = np.random.default_rng(3)
        slots = np.sort(rng.choice(500_000, 500, replace=False))
        keep, _ = filter_deadtime(slots, 2_499, -2_500)
        assert np.all(np.diff(slots[keep]) >= 2_500)


class TestEventLabels:
    def test_label_tables_agree_with_the_code_tables(self):
        # Each label's key bits, basis and window come from the pair-code
        # tables; only sn / ns labels carry a tag bit, an XX candidate's
        # one label carries no outcome, and every other code has one label
        # per click outcome (and per tag).
        # All of it is read from the one attribute byte per label, bit by
        # bit: the key bits and tag in bits 0-2, then the window, the XX
        # candidacy and the two detectors' clicks, and nothing above.
        mc = montecarlo
        code, bits = mc._LABEL_CODE, mc._LABEL_BITS
        assert mc._N_LABELS < 256 and np.all(np.diff(code) >= 0)
        assert bits.dtype == np.uint8 and np.all(bits < 128)
        assert ((mc._ZZ_BIT, mc._XX_BIT, mc._C1_BIT, mc._C2_BIT)
                == (8, 16, 32, 64))
        assert np.array_equal(bits & 3, mc._KEY_BITS[code])
        assert np.array_equal((bits & mc._ZZ_BIT) > 0, mc._ZZ[code])
        assert np.array_equal((bits & mc._XX_BIT) > 0, mc._XX[code])
        tag = bits >> 2 & 1
        assert np.array_equal(tag, mc._LABEL_TAG)
        assert set(code[tag == 1].tolist()) == {mc._SN, mc._NS}
        c1, c2 = (bits & mc._C1_BIT) > 0, (bits & mc._C2_BIT) > 0
        for c in range(25):
            at = code == c
            fates = sorted(zip(c1[at].tolist(), c2[at].tolist(),
                               tag[at].tolist()))
            if mc._XX[c]:
                assert fates == [(False, False, 0)]
                continue
            tags = (0, 1) if c in (mc._SN, mc._NS) else (0,)
            assert fates == sorted((c1, c2, t) for c1, c2 in (
                (True, False), (False, True), (True, True)) for t in tags)

    def test_each_label_clicks_as_its_law_column(self):
        # Label by label, not per code as a set: the click bits of every
        # non-XX label match the outcome of its column in the law table,
        # so no outcome can be permuted within a code.
        mc = montecarlo
        outcome_clicks = {0: (1, 0), 1: (0, 1), 2: (1, 1)}
        bits = mc._LABEL_BITS
        for label in range(mc._N_LABELS):
            if mc._XX[mc._LABEL_CODE[label]]:
                continue
            clicks = (int(bits[label] & mc._C1_BIT > 0),
                      int(bits[label] & mc._C2_BIT > 0))
            assert clicks == outcome_clicks[int(mc._LABEL_CELL[label] % 4)]

    def test_scatter_places_events_uniformly(self):
        # Four events on six slots often share a slot, so most draws go
        # through the free-slot sample; every placement of the labels (two
        # alike) at distinct slots must be equally likely: 6!/2!/2! = 180.
        rng = np.random.default_rng(3)
        labels = np.array([0, 0, 1, 2], dtype=np.uint8)
        seen = Counter()
        draws = 18_000
        for _ in range(draws):
            slots, placed = montecarlo._scatter(labels, 6, rng)
            assert np.all(np.diff(slots) > 0)
            seen[tuple(slots.tolist()), tuple(placed.tolist())] += 1
        assert len(seen) == 180
        observed = np.array(list(seen.values()))
        expected = draws / 180
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2.sf(stat, 179) > 1e-4
        # As many events as slots: every slot is taken once.
        slots, _ = montecarlo._scatter(np.zeros(1000, dtype=np.uint8), 1000,
                                       rng)
        assert np.array_equal(slots, np.arange(1000))

    @pytest.mark.parametrize("n, key", [((1 << 23) - 1, np.int32),
                                        (1 << 23, np.int64)])
    def test_scatter_at_the_int32_key_limit(self, n, key):
        # Below 2^23 slots slot << 8 | label fits int32, at 2^23 it takes
        # int64.  2^14 events on ~2^23 slots draw about 16 shared slots, so
        # the free-slot fix-up runs on both key widths.
        rng = np.random.default_rng(5)
        labels = rng.integers(0, montecarlo._N_LABELS, 1 << 14,
                              dtype=np.uint8)
        state = rng.bit_generator.state
        slots, placed = montecarlo._scatter(labels, n, rng)
        rng.bit_generator.state = state
        drawn = rng.integers(0, n, labels.size, dtype=key)
        assert np.unique(drawn).size < labels.size
        assert slots.dtype == key
        assert np.all(np.diff(slots) > 0)
        assert 0 <= slots[0] and slots[-1] < n
        assert np.isin(drawn, slots).all()     # the first at a slot keeps it
        assert np.array_equal(np.sort(placed), np.sort(labels))

    def test_scatter_int64_slots_are_uniform(self):
        # The int64 key path, over 64 equal bins of a 2^23-slot batch; the
        # 180-placement test covers the int32 path.
        rng = np.random.default_rng(11)
        n, events, runs = 1 << 23, 1 << 14, 16
        observed = np.zeros(64)
        for _ in range(runs):
            slots, _ = montecarlo._scatter(
                np.zeros(events, dtype=np.uint8), n, rng)
            assert slots.dtype == np.int64
            observed += np.bincount(slots * 64 // n, minlength=64)
        expected = runs * events / 64
        stat = float(np.sum((observed - expected) ** 2 / expected))
        assert chi2.sf(stat, 63) > 1e-4

    def test_tags_only_on_equal_key_bits(self, params, quick_det):
        # A tagged Z-window herald is an sn slot (Alice sends: 1; Bob
        # silent: 1) or an ns slot (0, 0), so its two key bits agree, and
        # the tagged bytes are the ground truth's tagged heralds.
        out = run_protocol(params, LinkBudget(0, 0, 6.0, 0.0), quick_det,
                           PhaseConfig(regime="ideal"), 10_000_000, seed=13)
        keys, gt = out.raw_keys, out.ground_truth
        tags = keys.tags
        assert np.count_nonzero(tags) > 1000
        assert np.array_equal(keys.alice_bits[tags], keys.bob_bits[tags])
        assert np.count_nonzero(keys.alice_bits[tags]) == gt["sn_heralded"]
        assert (np.count_nonzero(keys.alice_bits[tags] == 0)
                == gt["ns_heralded"])


class TestRunProtocol:
    def test_minimum_slots(self, params, quick_link, quick_det):
        with pytest.raises(ValueError):
            run_protocol(params, quick_link, quick_det, PhaseConfig(),
                         n_slots=100, seed=0)
        # Slot indices shifted past a label byte must stay within int64.
        with pytest.raises(ValueError):
            run_protocol(params, quick_link, quick_det, PhaseConfig(),
                         n_slots=montecarlo.MAX_SLOTS, seed=0)

    @pytest.mark.parametrize("visibility", [1.5, -0.1, float("nan")])
    def test_visibility_outside_the_unit_interval(self, params, quick_link,
                                                  quick_det, visibility):
        # The fine loop's binomial takes (1 + V cos delta) / 2 as a
        # probability, so V must lie in [0, 1], as in the forward model.
        with pytest.raises(ValueError, match="visibility"):
            run_protocol(params, quick_link, quick_det, PhaseConfig("full"),
                         n_slots=100_000, seed=0, visibility=visibility)
        with pytest.raises(ValueError, match="visibility"):
            keyrate.expected_rates_model(params, quick_link, quick_det,
                                         visibility)

    @pytest.mark.parametrize("sigma", [-0.3, float("nan"), float("inf")])
    def test_residual_sigma_must_be_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match="residual_sigma"):
            PhaseConfig(regime="ideal", residual_sigma=sigma)

    def test_unknown_regime_is_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            PhaseConfig(regime="locked")

    def test_same_seed_bit_identical(self, params, quick_link, quick_det):
        cfg = PhaseConfig(regime="ideal", residual_sigma=0.05)
        a = run_protocol(params, quick_link, quick_det, cfg, 50_000, seed=21)
        b = run_protocol(params, quick_link, quick_det, cfg, 50_000, seed=21)
        assert a.counts.detected == b.counts.detected
        assert np.array_equal(a.raw_keys.alice_bits, b.raw_keys.alice_bits)
        assert np.array_equal(a.raw_keys.bob_bits, b.raw_keys.bob_bits)
        assert a.counts.qber_xvv == b.counts.qber_xvv
        assert np.array_equal(a.phase_trace.delta_phi_rad,
                              b.phase_trace.delta_phi_rad)

    def test_peak_memory_flat_in_run_length(self, params, field_link,
                                            field_detector):
        # The patterns stream per batch, so a 4x longer run peaks within
        # 1 MB of the shorter one (the phase trace keeps ~4096 points).
        peaks = []
        for n_slots in (2 << 20, 8 << 20):
            tracemalloc.start()
            try:
                run_protocol(params, field_link, field_detector,
                             PhaseConfig(), n_slots, seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 1_000_000

    def test_sparse_batches_peak_below_a_dense_batch(self, params, field_link,
                                                     field_detector):
        # A field-link batch spans ~3e8 slots but holds ~2^14 expected
        # events, so its peak stays at or below one 2^20-slot batch on a
        # lossless link, where ~4% of the slots may click.
        runs = ((field_link, field_detector, 2_000_000_000),
                (LinkBudget(0, 0, 0.0, 0.0), DetectorParams(0.145, 450.0),
                 1 << 20))
        peaks, batches = [], []
        for link, det, n_slots in runs:
            tracemalloc.start()
            try:
                out = run_protocol(params, link, det, PhaseConfig(), n_slots,
                                   seed=7)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            batches.append(out.batches)
        assert 2 <= batches[0] <= 20   # batches of 1e8 slots or more
        assert batches[1] == 1
        assert peaks[0] <= peaks[1]

    def test_raw_key_costs_about_two_bytes_per_event(self, params):
        # The key is one event byte, kept per batch and joined once: about
        # 2 bytes per event at the peak, plus one dense batch's working set
        # (~12 MB).  Unpacking Alice's bits, Bob's bits and the tags beside
        # the joined bytes would peak at 4 bytes per event (4.19 here).
        tracemalloc.start()
        try:
            out = run_protocol(params, LinkBudget(0, 0, 0.0, 0.0),
                               DetectorParams(0.145, 450.0),
                               PhaseConfig(regime="ideal"), 300_000_000,
                               seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.raw_keys.length > 6_000_000
        assert peak / out.raw_keys.length <= 3.0

    def test_batch_count_follows_the_rule(self, params, field_link,
                                          field_detector, quick_link,
                                          quick_det, batch_rule):
        for link, det, n_slots in ((LinkBudget(0, 0, 0.0, 0.0), quick_det,
                                    3 << 20),
                                   (quick_link, quick_det, 10_000_000),
                                   (field_link, field_detector, 10_000_000)):
            out = run_protocol(params, link, det, PhaseConfig(), n_slots,
                               seed=3)
            batch = batch_rule(n_slots, out.candidates)
            assert out.batches == -(-n_slots // batch)

    def test_one_table_per_run_and_one_label_draw_per_batch(
            self, params, quick_link, quick_det, monkeypatch):
        calls = {"fair_sampled_classes": 0, "_subset_counts": 0}
        for name in calls:
            original = getattr(montecarlo, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(montecarlo, name, counting)
        out = run_protocol(params, quick_link, quick_det, PhaseConfig(),
                           10_000_000, seed=3)
        assert out.batches > 1
        assert calls == {"fair_sampled_classes": 1,
                         "_subset_counts": out.batches}

    def test_streams_are_built_once_per_run(self, params, quick_link,
                                            quick_det, field_link,
                                            field_detector, monkeypatch):
        # The run's stream and the two phase streams, whatever the
        # number of batches: no batch builds a generator.
        built = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            built.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        batches = []
        for link, det in ((quick_link, quick_det),
                          (field_link, field_detector)):
            built.clear()
            out = run_protocol(params, link, det, PhaseConfig(), 10_000_000,
                               seed=3)
            batches.append(out.batches)
            assert len(built) == 3
        assert batches[0] > 1 and batches[1] == 1

    def test_phase_blind_codes_skip_the_thinning(self, params, quick_link,
                                                 quick_det, monkeypatch):
        # Only XuXu and XvXv candidates reach click_probs; every other
        # event clicks, so the events drawn but not accepted are dropped XX
        # candidates.  The sampler's law table is phase_averaged_law to the
        # bit, and its thinning bound is that of click_probs at delta = 0.
        calls, tables = [], []
        click_probs_, law_table = montecarlo.click_probs, montecarlo._law_table

        def recording_probs(*args):
            calls.append(args[:2])
            return click_probs_(*args)

        def recording_table(*args):
            tables.append((args, law_table(*args)))
            return tables[-1][1]

        monkeypatch.setattr(montecarlo, "click_probs", recording_probs)
        monkeypatch.setattr(montecarlo, "_law_table", recording_table)
        out = run_protocol(params, quick_link, quick_det,
                           PhaseConfig(regime="ideal"), 10_000_000, seed=3)
        assert out.batches > 1
        sent, detected = out.counts.sent, out.counts.detected
        xx_candidates = sum(np.size(mu_a) for mu_a, _ in calls)
        assert 0 < xx_candidates <= sent["XXuu"] + sent["XXvv"]
        a, b = params.alice, params.bob
        xx_pairs = {(a.u, b.u), (a.v, b.v)}
        for mu_a, mu_b in calls:
            assert set(zip(mu_a.tolist(), mu_b.tolist())) <= xx_pairs
        # No deadtime: XX heralds and all double clicks bound the XX
        # clicks, and so the dropped XX candidates, from both sides.
        dropped = out.candidates - out.accepted
        xx_heralds = detected["XXuu"] + detected["XXvv"]
        doubles = out.accepted - sum(detected.values())
        assert doubles >= 0
        assert (xx_candidates - xx_heralds - doubles <= dropped
                <= xx_candidates - xx_heralds)
        [(args, (law, p_bar))] = tables
        mu_a, mu_b, *rest = args
        p1, _ = click_probs_(mu_a, mu_b, 0.0, *rest)
        _, p2 = click_probs_(mu_a, mu_b, np.pi, *rest)
        assert p_bar.tolist() == (p1 + p2 - p1 * p2).tolist()
        for code in range(25):
            assert law[code].tolist() == montecarlo.phase_averaged_law(
                mu_a[code], mu_b[code], *rest)

    def test_different_seed_differs(self, params, quick_link, quick_det):
        cfg = PhaseConfig(regime="ideal")
        a = run_protocol(params, quick_link, quick_det, cfg, 50_000, seed=1)
        b = run_protocol(params, quick_link, quick_det, cfg, 50_000, seed=2)
        assert a.counts.detected != b.counts.detected

    def test_counts_bounded_by_slots(self, params, quick_link, quick_det):
        out = run_protocol(params, quick_link, quick_det, PhaseConfig(),
                           100_000, seed=4)
        total_sent = sum(out.counts.sent.values())
        total_heralded = sum(out.counts.detected.values())
        assert total_sent == 100_000
        assert total_heralded <= 100_000
        for k in decoy.CATEGORIES:
            assert out.counts.detected[k] <= out.counts.sent[k]

    def test_dark_only_heralding_rate(self, params):
        # No light reaches the detectors (1000 dB per arm, transmissivity
        # 1e-100): heralded rate per slot = 2 p (1 - p).
        det = DetectorParams(efficiency=0.5, dark_rate_hz=1e7)  # p = 0.01
        link = LinkBudget(1, 1, 1000.0, 1000.0)
        out = run_protocol(params, link, det, PhaseConfig(), 200_000, seed=9)
        p = 0.01
        expected = 2 * p * (1 - p)
        rate = sum(out.counts.detected.values()) / out.n_slots
        sigma = math.sqrt(expected / out.n_slots)
        assert abs(rate - expected) < 4 * sigma

    def test_deadtime_invariant_across_batches(self, params, quick_link,
                                               monkeypatch):
        # Record the clicks run_protocol keeps, per detector, by wrapping
        # the module-level filter it calls (once per detector per batch).
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0,
                             deadtime_s=2e-8)  # 10 protocol slots
        dead = det.dead_slots(params.protocol_rate_hz)
        assert dead == 9
        n = 4_000_000     # ~1.5 batches of ~2^14 candidates on this link
        kept, carries = [], []
        original = montecarlo.filter_deadtime

        def recording(slots, dead_slots, last_kept):
            keep, last = original(slots, dead_slots, last_kept)
            kept.append(slots[keep])
            carries.append(last_kept)
            return keep, last

        monkeypatch.setattr(montecarlo, "filter_deadtime", recording)
        out = run_protocol(params, quick_link, det, PhaseConfig(), n, seed=8)
        assert out.batches == 2
        assert len(kept) == 4
        # A detector with no click yet keeps a click on the run's slot 0.
        assert carries[:2] == [-(dead + 1)] * 2
        for stream in (np.concatenate(kept[0::2]), np.concatenate(kept[1::2])):
            assert stream.dtype == np.int64
            assert stream.size > 1
            assert np.min(np.diff(stream)) >= dead + 1

    def test_deadtime_retention_matches_renewal_factor(self, params,
                                                       monkeypatch):
        # Oracle for the forward model's retention factor: a detector whose
        # clicks arrive as a Bernoulli stream of r per slot and which is
        # dead for D slots after each kept click keeps 1 / (1 + r D) of
        # them.  A lossless, dark-free link in the ideal regime clicks
        # densely; D = 9 (20 ns at 2 ns slots).  By the delta method, with
        # a = 1 + r D, kept/offered - 1/(1 + (offered/N) D) has standard
        # deviation sqrt((1 - r) D / (a^4 N)) over N slots.
        det = DetectorParams(efficiency=0.5, dark_rate_hz=0.0,
                             deadtime_s=2e-8)
        link = LinkBudget(0, 0, 0.0, 0.0)
        dead = det.dead_slots(params.protocol_rate_hz)
        assert dead == 9
        calls = []
        original = montecarlo.filter_deadtime

        def recording(slots, dead_slots, last_kept):
            keep, last = original(slots, dead_slots, last_kept)
            calls.append((slots.size, int(np.count_nonzero(keep))))
            return keep, last

        monkeypatch.setattr(montecarlo, "filter_deadtime", recording)
        n_slots = 0
        for seed in (31, 32, 33):
            out = run_protocol(params, link, det, PhaseConfig(regime="ideal"),
                               2_000_000, seed=seed)
            n_slots += out.n_slots
        assert len(calls) % 2 == 0      # detector 1, then 2, per batch
        for per_detector in (calls[0::2], calls[1::2]):
            offered, kept = np.sum(per_detector, axis=0)
            r = offered / n_slots
            a = 1.0 + r * dead
            sigma = math.sqrt((1.0 - r) * dead / (a**4 * n_slots))
            z = (kept / offered - 1.0 / a) / sigma
            assert abs(z) < 4.0, (kept / offered, 1.0 / a, z)

    def test_noiseless_matched_vv_qber(self, params):
        # Lossless arms, no dark counts, perfect visibility, no drift: with
        # the v fluxes balanced the matched-window error rate stays small
        # (bounded by the acceptance-window leakage).
        side_a = dataclasses.replace(params.alice, v=0.05)
        side_b = dataclasses.replace(params.bob, v=0.05)
        p = dataclasses.replace(params, alice=side_a, bob=side_b)
        det = DetectorParams(efficiency=1.0, dark_rate_hz=0.0)
        link = LinkBudget(0, 0, 0.0, 0.0)
        cfg = PhaseConfig(regime="ideal", residual_sigma=0.0)
        out = run_protocol(p, link, det, cfg, 300_000, seed=13,
                           visibility=1.0)
        assert out.counts.qber_xvv < 0.03

    def test_free_drift_degrades_x_basis(self, params, quick_det):
        # At 2e5 slots only ~8 XXvv events per run are phase-matched and
        # the ordering depended on the seed; 2e6 slots give ten times more.
        link = LinkBudget(1, 1, 3.0, 3.0)
        for seed in (3, 4, 5):
            locked = run_protocol(params, link, quick_det,
                                  PhaseConfig(regime="ideal",
                                              residual_sigma=0.0),
                                  2_000_000, seed=seed, visibility=1.0)
            free = run_protocol(params, link, quick_det,
                                PhaseConfig(regime="free"),
                                2_000_000, seed=seed, visibility=1.0)
            assert free.counts.qber_xvv > locked.counts.qber_xvv, seed

    def test_ground_truth_fields(self, params, quick_link, quick_det):
        out = run_protocol(params, quick_link, quick_det, PhaseConfig(),
                           200_000, seed=6)
        gt = out.ground_truth
        assert gt["sn_sent"] > 0 and gt["ns_sent"] > 0
        assert 0.0 <= gt["s10_true"] <= 1.0
        assert 0.0 <= gt["s1_true"] <= 1.0
        tags = out.raw_keys.tags
        # Tags ride in the key's event bytes: every tagged herald is
        # in the key, and tagged events come from one sender, so match.
        assert tags.dtype == bool
        assert tags.sum() == gt["sn_heralded"] + gt["ns_heralded"] > 0
        assert np.array_equal(out.raw_keys.alice_bits[tags],
                              out.raw_keys.bob_bits[tags])

    def test_counts_roundtrip_through_pipeline(self, params, quick_link,
                                               quick_det, security):
        out = run_protocol(params, quick_link, quick_det, PhaseConfig(),
                           200_000, seed=14)
        raw = out.counts.to_counts_dict()
        back = decoy.DecoyCounts.from_counts_dict(raw, params)
        direct = keyrate.analyze_counts(out.counts, params, security)
        round_trip = keyrate.analyze_counts(back, params, security)
        assert round_trip.r_per_signal == pytest.approx(direct.r_per_signal,
                                                        rel=1e-6)


class TestModelAgreement:
    @pytest.mark.parametrize("m", [4, 16])
    def test_matched_vv_qber_at_the_smallest_and_bundled_m(self, params, m):
        # The sampler's XXvv QBER against phase_matched_qber, in binomial
        # sigma of the run's matched count, on a small ideal link, at the
        # bundled M and at the smallest M that structural_checks accepts
        # (at M = 4 the 0 and pi windows meet only at their edges).
        p = dataclasses.replace(params, phase_slices_m=m)
        link = LinkBudget(1, 1, 3.0, 3.0)
        det = DetectorParams(efficiency=0.7)
        out = run_protocol(p, link, det,
                           PhaseConfig(regime="ideal", residual_sigma=0.0),
                           20_000_000, seed=10, visibility=0.97)
        pred = keyrate.expected_rates_model(p, link, det, visibility=0.97,
                                            misalignment_sigma_rad=0.0,
                                            n_tot=20_000_000)
        q, matched = pred.qber_xvv, out.ground_truth["xvv_matched"]
        z = (out.counts.qber_xvv - q) / math.sqrt(q * (1.0 - q) / matched)
        assert abs(z) <= 3.0, (out.counts.qber_xvv, q, matched)

    def test_fock_window_keeps_the_forward_model_law(self, params):
        # The sn / ns windows take the forward model's phase-averaged law,
        # and tagging by the posterior keeps the Fock picture's tag share.
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0)
        p_dark = det.dark_prob(params.clock_rate_hz)
        a, b = params.alice, params.bob
        for loss_db in (0.0, 10.0, 56.0):
            link = keyrate.split_loss_link(loss_db, params)
            eta_a, eta_b = transmissivities(link)
            for mu_a, mu_b, send, silent, eta_send in (
                    (a.s, b.w, a.s, b.w, eta_a), (a.w, b.s, b.s, a.w, eta_b)):
                args = (mu_a, mu_b, eta_a, eta_b, det.efficiency, p_dark, 0.97)
                coherent = montecarlo.phase_averaged_law(*args)
                posterior = montecarlo._tag_posterior(
                    send, silent, eta_send * det.efficiency, p_dark, coherent)
                assert np.dot(coherent, posterior) == pytest.approx(
                    math.exp(-silent) * send * math.exp(-send), rel=1e-12)
                assert np.all((posterior >= 0.0) & (posterior <= 1.0))
        # A blind, dark-free detector never clicks: the click outcomes get
        # P(tag | o) = 0, not 0 / 0.
        blind = montecarlo._tag_posterior(a.s, b.w, 0.0, 0.0, [0, 0, 0, 1])
        assert blind.tolist() == [0.0, 0.0, 0.0,
                                  math.exp(-b.w) * a.s * math.exp(-a.s)]

    def test_tags_keep_the_fock_law(self, params):
        # Tagged sn / ns slots make up the share t of their windows and
        # herald with the one-photon probability, each within 4 binomial
        # sigma.  Most tagged slots do not click, so this also checks the
        # binomial that tags the slots without a click.
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0)
        link = keyrate.split_loss_link(20.0, params)
        cfg = PhaseConfig(regime="ideal", residual_sigma=0.1)
        out = run_protocol(params, link, det, cfg, 100_000_000, seed=5)
        eta_a, eta_b = transmissivities(link)
        p_d = det.dark_prob(params.clock_rate_hz)
        gt = out.ground_truth
        a, b = params.alice, params.bob
        for key, category, truth, send, silent, eta_send in (
                ("sn", "ZZsn", "s10_true", a.s, b.w, eta_a),
                ("ns", "ZZns", "s01_true", b.s, a.w, eta_b)):
            slots = out.counts.sent[category]
            t = math.exp(-silent) * send * math.exp(-send)
            tagged = gt[f"{key}_sent"]
            assert abs(tagged - slots * t) <= 4.0 * math.sqrt(
                slots * t * (1.0 - t)), key
            q = eta_send * det.efficiency
            herald = 2.0 * ((1.0 - q / 2.0) * (1.0 - p_d)
                            - (1.0 - q) * (1.0 - p_d) ** 2)
            assert abs(gt[truth] - herald) <= 4.0 * math.sqrt(
                herald * (1.0 - herald) / tagged), truth

    def test_bright_silent_side_in_fock_windows(self, params):
        # With Bob's not-sending light at 0.1 and Alice's arm 15 dB down the
        # silent side dominates the ZZsn heralds.  Its light must enter at
        # first order, as in the forward model; a sampler that lets it in
        # at second order falls ~68 sigma short on ZZsn at these 2e6 slots.
        p = dataclasses.replace(params,
                                bob=dataclasses.replace(params.bob, w=0.1))
        link = LinkBudget(0, 0, 15.0, 0.0)
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0)
        n = 2_000_000
        out = run_protocol(p, link, det, PhaseConfig(), n, seed=1)
        pred = keyrate.expected_rates_model(p, link, det, visibility=0.97,
                                            n_tot=n)
        for k in decoy.CATEGORIES:
            sigma = max(math.sqrt(pred.detected[k]), 1.0)
            z = (out.counts.detected[k] - pred.detected[k]) / sigma
            assert abs(z) < 4.5, f"category {k}: z={z:.2f}"

    def test_double_clicks_and_heralds_follow_the_law(self, params):
        # A dense link with no deadtime keeps every click, so accepted -
        # heralds counts the double clicks.  A slot of each pair code
        # clicks with the phase-averaged law, the XX codes too (averaged
        # over theta_A - theta_B), so both totals are sums of binomials
        # with known means; each must lie within 4 sigma.  Double clicks
        # are rarer than independent detectors would make them, which a
        # sampler drawing "both" as the product of the two marginals
        # misses by far more than 4 sigma here.
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0)
        link = LinkBudget(0, 0, 0.0, 0.0)
        out = run_protocol(params, link, det, PhaseConfig(regime="ideal"),
                           16_000_000, seed=11, visibility=0.97)
        eta_a, eta_b = transmissivities(link)
        p_dark = det.dark_prob(params.clock_rate_hz)
        mu_a, mu_b = params.alice.intensity_of(), params.bob.intensity_of()
        mean = np.zeros(2)      # heralds, double clicks
        var = np.zeros(2)
        for k, (a, b) in decoy.CATEGORY_CLASSES.items():
            one, two, both, _ = montecarlo.phase_averaged_law(
                mu_a[a], mu_b[b], eta_a, eta_b, det.efficiency, p_dark, 0.97)
            p = np.array([one + two, both])
            mean += out.counts.sent[k] * p
            var += out.counts.sent[k] * p * (1.0 - p)
        heralds = sum(out.counts.detected.values())
        seen = np.array([heralds, out.accepted - heralds])
        z = (seen - mean) / np.sqrt(var)
        assert np.all(np.abs(z) < 4.0), z

    def test_categories_within_bands_at_30db(self, params, security):
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0,
                             deadtime_s=64e-9)
        link = LinkBudget(80, 56, 18.0, 12.0)
        cfg = PhaseConfig(regime="ideal", residual_sigma=0.1)
        n = 10_000_000
        out = run_protocol(params, link, det, cfg, n, seed=17,
                           visibility=0.97)
        pred = keyrate.expected_rates_model(params, link, det,
                                            visibility=0.97,
                                            misalignment_sigma_rad=0.1,
                                            n_tot=n)
        for k in decoy.CATEGORIES:
            sigma = max(math.sqrt(pred.detected[k]), 1.0)
            z = (out.counts.detected[k] - pred.detected[k]) / sigma
            assert abs(z) < 4.5, f"category {k}: z={z:.2f}"

    def test_s1_bound_covers_truth(self, params, security):
        # At desk-scale statistics the dim-category bounds may collapse to
        # zero; the conservative bound must never exceed the tagged truth.
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0,
                             deadtime_s=0.0)
        link = LinkBudget(80, 56, 14.12, 5.88)
        cfg = PhaseConfig(regime="ideal", residual_sigma=0.1)
        out = run_protocol(params, link, det, cfg, 10_000_000, seed=23,
                           visibility=0.97)
        rates = decoy.counting_rates(out.counts, security.chernoff_xi)
        s1_lower = decoy.bound_s1(decoy.bound_s01(rates, params),
                                  decoy.bound_s10(rates, params), params)
        assert s1_lower <= out.ground_truth["s1_true"]
