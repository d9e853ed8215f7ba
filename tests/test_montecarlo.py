import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import i0

from tfqkd import decoy, keyrate, montecarlo
from tfqkd.model import (DetectorParams, LinkBudget, SideParams, ProtocolParams,
                         transmissivities)
from tfqkd.montecarlo import (
    FeedbackDivergence,
    PhaseConfig,
    _apply_fine_blocks,
    _phase_trajectory,
    click_probs,
    detector_means,
    filter_deadtime,
    fine_feedback,
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


def _quiet(regime: str, **kw) -> PhaseConfig:
    """A phase configuration with every noise source switched off."""
    return PhaseConfig(regime=regime, sigma_drift=0.0, sigma_diff=0.0,
                       coarse_sensor_noise=0.0, **kw)


def _trajectory(cfg: PhaseConfig, n: int, x0: float, d0: float,
                dt: float = 1e-6, seed: int = 5):
    rng = np.random.default_rng(seed)
    carry = {"x": x0, "d": d0}
    phases, _ = _phase_trajectory(cfg, np.arange(n), dt, rng, rng, carry)
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


class TestPhaseDrift:
    def test_zero_sigma_constant(self):
        phases, carry = _trajectory(_quiet("free"), 100, x0=0.7, d0=0.0)
        assert np.all(phases == 0.7)
        assert carry == {"x": 0.7, "d": 0.0}

    def test_increment_statistics(self):
        # Free drift: the step-to-step increments of the returned phase are
        # the common and differential random-walk steps, Gaussian with
        # variance (sigma_drift^2 + sigma_diff^2) dt.
        cfg = PhaseConfig(regime="free", sigma_drift=30.0, sigma_diff=40.0)
        dt, n = 1e-6, 1_000_000
        phases, _ = _trajectory(cfg, n, x0=0.0, d0=0.0, dt=dt, seed=1)
        steps = np.diff(phases)
        assert np.std(steps) == pytest.approx(50.0 * math.sqrt(dt), rel=0.01)
        # moment sanity: skewness ~ 0, excess kurtosis ~ 0
        z = steps / np.std(steps)
        assert abs(np.mean(z**3)) < 0.02
        assert abs(np.mean(z**4) - 3.0) < 0.05

    def test_dt_must_be_positive(self):
        for dt in (0.0, -1e-6):
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

    N_STEPS, DT, SEEDS = 4000, 1e-5, 300
    SHARED = np.array([0, 1, 57, 1499, 2500, 3999])

    def _run(self, cfg, seed, sparse):
        n = self.N_STEPS
        ends = montecarlo._fine_block_ends(cfg, n, self.DT)
        if sparse:
            # Random slots in the first half only, so that blocks 4-7 are
            # crossed by long k-step transitions.
            extra = np.random.default_rng(seed).choice(n // 2, 20,
                                                       replace=False)
            slots = np.unique(np.concatenate([self.SHARED, ends, extra]))
        else:
            slots = np.arange(n)
        carry = {"x": 0.1, "d": cfg.setpoint + 0.3, "c_f": 0.0}
        drift, sensor, ref = [np.random.default_rng(s) for s in
                              np.random.SeedSequence(seed).spawn(3)]
        phases, sums = _phase_trajectory(cfg, slots, self.DT, drift, sensor,
                                         carry)
        # Block mean minus the phase at the block's last slot: the part of
        # each block sum that the evaluated slots leave free.
        at = np.searchsorted(slots, ends)
        spread = (np.diff(sums[at], prepend=0.0) / np.diff(ends, prepend=-1)
                  - phases[at])
        if cfg.regime == "full":
            phases = _apply_fine_blocks(cfg, slots, phases, sums, self.DT,
                                        ref, carry, 20.0, 0.99)
        return phases[np.searchsorted(slots, self.SHARED)], spread, carry["c_f"]

    @pytest.mark.parametrize("regime", ["free", "coarse", "full"])
    def test_sparse_steps_match_unit_steps(self, regime):
        cfg = PhaseConfig(regime=regime, fine_block_s=5e-3)
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
    @pytest.mark.parametrize("rho", [None, 0.9, -0.5])
    def test_k_step_covariance_matches_unit_steps(self, rho, k):
        # The value and the running sum after k steps are linear in the
        # innovations.  Their covariance from one k-step transition must
        # equal the one of k unit steps (rho None: random walk, else AR(1)).
        def walk(steps, z_step, z_area):
            if rho is None:
                return montecarlo._random_walk(0.0, 1.0, steps, z_step, z_area)
            return montecarlo._ar1(0.0, rho, steps, ((1.0, z_step, z_area),))

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


class TestFeedback:
    def test_coarse_zero_error_zero_correction(self):
        phases, carry = _trajectory(_quiet("coarse"), 1000, x0=0.0, d0=1.2)
        assert np.all(phases == 1.2)
        assert carry["x"] == 0.0

    def test_coarse_sign(self):
        # The correction opposes the residual, so the loop relaxes it
        # geometrically by (1 - gain) per step from either side.
        cfg = _quiet("coarse", coarse_gain=0.1)
        for x0 in (0.5, -0.5):
            phases, _ = _trajectory(cfg, 50, x0=x0, d0=0.0)
            expected = x0 * 0.9 ** np.arange(1, 51)
            np.testing.assert_allclose(phases, expected, rtol=1e-12)

    def test_fine_balanced_counts_at_quadrature(self):
        assert fine_feedback((1000, 1000), 0.5, math.pi / 2) == pytest.approx(0.0)

    def test_fine_correction_sign(self):
        # More counts on detector 1 means cos(delta) > 0, i.e. the phase
        # sits below quadrature, so the integral step raises it.
        step = fine_feedback((1500, 500), 0.5, math.pi / 2)
        assert step == pytest.approx(-0.5 * (math.acos(0.5) - math.pi / 2))
        assert step > 0.0

    def test_fine_empty_window(self):
        assert fine_feedback((0, 0), 0.5, math.pi / 2) == 0.0
        # No reference flux: every block is empty, so the loop only carries
        # the correction it already holds.
        cfg = PhaseConfig(regime="full", fine_block_s=1e-5)
        phases = np.linspace(0.0, 1.0, 1000)
        carry = {"c_f": 0.25}
        out = _apply_fine_blocks(cfg, np.arange(1000), phases,
                                 np.cumsum(phases), 1e-7,
                                 np.random.default_rng(0), carry,
                                 ref_flux_per_slot=0.0, visibility=0.99)
        assert carry == {"c_f": 0.25}
        assert np.array_equal(out, phases + 0.25)

    def test_divergent_gain_rejected(self):
        with pytest.raises(FeedbackDivergence):
            PhaseConfig(coarse_gain=2.5)
        with pytest.raises(FeedbackDivergence):
            PhaseConfig(fine_gain=1.5)

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
    @given(_SLOTS, _CARRY, st.integers(0, 10**12), st.integers(0, 12))
    def test_matches_sequential_rule(self, values, carry, lo, dead_slots):
        slots = _slots(values, lo)
        assert_same_as_sequential(slots, dead_slots,
                                  _carry_slot(slots, carry, dead_slots))

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


class TestRunProtocol:
    def test_minimum_slots(self, params, quick_link, quick_det):
        with pytest.raises(ValueError):
            run_protocol(params, quick_link, quick_det, PhaseConfig(),
                         n_slots=100, seed=0)

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

    def test_phase_blind_codes_skip_the_thinning(self, params, quick_link,
                                                 quick_det, monkeypatch):
        # Only XuXu and XvXv candidates reach click_probs after the one
        # p_bar call; every other event clicks, so the events drawn but not
        # accepted are dropped XX candidates; and the sampler's law table
        # is phase_averaged_law to the bit.
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
        points = [np.size(mu_a) for mu_a, _ in calls]
        assert points[0] == 25
        assert sum(points) <= 25 + sent["XXuu"] + sent["XXvv"]
        a, b = params.alice, params.bob
        xx_pairs = {(a.u, b.u), (a.v, b.v)}
        for mu_a, mu_b in calls[1:]:
            assert set(zip(mu_a.tolist(), mu_b.tolist())) <= xx_pairs
        # No deadtime: XX heralds and all double clicks bound the XX
        # clicks, and so the dropped XX candidates, from both sides.
        dropped = out.candidates - out.accepted
        xx_candidates = sum(points[1:])
        xx_heralds = detected["XXuu"] + detected["XXvv"]
        doubles = out.accepted - sum(detected.values())
        assert doubles >= 0
        assert (xx_candidates - xx_heralds - doubles <= dropped
                <= xx_candidates - xx_heralds)
        [(args, table)] = tables
        mu_a, mu_b, *rest = args
        for code in range(25):
            assert table[code].tolist() == montecarlo.phase_averaged_law(
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
        # All intensities zero: heralded rate per slot = 2 p (1 - p).
        silent = dataclasses.replace(
            params,
            alice=dataclasses.replace(params.alice, s=0.0, u=0.0, v=0.0,
                                      w=0.0),
            bob=dataclasses.replace(params.bob, s=0.0, u=0.0, v=0.0, w=0.0),
        )
        det = DetectorParams(efficiency=0.5, dark_rate_hz=1e7)  # p = 0.01
        link = LinkBudget(1, 1, 3.0, 3.0)
        out = run_protocol(silent, link, det, PhaseConfig(), 200_000, seed=9)
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
        assert tags is not None and tags.shape == out.raw_keys.alice_bits.shape
        # Tags ride in the key events' code bytes: every tagged herald is
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
