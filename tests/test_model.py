import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import chi2

from tfqkd import model, montecarlo
from tfqkd.model import (
    DetectorParams,
    LinkBudget,
    PatternError,
    SideParams,
    ProtocolParams,
    SecurityParams,
    class_totals,
    fair_sampled_classes,
    largest_remainder_counts,
    transmissivities,
    validate_params,
)


def symmetric_params(**overrides):
    side = SideParams(s=0.3, u=0.3, v=0.05, w=0.0002, p_z=0.8,
                      send_prob=0.3, p_u=0.1, p_v=0.7, p_w=0.2)
    kw = dict(alice=side, bob=side, phase_slices_m=16,
              clock_rate_hz=1e9, duty_cycle=0.5)
    kw.update(overrides)
    return ProtocolParams(**kw)


class TestValidateParams:
    def test_symmetric_condition_exact(self):
        report = validate_params(symmetric_params(), tolerance=1e-12)
        assert report.ok

    def test_field_params_pass_at_2_percent(self, params):
        assert validate_params(params, tolerance=0.02).ok

    def test_field_params_fail_at_half_percent(self, params):
        report = validate_params(params, tolerance=0.005)
        assert not report.ok
        failed = [c for c in report.checks if not c.passed]
        assert [c.name for c in failed] == ["asymmetric_security_condition"]
        assert failed[0].kind == "tolerance"

    def test_field_deviation_value(self, params):
        from tfqkd.model import asymmetry_condition_sides

        lhs, rhs = asymmetry_condition_sides(params)
        assert abs(lhs / rhs - 1.0) == pytest.approx(0.007866, abs=2e-4)

    def test_decoy_probability_hard_failure(self, params):
        bad_side = dataclasses.replace(params.alice, p_w=0.05)  # sums to 0.9
        bad = dataclasses.replace(params, alice=bad_side)
        report = validate_params(bad)
        assert not report.ok
        assert any(c.name == "decoy_probabilities_A" and c.kind == "structural"
                   and not c.passed for c in report.checks)

    def test_idempotent_and_pure(self, params):
        r1 = validate_params(params, 0.02)
        r2 = validate_params(params, 0.02)
        assert r1 == r2


RUN_SLOTS = 2 * (1 << 20) + 12_345
STREAMED_LINK = LinkBudget(0, 0, 0.0, 0.0)
STREAMED_DET = DetectorParams(0.145, 450.0)


def run_table(side_a, side_b, n_slots, seed):
    return fair_sampled_classes(side_a, side_b, n_slots,
                                np.random.default_rng(seed))


def hypergeometric_sd(total, good, drawn):
    p = drawn / total
    return np.sqrt(good * p * (1.0 - p) * (total - good) / (total - 1))


def hypergeometric_pmf(total, good, drawn, k):
    """Hypergeometric pmf at the consecutive integers k, normalised over
    them, from the ratio of successive terms: exact to rounding at any
    population size, unlike log-gamma differences."""
    j = k[:-1].astype(float)
    ratio = ((good - j) * (drawn - j)
             / ((j + 1.0) * (total - good - drawn + j + 1.0)))
    log_pmf = np.concatenate(([0.0], np.cumsum(np.log(ratio))))
    pmf = np.exp(log_pmf - log_pmf.max())
    return pmf / pmf.sum()


def chi_square_p(sample, total, good, drawn, min_expected=20.0):
    """Chi-square p-value of a sample against the hypergeometric pmf.

    Consecutive counts are pooled until each cell expects at least
    ``min_expected`` draws; a short last cell joins the one before.
    """
    mean = drawn * good / total
    sd = float(hypergeometric_sd(total, good, drawn))
    lo = max(0, drawn - (total - good), math.floor(mean - 12.0 * sd - 1.0))
    hi = min(good, drawn, math.ceil(mean + 12.0 * sd + 1.0))
    k = np.arange(lo, hi + 1)
    assert sample.min() >= lo and sample.max() <= hi
    expected = sample.size * hypergeometric_pmf(total, good, drawn, k)
    cell = np.empty(k.size, dtype=np.int64)
    c, acc = 0, 0.0
    for i, e in enumerate(expected):
        cell[i] = c
        acc += e
        if acc >= min_expected:
            c, acc = c + 1, 0.0
    if c > 0 and acc < min_expected:
        cell[cell == c] = c - 1
    exp_cells = np.bincount(cell, weights=expected)
    obs_cells = np.bincount(cell[sample - lo], minlength=exp_cells.size)
    stat = float(np.sum((obs_cells - exp_cells) ** 2 / exp_cells))
    return float(chi2.sf(stat, exp_cells.size - 1))


@pytest.fixture(scope="class")
def streamed_run(params):
    """Pair table, per-batch label draws, placed events (codes, slots) and
    outcome of one run_protocol run on a lossless link, where many slots
    may click."""
    tables, draws, events = [], [], []
    sampler = montecarlo.fair_sampled_classes
    subset, scatter = montecarlo._subset_counts, montecarlo._scatter

    def recording_sampler(side_a, side_b, n_slots, rng):
        tables.append(sampler(side_a, side_b, n_slots, rng))
        return tables[-1]

    def recording_subset(left, n, rng):
        draws.append(subset(left, n, rng))
        return draws[-1]

    def recording_scatter(codes, n, rng):
        slots = scatter(codes, n, rng)
        events.append((codes.copy(), slots.copy(), n))
        return slots

    montecarlo.fair_sampled_classes = recording_sampler
    montecarlo._subset_counts = recording_subset
    montecarlo._scatter = recording_scatter
    try:
        out = montecarlo.run_protocol(params, STREAMED_LINK, STREAMED_DET,
                                      montecarlo.PhaseConfig(), RUN_SLOTS,
                                      seed=21)
    finally:
        montecarlo.fair_sampled_classes = sampler
        montecarlo._subset_counts = subset
        montecarlo._scatter = scatter
    return tables, np.array(draws), events, out


@pytest.fixture(scope="class")
def streamed_batches(streamed_run, batch_rule):
    """Batch sizes of the streamed run, by the batch-size rule."""
    out = streamed_run[3]
    batch = batch_rule(RUN_SLOTS, out.candidates)
    sizes = [batch] * (RUN_SLOTS // batch) + [RUN_SLOTS % batch]
    assert len(sizes) >= 3
    return sizes


class TestPatternSynthesis:
    def test_exact_proportion_small(self):
        side = SideParams(s=0.3, u=0.3, v=0.05, w=0.0, p_z=1.0,
                          send_prob=0.5, p_u=0.0, p_v=0.0, p_w=0.0)
        totals = class_totals(side, 10)
        assert totals.tolist() == [5, 5, 0, 0, 0]
        table = run_table(side, side, 10, seed=0)
        assert table.sum() == 10
        assert np.array_equal(table.sum(axis=1), totals)
        assert np.array_equal(table.sum(axis=0), totals)

    def test_same_seed_identical(self, params):
        t1 = run_table(params.alice, params.bob, 100_000, seed=9)
        t2 = run_table(params.alice, params.bob, 100_000, seed=9)
        assert np.array_equal(t1, t2)

    def test_different_seed_same_counts_different_order(self, params):
        # The side totals are fixed; how the sides pair up is random.
        t1 = run_table(params.alice, params.bob, 5000, seed=1)
        t2 = run_table(params.alice, params.bob, 5000, seed=2)
        assert np.array_equal(t1.sum(axis=1), t2.sum(axis=1))
        assert np.array_equal(t1.sum(axis=0), t2.sum(axis=0))
        assert not np.array_equal(t1, t2)

    def test_histogram_matches_probabilities_at_1e6(self, params):
        n = 1_000_000
        target = params.alice.class_probs() * n
        deviation = np.abs(class_totals(params.alice, n) - target)
        assert deviation.max() < 1.0

    def test_rounding_infeasibility(self, params, field_link, field_detector,
                                    monkeypatch):
        starved = dataclasses.replace(params.alice, p_v=0.999999, p_w=1e-6)
        with pytest.raises(PatternError):
            class_totals(starved, 10_000)

        with pytest.raises(PatternError):
            fair_sampled_classes(starved, params.bob, 10_000,
                                 np.random.default_rng(0))

        def no_batch(*args):
            raise AssertionError("a batch ran before the class check")

        monkeypatch.setattr(montecarlo, "_scatter", no_batch)
        with pytest.raises(PatternError):
            montecarlo.run_protocol(
                dataclasses.replace(params, alice=starved), field_link,
                field_detector, montecarlo.PhaseConfig(), 10_000, seed=0)

    @given(st.integers(min_value=0, max_value=2**31),
           st.integers(min_value=0, max_value=2**31))
    def test_counts_permutation_invariant_across_seeds(self, s1, s2):
        side = SideParams(s=0.3, u=0.3, v=0.05, w=0.0002, p_z=0.8,
                          send_prob=0.3, p_u=0.1, p_v=0.7, p_w=0.2)
        totals = class_totals(side, 500)
        for seed in (s1, s2):
            table = run_table(side, side, 500, seed)
            assert np.array_equal(table.sum(axis=1), totals)
            assert np.array_equal(table.sum(axis=0), totals)

    def test_largest_remainder_sums(self):
        probs = np.array([0.21, 0.33, 0.46])
        counts = largest_remainder_counts(probs, 97)
        assert counts.sum() == 97
        assert np.all(np.abs(counts - probs * 97) < 1.0)

    def test_run_tables_sum_to_exact_totals(self, params, streamed_run,
                                            streamed_batches):
        # One table per run, with the run's exact side totals; the batches'
        # label draws fill the batch sizes and together place every
        # candidate and every other slot of the run.
        tables, draws, _, out = streamed_run
        assert len(tables) == 1
        assert np.array_equal(tables[0].sum(axis=1),
                              class_totals(params.alice, RUN_SLOTS))
        assert np.array_equal(tables[0].sum(axis=0),
                              class_totals(params.bob, RUN_SLOTS))
        assert draws.shape == (len(streamed_batches), 26)
        assert draws.sum(axis=1).tolist() == streamed_batches
        assert draws[:, :25].sum() == out.candidates
        assert draws[:, 25].sum() == RUN_SLOTS - out.candidates
        assert np.all(draws[:, :25].sum(axis=0) <= tables[0].ravel())

    def test_slot_position_independent_of_class(self, streamed_run,
                                                streamed_batches):
        # The events of a batch sit at distinct slots, and the slots of each
        # class form a uniformly random subset: over eight segments of the
        # batch a class's count is hypergeometric.
        _, _, events, _ = streamed_run
        assert [n for _, _, n in events] == streamed_batches
        for codes, slots, n in events:
            assert codes.size > n // 100
            assert np.unique(slots).size == slots.size
            assert slots.min() >= 0 and slots.max() < n
            edges = np.linspace(0, n, 9).astype(int)
            for of in (codes // 5, codes % 5):
                totals = np.bincount(of, minlength=5)
                for lo, hi in zip(edges[:-1], edges[1:]):
                    inside = (slots >= lo) & (slots < hi)
                    counts = np.bincount(of[inside], minlength=5)
                    mean = totals * (hi - lo) / n
                    sd = hypergeometric_sd(n, totals, hi - lo)
                    assert np.all(np.abs(counts - mean) <= 5.0 * sd + 1.0)

    def test_pair_table_matches_independent_sides(self, params,
                                                  streamed_run):
        # Under independent uniform arrangements the (a, b) count is
        # hypergeometric: Bob's class-b slots among Alice's class-a slots.
        # A batch holds a uniform share of the run's candidates of a code.
        tables, draws, _, _ = streamed_run
        ta = class_totals(params.alice, RUN_SLOTS)[:, None]
        tb = class_totals(params.bob, RUN_SLOTS)[None, :]
        mean = ta * tb / RUN_SLOTS
        sd = hypergeometric_sd(RUN_SLOTS, ta, tb)
        assert np.all(np.abs(tables[0] - mean) <= 5.0 * sd + 1.0)
        cand = draws[:, :25].sum(axis=0)
        for draw in draws:
            share = cand * draw.sum() / RUN_SLOTS
            assert np.all(np.abs(draw[:25] - share)
                          <= 5.0 * np.sqrt(share) + 1.0)

    @pytest.mark.parametrize("n_left", [10**9, 13_700_000_000_000])
    def test_batch_from_large_totals(self, params, n_left):
        # One batch's label draw when the run still holds n_left slots:
        # each code's candidates and the other slots.
        rng = np.random.default_rng(5)
        table = run_table(params.alice, params.bob, n_left, seed=5)
        cand = rng.binomial(table.ravel(), 1e-7)
        left = np.append(cand, n_left - cand.sum())
        n = 1 << 20
        draw = model._subset_counts(left, n, rng)
        assert draw.shape == (26,)
        assert draw.sum() == n
        assert np.all((draw >= 0) & (draw <= left))

    def test_conditioned_binomials_match_hypergeometric(self):
        colors = np.array([600, 250, 100, 40, 10])
        total, n, draws = colors.sum(), 200, 4000
        rng = np.random.default_rng(11)
        mean = n * colors / total
        var = hypergeometric_sd(total, colors, n) ** 2
        for sample in (
            np.array([model._conditioned_binomials(colors, n, rng)
                      for _ in range(draws)]),
            rng.multivariate_hypergeometric(colors, n, size=draws),
        ):
            assert np.all(sample.sum(axis=1) == n)
            assert np.all(np.abs(sample.mean(axis=0) - mean)
                          <= 5.0 * np.sqrt(var / draws))
            assert np.allclose(sample.var(axis=0), var, rtol=0.15)

    @pytest.mark.parametrize("n_left, n", [
        (13_700_000_000_000, 2_000_000_000),
        (3_000_000_000, 3_000_000_000),
    ])
    def test_batch_of_a_billion_slots(self, params, n_left, n):
        # Runs and batches of 1e9 slots or more reach numpy's population
        # limit in the table rows and the label draws; the whole run may
        # also be one batch.
        rng = np.random.default_rng(8)
        table = run_table(params.alice, params.bob, n_left, seed=8)
        assert table.sum() == n_left
        assert np.all(table >= 0)
        assert np.array_equal(table.sum(axis=1),
                              class_totals(params.alice, n_left))
        assert np.array_equal(table.sum(axis=0),
                              class_totals(params.bob, n_left))
        # Each slot's two classes are independent draws from the run totals.
        mean = n_left * np.outer(params.alice.class_probs(),
                                 params.bob.class_probs())
        assert np.all(np.abs(table - mean) <= 5.0 * np.sqrt(mean) + 1.0)
        cand = rng.binomial(table.ravel(), 1e-6)
        left = np.append(cand, n_left - cand.sum())
        draw = model._subset_counts(left, n, rng)
        assert draw.sum() == n
        assert np.all((draw >= 0) & (draw <= left))
        if n == n_left:
            assert np.array_equal(draw, left)
        share = left * (n / n_left)
        assert np.all(np.abs(draw - share) <= 5.0 * np.sqrt(share) + 1.0)

    @pytest.mark.parametrize("colors, n, draws", [
        ([600, 250, 100, 40, 10], 200, 4000),
        ([4_603_200_000_000, 6_356_800_000_000, 137_000_000_000,
          2_192_000_000_000, 411_000_000_000], 1_000_000_000, 1000),
    ])
    def test_conditioned_binomials_marginals_chi_square(self, colors, n,
                                                        draws):
        # Each class count of a multivariate hypergeometric draw is
        # hypergeometric; compare the draws' histograms with that pmf.
        colors = np.array(colors, dtype=np.int64)
        total = int(colors.sum())
        rng = np.random.default_rng(12)
        samples = [np.array([model._conditioned_binomials(colors, n, rng)
                             for _ in range(draws)])]
        if total < 10**9:
            samples.append(rng.multivariate_hypergeometric(colors, n,
                                                           size=draws))
        for sample in samples:
            assert np.all(sample.sum(axis=1) == n)
            for i, good in enumerate(colors.tolist()):
                assert chi_square_p(sample[:, i], total, good, n) > 1e-4, i


class TestTransmissivities:
    def test_lossless(self):
        assert transmissivities(LinkBudget(0, 0, 0.0, 0.0)) == (1.0, 1.0)

    def test_half_loss_per_arm(self):
        eta_a, eta_b = transmissivities(LinkBudget(10, 10, 3.0103, 3.0103))
        assert eta_a == pytest.approx(0.5, rel=1e-4)
        assert eta_a * eta_b == pytest.approx(0.25, rel=1e-4)

    def test_field_operating_point(self):
        # total 56.0 dB
        eta_a, eta_b = transmissivities(LinkBudget(156.7, 97.2, 32.12, 23.88))
        assert eta_a * eta_b == pytest.approx(2.5119e-6, rel=1e-3)

    @given(st.floats(min_value=0.0, max_value=80.0),
           st.floats(min_value=0.1, max_value=20.0))
    def test_monotone_decreasing_in_loss(self, loss, extra):
        lo = transmissivities(LinkBudget(1, 1, loss, 10.0))
        hi = transmissivities(LinkBudget(1, 1, loss + extra, 10.0))
        assert hi[0] < lo[0] and hi[1] == lo[1]


class TestParamsIO:
    def test_fixture_roundtrip(self, bundle, params):
        assert params.phase_slices_m == 16
        assert params.clock_rate_hz == 1e9
        assert params.duty_cycle == 0.5
        assert params.protocol_rate_hz == 5e8
        assert bundle["detector"].efficiency == 0.145
        link = bundle["link"]
        assert link.loss_ac_db + link.loss_bc_db == pytest.approx(56.0)

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            model.params_from_dict({"s_A": 0.5})

    def test_each_side_reads_its_own_keys(self, bundle, params):
        assert set(bundle) == {"protocol", "link", "detector", "security",
                               "extras"}
        assert params.alice == SideParams(s=0.52, u=0.52, v=0.08, w=0.0002,
                                          p_z=0.8, send_prob=0.42, p_u=0.05,
                                          p_v=0.8, p_w=0.15)
        assert params.bob == SideParams(s=0.24, u=0.13, v=0.012, w=0.0002,
                                        p_z=0.8, send_prob=0.15, p_u=0.05,
                                        p_v=0.8, p_w=0.15)

    def test_security_defaults_come_from_the_dataclass(self):
        assert model.security_from_dict({}) == SecurityParams()
        assert model.security_from_dict({"f_ec": 1.2, "eps_pa": 1e-9}) == (
            dataclasses.replace(SecurityParams(), f_ec=1.2, eps_pa=1e-9))

    def test_detector_defaults_come_from_the_dataclass(self):
        assert model.detector_from_dict({}) is None
        det = model.detector_from_dict({"detector_efficiency": 0.3})
        assert det == DetectorParams(efficiency=0.3)
        assert det.dark_rate_hz == 0.0 and det.deadtime_s == 0.0
        det = model.detector_from_dict({"detector_efficiency": 0.3,
                                        "deadtime_s": 1e-6})
        assert (det.dark_rate_hz, det.deadtime_s) == (0.0, 1e-6)

    def test_dark_prob(self):
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0)
        assert det.dark_prob(1e9) == pytest.approx(4.5e-7)
        assert det.dark_prob(5e8) == pytest.approx(9e-7)
        with pytest.raises(ValueError):
            det.dark_prob(450.0)

    @pytest.mark.parametrize("deadtime_s, rate, dead", [
        (0.0, 5e8, 0), (1e-9, 5e8, 0), (2e-9, 5e8, 0), (3e-9, 5e8, 1),
        (122e-9, 5e8, 60), (61e-9, 1e9, 60), (64e-9, 5e8, 31),
        (1e-5, 5e8, 4999), (1e-5, 1e9, 9999)])
    def test_dead_slots(self, deadtime_s, rate, dead):
        # Slots k >= 1 closer than the deadtime; a whole number of slots
        # stays whole where the float product lands an ulp above it
        # (122e-9 * 5e8 and 61e-9 * 1e9 do).
        det = DetectorParams(0.145, 450.0, deadtime_s=deadtime_s)
        assert det.dead_slots(rate) == dead
        assert isinstance(det.dead_slots(rate), int)

    def test_detector_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(efficiency=1.5, dark_rate_hz=0.0)

    @pytest.mark.parametrize("field", ["efficiency", "dark_rate_hz",
                                       "deadtime_s"])
    def test_detector_rejects_nan(self, field):
        kwargs = {"efficiency": 0.145, "dark_rate_hz": 450.0,
                  "deadtime_s": 1e-5, field: float("nan")}
        with pytest.raises(ValueError):
            DetectorParams(**kwargs)

    @pytest.mark.parametrize("field", ["length_ac_km", "length_bc_km",
                                       "loss_ac_db", "loss_bc_db"])
    def test_link_rejects_nan(self, field):
        # min() with a NaN argument depends on the argument order, so each
        # position is tried.
        kwargs = {"length_ac_km": 1.0, "length_bc_km": 1.0,
                  "loss_ac_db": 10.0, "loss_bc_db": 10.0,
                  field: float("nan")}
        with pytest.raises(ValueError):
            LinkBudget(**kwargs)

    def test_matched_fraction(self, params):
        assert params.matched_fraction() == pytest.approx(0.25)
        assert params.phase_window_rad() == pytest.approx(2 * np.pi / 16)
