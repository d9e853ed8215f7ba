"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The Monte Carlo criteria run at desk scale (minutes) with pinned
seeds; the full field-scale pulse count is out of reach by design and is
covered by the analytic reconciliation plus the scaled runs.
"""

import itertools
import json
import math

import numpy as np
import pytest

from tfqkd import bounds, cli, decoy, keyrate, model, montecarlo
from tfqkd.aopp import ZBitTally, aopp_estimate, aopp_pair, aopp_sift
from tfqkd.model import DetectorParams, LinkBudget
from tfqkd.montecarlo import PhaseConfig, run_protocol, simulate_phase_trace

from synthetic_keys import synthetic_sns_keys

FIELD_R = 2.20e-7          # bit per signal
FIELD_BPS = 110.1          # bit per second
FIELD_PHASE_ERROR = 0.0508
FIELD_EZ_AOPP = 0.0356
FIELD_N_TOT = 1.36581e13
LOCK_TOLERANCE = 0.05      # rad, |mean offset| of a locked trace
COARSE_REDUCTION = 10.0    # least free / coarse residual-std ratio


def verdict(num: int, ok: bool, detail: str):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def field_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "report.json"
    code = cli.main(["keyrate", "--out", str(out)])
    assert code == cli.EXIT_OK
    return json.loads(out.read_text())


def balanced_link(total_db: float, params) -> LinkBudget:
    delta = keyrate.balanced_arm_delta_db(params)
    loss_a = (total_db + delta) / 2.0
    return LinkBudget(length_ac_km=0.0, length_bc_km=0.0,
                      loss_ac_db=loss_a, loss_bc_db=total_db - loss_a)


def criterion5_run(params, n_slots: int, seed: int):
    """A run on the criterion-5 link (25 dB flux-balanced, 64 ns deadtime,
    ideal phase at 0.1 rad, V = 0.97) and the forward model's expected
    counts there."""
    det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0,
                         deadtime_s=64e-9)
    link = balanced_link(25.0, params)
    cfg = PhaseConfig(regime="ideal", residual_sigma=0.1)
    out = run_protocol(params, link, det, cfg, n_slots=n_slots, seed=seed,
                       visibility=0.97)
    pred = keyrate.expected_rates_model(params, link, det, visibility=0.97,
                                        misalignment_sigma_rad=0.1,
                                        n_tot=n_slots)
    return out, pred


def category_z(out, pred) -> dict:
    """Each category's z: the run's heralds against the forward model's,
    in Poisson sigma (at least 1)."""
    return {k: (out.counts.detected[k] - pred.detected[k])
            / max(math.sqrt(pred.detected[k]), 1.0) for k in decoy.CATEGORIES}


def x_qber_z(out, pred) -> dict:
    """Each matched-window QBER's z against the model's, in binomial sigma
    of the run's own phase-matched count."""
    z = {}
    for name, q_mc, q_model in (
            ("XXvv", out.counts.qber_xvv, pred.qber_xvv),
            ("XXuu", out.counts.qber_xuu, pred.qber_xuu)):
        matched = out.ground_truth[f"x{name[2:]}_matched"]
        z[name] = (q_mc - q_model) / math.sqrt(
            q_model * (1.0 - q_model) / matched)
    return z


def criterion7_stats(seed: int) -> dict:
    """Criterion 7's two statistics from 150 000-step traces of 10 us at
    one seed: the free / coarse residual-std ratio, and the full regime's
    |mean offset| over the trace's second half."""
    free, coarse, full = (
        simulate_phase_trace(PhaseConfig(regime=r), 150_000, 1e-5, seed=seed)
        for r in ("free", "coarse", "full"))
    tail = full.delta_phi_rad[full.delta_phi_rad.size // 2:]
    return {"ratio": free.residual_std() / coarse.residual_std(),
            "offset": abs(float(np.mean(tail)))}


@pytest.fixture(scope="module")
def big_mc_run(params):
    return criterion5_run(params, 100_000_000, seed=2026)


@pytest.fixture(scope="module")
def x_qber_run(params):
    """Criterion-5 link at 4e9 slots: ~1.2e4 phase-matched XXvv events."""
    return criterion5_run(params, 4_000_000_000, seed=2027)


class TestCriterion1GoldenReconciliation:
    def test_phase_error_rate(self, field_report):
        e1ph_prime = field_report["intermediates"]["e1ph_prime"]
        ok = abs(e1ph_prime - FIELD_PHASE_ERROR) <= 0.003
        verdict(1, ok, f"phase error rate {e1ph_prime:.4%} vs "
                       f"{FIELD_PHASE_ERROR:.2%} +- 0.3pp")

    def test_post_pairing_z_error(self, field_report):
        e_z_prime = field_report["intermediates"]["e_z_prime"]
        ok = abs(e_z_prime - FIELD_EZ_AOPP) <= 0.010
        verdict(1, ok, f"post-pairing Z error {e_z_prime:.4%} vs "
                       f"{FIELD_EZ_AOPP:.2%} +- 1.0pp")

    def test_secret_key_rate(self, field_report):
        r = field_report["r_per_signal"]
        bps = field_report["bits_per_second"]
        ok = abs(r / FIELD_R - 1.0) <= 0.20 and abs(bps / FIELD_BPS - 1.0) <= 0.20
        verdict(1, ok, f"SKR {r:.3e} bit/signal ({bps:.1f} bit/s) vs "
                       f"{FIELD_R:.2e} ({FIELD_BPS}) +- 20%")

    def test_secure_bits_identity(self, field_report):
        bits = field_report["secure_bits"]
        product = field_report["r_per_signal"] * FIELD_N_TOT
        # agreement to 3 significant figures
        ok = abs(bits - product) <= 5e-4 * abs(bits)
        verdict(1, ok, f"secure_bits {bits:.6g} == R * N_tot {product:.6g} "
                       "to 3 significant figures")


class TestCriterion2RateUnitIdentities:
    def test_skr_unit_identity(self):
        bps = 2.20e-7 * 1.0e9 * 0.5
        ok = math.isclose(bps, 110.0, rel_tol=1e-12)
        verdict(2, ok, f"2.20e-7 bit/signal * 1 GHz * 0.5 duty = {bps} bit/s")

    def test_skc0_unit_identity(self):
        bps = 3.62e-6 * 5.0e8
        ok = abs(bps - 1810.0) <= 2.0
        verdict(2, ok, f"3.62e-6 bit/use * 5e8 use/s = {bps} bit/s (1810 +- 2)")

    def test_report_identity_is_exact(self, field_report, params):
        r = field_report["r_per_signal"]
        bps = field_report["bits_per_second"]
        ok = math.isclose(bps, r * params.clock_rate_hz * params.duty_cycle,
                          rel_tol=1e-12)
        verdict(2, ok, "bits_per_second == r_per_signal * clock * duty exactly")


class TestCriterion3CapacityBounds:
    def test_skc0_half(self):
        verdict(3, bounds.skc0(0.5) == 1.0, "skc0(0.5) == 1 exactly")

    def test_skc1_diagonal(self):
        grid = np.concatenate([np.logspace(-8, -0.05, 40), [0.0]])
        ok = all(bounds.skc1(e, e) == bounds.skc0(e) for e in grid)
        verdict(3, ok, "skc1(eta, eta) == skc0(eta) over a 41-point grid")

    def test_noisy_reduction_at_zero(self):
        grid = np.logspace(-8, -0.05, 40)
        ok = all(bounds.noisy_skc0_ub(e, 0.0)[0] == bounds.skc0(e)
                 for e in grid)
        verdict(3, ok, "noisy_skc0_ub(eta, 0) == skc0(eta) to machine precision")

    def test_validity_flag_flip(self):
        ok = True
        for eta in (1e-6, 1e-3, 0.3):
            thr = eta / (1.0 - eta)
            ok &= bounds.noisy_skc0_ub(eta, thr * (1 - 1e-12))[1]
            ok &= not bounds.noisy_skc0_ub(eta, thr)[1]
            ok &= not bounds.noisy_skc0_ub(eta, thr * (1 + 1e-12))[1]
        verdict(3, ok, "validity flag flips exactly at n_bar = eta/(1-eta)")


class TestCriterion4SquareRootScaling:
    def test_skr_slope(self, params, security):
        det = DetectorParams(efficiency=0.145, dark_rate_hz=0.0,
                             deadtime_s=0.0)
        sweep = np.arange(20.0, 50.1, 2.0)
        rows = keyrate.skr_vs_distance(sweep, params, det, security,
                                       n_tot=FIELD_N_TOT, visibility=0.97,
                                       misalignment_sigma_rad=0.1)
        eta = 10.0 ** (-sweep / 10.0)
        r = np.array([row["skr_bit_per_pulse"] for row in rows])
        slope = np.polyfit(np.log10(eta), np.log10(r), 1)[0]
        ok = abs(slope - 0.5) <= 0.05
        verdict(4, ok, f"SKR log-log slope vs eta_channel = {slope:.3f} "
                       "(0.5 +- 0.05, dark-count-free mid-range)")

    def test_skc0_slope(self):
        sweep = np.arange(20.0, 50.1, 2.0)
        eta = 10.0 ** (-sweep / 10.0)
        skc = np.array([bounds.skc0(e) for e in eta])
        slope = np.polyfit(np.log10(eta), np.log10(skc), 1)[0]
        ok = abs(slope - 1.0) <= 0.02
        verdict(4, ok, f"skc0 log-log slope = {slope:.4f} (1.0 +- 0.02)")


class TestCriterion5OracleEquivalence:
    def test_category_counts_within_poisson_bands(self, big_mc_run):
        """Max |z| <= 3 over the 25 categories of a 1e8-slot run.

        Size: a correct sampler trips it on 1 - 0.9973^25 ~= 6.5% of
        seeds; 1000-seed sweeps (``criterion5_sweep.py --gate category``)
        measured 5.7-7.3%, so a correct change that moves the RNG stream
        fails this pinned seed about one time in 15.
        """
        z = category_z(*big_mc_run)
        worst_key = max(z, key=lambda k: abs(z[k]))
        worst_z = z[worst_key]
        ok = abs(worst_z) <= 3.0
        verdict(5, ok, f"1e8-slot run at 25 dB: all 25 categories within "
                       f"3 sigma (worst {worst_key}: z={worst_z:+.2f})")

    def test_field_deadtime_categories_within_poisson_bands(
            self, params, bundle, field_link, field_detector):
        """Max |z| <= 3 over the 25 categories of a 1e10-slot field run.

        Size: 1 - 0.9973^25 ~= 6.5% of seeds, as the category gate;
        1000-seed sweeps (``criterion5_sweep.py --gate field-deadtime``)
        measured 6.5-6.6%.
        """
        # The bundled field link and detector (10 us deadtime) in the full
        # drift regime: the forward model's deadtime retention factor
        # against the Monte Carlo's non-paralyzable filter.
        extras = bundle["extras"]
        n = 10_000_000_000
        out = run_protocol(params, field_link, field_detector,
                           PhaseConfig(regime="full"), n_slots=n, seed=2029,
                           visibility=extras["visibility"])
        pred = keyrate.expected_rates_model(
            params, field_link, field_detector,
            visibility=extras["visibility"],
            misalignment_sigma_rad=extras["misalignment_sigma_rad"], n_tot=n)
        z = category_z(out, pred)
        worst_key = max(z, key=lambda k: abs(z[k]))
        worst_z = z[worst_key]
        ok = abs(worst_z) <= 3.0
        verdict(5, ok, f"1e10-slot field-link run, 10 us deadtime: all 25 "
                       f"categories within 3 sigma (worst {worst_key}: "
                       f"z={worst_z:+.2f})")

    def test_s1_bound_covers_mc_truth(self, params, security):
        # The coverage link of test_s1_coverage_over_seeds at 1e9 slots,
        # where the bound is informative: it must be nonzero, below the
        # tagged truth and within a factor of two of it.
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0,
                             deadtime_s=0.0)
        link = balanced_link(20.0, params)
        cfg = PhaseConfig(regime="ideal", residual_sigma=0.1)
        out = run_protocol(params, link, det, cfg, n_slots=1_000_000_000,
                           seed=2028, visibility=0.97)
        rates = decoy.counting_rates(out.counts, security.chernoff_xi)
        s1_lower = decoy.bound_s1(decoy.bound_s01(rates, params),
                                  decoy.bound_s10(rates, params), params)
        truth = out.ground_truth["s1_true"]
        ok = 0.0 < s1_lower <= truth and s1_lower >= 0.5 * truth
        verdict(5, ok, f"1e9-slot run at 20 dB: s1_lower={s1_lower:.3e} "
                       f"within [0.5, 1.0] of tagged truth {truth:.3e}")

    def test_x_basis_qber_within_binomial_bands(self, x_qber_run):
        """|z| <= 3 on both matched-window QBERs of a 4e9-slot run.

        Size: two tests at 0.27% each, 1 - 0.9973^2 ~= 0.54% of seeds;
        measured at about 0.5%.
        """
        # Each matched-window QBER against the model's, within 3 binomial
        # sigma of the run's own phase-matched count.
        out, pred = x_qber_run
        z = x_qber_z(out, pred)
        ok = all(abs(v) <= 3.0 for v in z.values())
        parts = [f"{name} {q_mc:.4f} vs {q_model:.4f} over "
                 f"{out.ground_truth[f'x{name[2:]}_matched']} matched "
                 f"(z={z[name]:+.2f})" for name, q_mc, q_model in (
                     ("XXvv", out.counts.qber_xvv, pred.qber_xvv),
                     ("XXuu", out.counts.qber_xuu, pred.qber_xuu))]
        verdict(5, ok, "4e9-slot run at 25 dB, X-basis QBER within 3 "
                       "binomial sigma: " + "; ".join(parts))

    def test_s1_bound_informative_at_field_statistics(self, params, security):
        # The dim-category statistics need the field-scale pulse count to
        # give a nonzero bound; feed the analytic expected counts at the
        # field N_tot through the decoy chain and compare against the
        # analytic single-photon yield.
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0,
                             deadtime_s=64e-9)
        link = balanced_link(25.0, params)
        pred = keyrate.expected_rates_model(params, link, det,
                                            visibility=0.97,
                                            misalignment_sigma_rad=0.1,
                                            n_tot=FIELD_N_TOT)
        rates = decoy.counting_rates(pred, security.chernoff_xi)
        s1_lower = decoy.bound_s1(decoy.bound_s01(rates, params),
                                  decoy.bound_s10(rates, params), params)
        eta_a, eta_b = model.transmissivities(link)
        pd = det.dark_prob(params.clock_rate_hz)

        def one_photon_yield(q):
            return q * (1 - pd) + (1 - q) * 2 * pd * (1 - pd)

        v_a, v_b = params.alice.v, params.bob.v
        s1_true = (v_a * one_photon_yield(eta_a * det.efficiency)
                   + v_b * one_photon_yield(eta_b * det.efficiency)
                   ) / (v_a + v_b)
        ok = 0.0 < s1_lower <= s1_true and s1_lower >= 0.8 * s1_true
        verdict(5, ok, f"decoy bound at field statistics: s1_lower="
                       f"{s1_lower:.3e} within [0.8, 1.0] of analytic "
                       f"single-photon yield {s1_true:.3e}")

    def test_s1_coverage_over_seeds(self, params, security):
        # 100 seeded desk-scale repetitions; the conservative bound must
        # stay at or below the tagged ground truth in at least 95, and be
        # nonzero in at least 95 so that the coverage says something.
        det = DetectorParams(efficiency=0.145, dark_rate_hz=450.0,
                             deadtime_s=0.0)
        link = balanced_link(20.0, params)
        cfg = PhaseConfig(regime="ideal", residual_sigma=0.1)
        covered = 0
        nonzero = 0
        for seed in range(100):
            out = run_protocol(params, link, det, cfg, n_slots=200_000_000,
                               seed=1000 + seed, visibility=0.97)
            rates = decoy.counting_rates(out.counts, security.chernoff_xi)
            s1_lower = decoy.bound_s1(decoy.bound_s01(rates, params),
                                      decoy.bound_s10(rates, params), params)
            if s1_lower <= out.ground_truth["s1_true"]:
                covered += 1
            if s1_lower > 0.0:
                nonzero += 1
        ok = covered >= 95 and nonzero >= 95
        verdict(5, ok, f"s1_lower <= tagged truth in {covered}/100 seeded "
                       f"runs at 20 dB, nonzero in {nonzero}/100")


class TestCriterion6AoppOracle:
    def test_aggregate_vs_bit_level_at_1e6(self):
        alice, bob = synthetic_sns_keys(1_000_000, seed=77)
        bit_level = aopp_sift(alice, bob, aopp_pair(bob, seed=78))
        n0 = int(np.sum(bob == 0))
        n1 = int(np.sum(bob == 1))
        err0 = int(np.sum((bob == 0) & (alice != bob)))
        err1 = int(np.sum((bob == 1) & (alice != bob)))
        est = aopp_estimate(ZBitTally(n0, n1, err0, err1), 0.0, 0.0, 0.0)
        d_ez = abs(est.e_z_prime - bit_level.e_z_prime)
        d_nt = abs(est.n_t_prime - bit_level.n_t_prime) / bit_level.n_t_prime
        ok = d_ez <= 0.005 and d_nt <= 0.02
        verdict(6, ok, f"1e6-bit keys: |dE_Z'|={d_ez:.5f} (<=0.005), "
                       f"|dn_t'|/n_t'={d_nt:.5f} (<=0.02)")

    def test_bit_level_on_sampler_keys(self, params):
        # AOPP on run_protocol's own raw keys, tags included, against the
        # aggregate estimator fed the run's tally and tagged heralds.  The
        # decoy lower bounds are zero at 2e7 slots (EstimationError: s1
        # lower bound is zero), so checking the bound n1' against the
        # tagged survivors waits for larger runs.
        seed = 0
        out = run_protocol(params, LinkBudget(20, 15, 9.0, 6.0),
                           DetectorParams(0.145, 450.0),
                           PhaseConfig(regime="ideal", residual_sigma=0.1),
                           20_000_000, seed)
        raw, gt = out.raw_keys, out.ground_truth
        bit_level = aopp_sift(raw.alice_bits, raw.bob_bits,
                              aopp_pair(raw.bob_bits, seed), raw.tags)
        tally = out.counts.z_bit_tally()
        est = aopp_estimate(tally, gt["ns_heralded"], gt["sn_heralded"], 0.0)
        n_pairs = min(tally.n0, tally.n1)
        survival = est.n_t_prime / n_pairs
        tagged = est.n1_prime / n_pairs
        z_nt = ((bit_level.n_t_prime - est.n_t_prime)
                / math.sqrt(n_pairs * survival * (1.0 - survival)))
        z_ez = ((bit_level.e_z_prime - est.e_z_prime)
                / math.sqrt(est.e_z_prime * (1.0 - est.e_z_prime)
                            / est.n_t_prime))
        z_n1 = ((bit_level.n1_prime - est.n1_prime)
                / math.sqrt(n_pairs * tagged * (1.0 - tagged)))
        ok = max(abs(z_nt), abs(z_ez), abs(z_n1)) <= 4.0
        verdict(6, ok, f"{raw.length}-bit sampler keys: z(n_t')={z_nt:+.2f}, "
                       f"z(E_Z')={z_ez:+.2f}, z(n1')={z_n1:+.2f} (|z|<=4)")

    def test_exhaustive_enumeration_agreement(self):
        # Sampled 20-bit cases with a small minority side so that every
        # pairing can be enumerated; the aggregate estimator must match the
        # enumeration average exactly.
        rng = np.random.default_rng(99)
        checked = 0
        ok = True
        while checked < 25:
            bob = rng.integers(0, 2, 20).astype(np.uint8)
            flips = rng.random(20) < 0.3
            alice = bob ^ flips
            ones = int(bob.sum())
            minority = min(ones, 20 - ones)
            if not 1 <= minority <= 3:
                continue
            checked += 1
            zeros_idx = np.flatnonzero(bob == 0)
            ones_idx = np.flatnonzero(bob == 1)
            small, large = ((zeros_idx, ones_idx)
                            if zeros_idx.size <= ones_idx.size
                            else (ones_idx, zeros_idx))
            survivors, errors, n_cases = [], 0.0, 0
            for choice in itertools.permutations(large, small.size):
                pairs = np.column_stack([small, np.array(choice)])
                if bob[pairs[0, 0]] == 1:
                    pairs = pairs[:, ::-1]
                res = aopp_sift(alice, bob, pairs)
                survivors.append(res.n_t_prime)
                errors += res.e_z_prime * res.n_t_prime
                n_cases += 1
            est = aopp_estimate(ZBitTally(
                n0=20 - ones, n1=ones,
                err0=int(np.sum((bob == 0) & (alice != bob))),
                err1=int(np.sum((bob == 1) & (alice != bob)))), 0, 0, 0.0)
            mean_surv = float(np.mean(survivors))
            mean_err_rate = errors / max(sum(survivors), 1)
            ok &= math.isclose(est.n_t_prime, mean_surv, abs_tol=1e-9)
            ok &= math.isclose(est.e_z_prime, mean_err_rate, abs_tol=1e-9)
        verdict(6, ok, f"estimator equals exhaustive pairing average on "
                       f"{checked} sampled 20-bit cases")


@pytest.fixture(scope="module")
def lock_stats():
    return criterion7_stats(seed=41)


class TestCriterion7PhaseStabilisation:
    def test_coarse_reduction(self, lock_stats):
        ratio = lock_stats["ratio"]
        ok = ratio >= COARSE_REDUCTION
        verdict(7, ok, f"coarse feedback reduces residual std by "
                       f"{ratio:.1f}x (>=10x, same seed and sigma)")

    def test_full_lock(self, lock_stats):
        offset = lock_stats["offset"]
        ok = offset <= LOCK_TOLERANCE
        verdict(7, ok, f"coarse+fine mean offset {offset:.4f} rad within "
                       f"lock tolerance {LOCK_TOLERANCE}")


class TestCriterion8ScaleSubstitution:
    def test_desk_scale_substitutes_for_field_scale(self, field_report):
        # The field-scale pulse count is explicitly not reproduced in
        # simulation; the analytic reconciliation (criterion 1) plus the
        # scaled Monte Carlo (criterion 5) stand in for it.
        ok = (field_report["r_per_signal"] > 0
              and FIELD_N_TOT > 1e12)
        verdict(8, ok, "field-scale Monte Carlo (1.37e13 pulses) not "
                       "attempted; analytic pipeline + 1e8-slot runs "
                       "substitute")
