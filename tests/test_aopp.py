import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfqkd.aopp import (
    AoppOutput,
    RawKeyPair,
    ZBitTally,
    aopp_estimate,
    aopp_pair,
    aopp_sift,
    pair_phase_error_rate,
)

from synthetic_keys import synthetic_sns_keys


def bits(s: str) -> np.ndarray:
    return np.array([int(c) for c in s], dtype=np.uint8)


class TestPairing:
    def test_no_ones_no_pairs(self):
        assert aopp_pair(bits("0000"), seed=0).shape == (0, 2)

    def test_forced_pair(self):
        pairs = aopp_pair(bits("01"), seed=0)
        assert pairs.tolist() == [[0, 1]]

    def test_structural(self):
        b = bits("001011")
        pairs = aopp_pair(b, seed=3)
        assert pairs.shape == (3, 2)
        used = pairs.ravel().tolist()
        assert len(set(used)) == len(used)
        assert all(b[i] == 0 and b[j] == 1 for i, j in pairs)

    def test_pair_count_is_minority_count(self):
        b = bits("0001111111")
        assert aopp_pair(b, seed=1).shape == (3, 2)

    def test_seeded_determinism(self):
        b = bits("0101100101")
        assert np.array_equal(aopp_pair(b, 7), aopp_pair(b, 7))
        assert not np.array_equal(aopp_pair(b, 7), aopp_pair(b, 8))

    def test_empty_key_rejected(self):
        with pytest.raises(ValueError):
            aopp_pair(np.array([], dtype=np.uint8), seed=0)


class TestSift:
    def test_error_free_keys_all_survive(self):
        rng = np.random.default_rng(0)
        b = rng.integers(0, 2, 400).astype(np.uint8)
        pairs = aopp_pair(b, seed=1)
        out = aopp_sift(b, b, pairs)
        assert out.n_t_prime == pairs.shape[0]
        assert out.e_z_prime == 0.0

    def test_forced_example(self):
        out = aopp_sift(bits("01"), bits("01"), np.array([[0, 1]]))
        assert out.n_t_prime == 1
        assert out.e_z_prime == 0.0

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            aopp_sift(bits("01"), bits("01"), np.array([[0, 5]]))

    def test_tags_counted_on_survivors(self):
        alice = bits("0101")
        bob = bits("0101")
        tags = np.array([True, True, False, True])
        pairs = np.array([[0, 1], [2, 3]])
        out = aopp_sift(alice, bob, pairs, tags=tags)
        assert out.n_t_prime == 2
        assert out.n1_prime == 1  # only pair (0,1) has both bits tagged


def brute_force_expectation(alice: np.ndarray, bob: np.ndarray):
    """Average n_t' and E_Z' over every possible 0-to-1 pairing."""
    zeros = np.flatnonzero(bob == 0)
    ones = np.flatnonzero(bob == 1)
    k = min(zeros.size, ones.size)
    survivors, errors, total = [], [], 0
    minority, majority = (zeros, ones) if zeros.size <= ones.size else (ones, zeros)
    for choice in itertools.permutations(majority, k):
        pairs = np.column_stack([minority, np.array(choice)])
        if bob[pairs[0, 0]] == 1:  # keep (zero, one) column order
            pairs = pairs[:, ::-1]
        out = aopp_sift(alice, bob, pairs)
        survivors.append(out.n_t_prime)
        errors.append(out.e_z_prime * out.n_t_prime)
        total += 1
    return np.mean(survivors), np.sum(errors) / max(np.sum(survivors), 1)


def sns_tally(alice: np.ndarray, bob: np.ndarray) -> ZBitTally:
    n0 = int(np.sum(bob == 0))
    n1 = int(np.sum(bob == 1))
    err0 = int(np.sum((bob == 0) & (alice != bob)))
    err1 = int(np.sum((bob == 1) & (alice != bob)))
    return ZBitTally(n0=n0, n1=n1, err0=err0, err1=err1)


class TestEnumerationOracle:
    @settings(max_examples=40)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)),
                    min_size=4, max_size=9))
    def test_estimator_matches_exhaustive_average(self, pattern):
        alice = np.array([a for a, _ in pattern], dtype=np.uint8)
        bob = np.array([b for _, b in pattern], dtype=np.uint8)
        n_ones = int(bob.sum())
        n_zeros = bob.size - n_ones
        if min(n_ones, n_zeros) == 0 or max(n_ones, n_zeros) > 6:
            return
        exp_surv, exp_err_rate = brute_force_expectation(alice, bob)
        est = aopp_estimate(sns_tally(alice, bob), 0.0, 0.0, 0.0)
        assert est.n_t_prime == pytest.approx(exp_surv, abs=1e-9)
        assert est.e_z_prime == pytest.approx(exp_err_rate, abs=1e-9)

    def test_exhaustive_worked_example(self):
        alice = bits("10110100")
        bob = bits("10010110")
        exp_surv, exp_err = brute_force_expectation(alice, bob)
        est = aopp_estimate(sns_tally(alice, bob), 0.0, 0.0, 0.0)
        assert est.n_t_prime == pytest.approx(exp_surv, abs=1e-9)
        assert est.e_z_prime == pytest.approx(exp_err, abs=1e-9)


class TestAggregateVsBitLevel:
    def test_field_mix_at_1e5_bits(self):
        alice, bob = synthetic_sns_keys(100_000, seed=5)
        pairs = aopp_pair(bob, seed=6)
        bit_level = aopp_sift(alice, bob, pairs)
        est = aopp_estimate(sns_tally(alice, bob), 0.0, 0.0, 0.0)
        assert abs(est.e_z_prime - bit_level.e_z_prime) < 0.005
        assert abs(est.n_t_prime - bit_level.n_t_prime) / bit_level.n_t_prime < 0.02

    def test_error_free(self):
        tally = ZBitTally(n0=600, n1=400, err0=0, err1=0)
        est = aopp_estimate(tally, 0.0, 0.0, 0.0)
        assert est.e_z_prime == 0.0
        assert est.n_t_prime == 400  # all pairs odd parity

    def test_degenerate_all_zero_key(self):
        est = aopp_estimate(ZBitTally(n0=100, n1=0, err0=0, err1=0),
                            10.0, 10.0, 0.01)
        assert est.n_t_prime == 0.0
        assert est.n1_prime == 0.0

    @given(st.integers(1, 10**6), st.integers(1, 10**6),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_n1_prime_never_exceeds_n1(self, n01, n10, f0, f1):
        n0 = max(int(n01 / max(f0, 1e-6)), n01)
        n1 = max(int(n10 / max(f1, 1e-6)), n10)
        est = aopp_estimate(ZBitTally(n0=n0, n1=n1, err0=0, err1=0),
                            n01, n10, 0.0)
        assert est.n1_prime <= n01 + n10

    def test_error_rate_never_increases_statistically(self):
        # Independent symmetric bit flips below 50%: pairing suppresses the
        # error rate on average.
        rng = np.random.default_rng(12)
        for e in (0.05, 0.2, 0.4):
            improved = 0
            for seed in range(10):
                bob = rng.integers(0, 2, 10_000).astype(np.uint8)
                flips = rng.random(10_000) < e
                alice = bob ^ flips
                out = aopp_sift(alice, bob, aopp_pair(bob, seed))
                if out.e_z_prime <= e:
                    improved += 1
            assert improved >= 9


class TestPhaseErrorDoubling:
    def test_endpoints(self):
        assert pair_phase_error_rate(0.0) == 0.0
        assert pair_phase_error_rate(0.5) == 0.5

    def test_value(self):
        assert pair_phase_error_rate(0.1) == pytest.approx(0.18)

    def test_domain(self):
        with pytest.raises(ValueError):
            pair_phase_error_rate(0.6)


class TestRawKeyPair:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            RawKeyPair(bits("010"), bits("01"))

    def test_error_rate(self):
        rk = RawKeyPair(bits("0101"), bits("0111"))
        assert rk.error_rate() == 0.25
