import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mcassort.rounding import gkps_round_batch
from scalar_oracles import gkps_round


class TestDeterministicProperties:
    def test_integral_inputs_unchanged(self):
        out = gkps_round((1.0, 0.0, 1.0), seed=0)
        assert out.values == (1, 0, 1)

    def test_two_half_weights_exactly_one_up(self):
        rng = np.random.default_rng(0)
        Z = gkps_round_batch(np.tile([0.5, 0.5], (40_000, 1)), rng)
        totals = Z.sum(axis=1)
        assert (totals == 1).all()
        freq = Z[:, 0].mean()
        assert abs(freq - 0.5) < 4 * math.sqrt(0.25 / 40_000)

    def test_degree_preservation_every_path(self):
        rng = np.random.default_rng(1)
        for trial in range(30):
            N = int(rng.integers(1, 7))
            z = rng.uniform(0, 1, N)
            cap = math.ceil(z.sum() - 1e-12)
            Z = gkps_round_batch(np.tile(z, (2_000, 1)), rng)
            assert Z.sum(axis=1).max() <= max(cap, 0)

    def test_batch_accepts_array_like_rows(self):
        rows = [[0.5, 0.5], [0.3, 0.9]]
        got = gkps_round_batch(rows, np.random.default_rng(4))
        want = gkps_round_batch(np.array(rows), np.random.default_rng(4))
        np.testing.assert_array_equal(got, want)

    def test_weight_outside_range_rejected(self):
        with pytest.raises(ValueError):
            gkps_round((1.2, 0.5), seed=0)
        with pytest.raises(ValueError):
            gkps_round((-0.1,), seed=0)


class TestStatisticalProperties:
    def test_marginals_three_entries(self):
        z = np.array([0.3, 0.3, 0.4])
        rng = np.random.default_rng(2)
        R = 200_000
        Z = gkps_round_batch(np.tile(z, (R, 1)), rng)
        freq = Z.mean(axis=0)
        sigma = np.sqrt(z * (1 - z) / R)
        assert (np.abs(freq - z) <= 4 * sigma).all()
        assert Z.sum(axis=1).max() <= 1  # ceil(1.0)

    def test_marginals_scalar_path(self):
        z = (0.2, 0.7, 0.45, 0.1)
        R = 20_000
        counts = np.zeros(4)
        for k in range(R):
            counts += gkps_round(z, seed=k).values
        freq = counts / R
        sigma = np.sqrt(np.array(z) * (1 - np.array(z)) / R)
        assert (np.abs(freq - np.array(z)) <= 5 * sigma).all()

    def test_pairwise_negative_correlation_both_values(self):
        rng = np.random.default_rng(3)
        R = 100_000
        for trial in range(8):
            N = int(rng.integers(2, 7))
            z = rng.uniform(0.05, 0.95, N)
            Z = gkps_round_batch(np.tile(z, (R, 1)), rng)
            for b in (0, 1):
                E = Z if b == 1 else ~Z
                marg = E.mean(axis=0)
                for i in range(N):
                    for j in range(i + 1, N):
                        joint = (E[:, i] & E[:, j]).mean()
                        bound = marg[i] * marg[j]
                        slack = 4 * math.sqrt(0.25 / R)
                        assert joint <= bound + slack, (trial, b, i, j)

    def test_triple_negative_correlation(self):
        rng = np.random.default_rng(4)
        R = 100_000
        z = np.array([0.4, 0.5, 0.6, 0.3])
        Z = gkps_round_batch(np.tile(z, (R, 1)), rng)
        for b in (0, 1):
            E = Z if b == 1 else ~Z
            marg = E.mean(axis=0)
            joint = (E[:, 0] & E[:, 1] & E[:, 2]).mean()
            assert joint <= marg[0] * marg[1] * marg[2] + 4 * math.sqrt(0.25 / R)

    def test_scalar_and_batch_agree_in_distribution(self):
        z = (0.25, 0.6, 0.35)
        R = 30_000
        scalar = np.zeros(3)
        for k in range(R):
            scalar += gkps_round(z, seed=k).values
        rng = np.random.default_rng(5)
        batch = gkps_round_batch(np.tile(z, (R, 1)), rng).mean(axis=0)
        assert np.abs(scalar / R - batch).max() < 5 * math.sqrt(0.25 / R) * 2


# arbitrary weights in [0,1], with exact 0s and 1s and values next to the snap
# tolerance mixed in
_weights = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0, 0.5, 1e-13, 1.0 - 1e-13]), st.floats(0.0, 1.0)),
    max_size=8,
)


def _check_rounding(z, Z):
    assert set(np.unique(Z)) <= {0, 1}
    for i, w in enumerate(z):
        if w in (0.0, 1.0):
            assert (Z[..., i] == w).all()
    assert Z.sum(axis=-1).max(initial=0) <= math.ceil(math.fsum(z))


class TestArbitraryWeights:
    @settings(max_examples=60, deadline=None)
    @given(_weights, st.integers(0, 2**32 - 1))
    def test_gkps_round(self, z, seed):
        _check_rounding(z, np.array(gkps_round(z, seed=seed).values, dtype=int))

    @settings(max_examples=60, deadline=None)
    @given(_weights, st.integers(0, 2**32 - 1))
    def test_gkps_round_batch(self, z, seed):
        rows = np.tile(np.array(z, dtype=float), (50, 1)).reshape(50, len(z))
        Z = gkps_round_batch(rows, np.random.default_rng(seed))
        assert Z.shape == rows.shape
        _check_rounding(z, Z.astype(int))
