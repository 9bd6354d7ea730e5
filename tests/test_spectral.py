import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatial_oracles import band_projectors
from lqbundle.errors import IndexOutOfRange, NoCandidate, NonPositiveEigenvalue, NotSorted
from lqbundle.spatial import SAConfig
from lqbundle.spectral import eigenvalue_generator, make_spectral_model


def bands(eigenvalues, k, n_split):
    """The (low, mid, high) mode indices of a (k, N) split, with Lambda and
    delta small enough for the config to exist."""
    cfg = SAConfig(make_spectral_model(eigenvalues), lam=0.5, delta=0.5, k=k, N=n_split)
    return [list(np.flatnonzero(np.diag(p))) for p in band_projectors(cfg)]


class TestMakeSpectralModel:
    def test_square_sequence(self):
        model = make_spectral_model([1, 4, 9, 16, 25])
        assert model.n == 5
        np.testing.assert_allclose(model.eigenvalues, [1, 4, 9, 16, 25])

    def test_single_mode(self):
        assert make_spectral_model([1]).n == 1

    def test_ordering_violation(self):
        with pytest.raises(NotSorted):
            make_spectral_model([4, 1])

    def test_nonpositive(self):
        with pytest.raises(NonPositiveEigenvalue):
            make_spectral_model([0.0, 1.0])

    def test_empty(self):
        with pytest.raises(NotSorted):
            make_spectral_model([])


class TestGenerators:
    def test_power(self):
        np.testing.assert_allclose(
            eigenvalue_generator("power", 5, p=2), [1, 4, 9, 16, 25]
        )

    def test_sum_of_squares_2d_against_enumeration(self):
        got = eigenvalue_generator("sum-of-squares-2d", 12)
        # brute-force oracle
        vals = sorted(
            m * m + l * l for m in range(30) for l in range(30) if m or l
        )
        np.testing.assert_allclose(got, vals[:12])
        assert got[0] == 1.0 and got[1] == 1.0 and got[2] == 2.0

    def test_unknown(self):
        with pytest.raises(IndexOutOfRange):
            eigenvalue_generator("cubes", 3)


class TestModeProjectors:
    """The spectral bands of a (k, N) split: the library's intermediate band
    `SAConfig.mid_mask`, between the low and high bands of the dense band
    projectors in tests/spatial_oracles.py."""

    def test_band_example_square(self):
        # gap (4, 9), k = 3: lower cut 1 (strict), upper cut 12 (strict)
        assert bands([1, 4, 9, 16, 25], k=3, n_split=2) == [[], [0, 1, 2], [3, 4]]

    def test_band_example_small(self):
        assert bands([1, 4, 9], k=1, n_split=2) == [[0], [1, 2], []]

    def test_out_of_range(self):
        # SAConfig's own k and N checks
        with pytest.raises(NoCandidate):
            bands([1, 4, 9], k=1, n_split=3)
        with pytest.raises(NoCandidate):
            bands([1, 4, 9], k=0, n_split=1)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(min_value=1, max_value=30), n=st.integers(min_value=1, max_value=7))
    def test_partition_of_unity(self, k, n):
        model = make_spectral_model([float(j * j) for j in range(1, 9)])
        projectors = band_projectors(SAConfig(model, lam=0.5, delta=0.5, k=k, N=n))
        total = sum(projectors)
        assert np.abs(total - np.eye(8)).max() <= 1e-12
        for p in projectors:
            assert np.abs(p @ p - p).max() <= 1e-12
            assert np.abs(p - p.T).max() <= 1e-12

    def test_high_band_spectral_bound(self, rng):
        model = make_spectral_model([float(j * j) for j in range(1, 11)])
        k, n_split = 3, 2
        _, _, q_high = band_projectors(SAConfig(model, lam=0.5, delta=0.5, k=k, N=n_split))
        a0 = np.diag(model.eigenvalues)
        lam_n = model.eigenvalues[n_split - 1]
        for _ in range(50):
            v = q_high @ rng.standard_normal(model.n)
            quad = v @ a0 @ v
            assert quad >= (lam_n + k) * (v @ v) - 1e-12

