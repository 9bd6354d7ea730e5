import numpy as np
import pytest
import scipy.linalg as sla

from lqbundle.errors import NotLagrange, OddLength, Oscillating
from lqbundle.stationary import extract_nonoscillation
from lqbundle.symplectic import (
    LagrangeSubspace,
    Subspace,
    apply_J,
    grassmann_distance,
    intersection_dimension,
    isotropy_defect,
    vertical_subspace,
)


def graph_of_symmetric(p):
    """{(v, -P v)} for symmetric P; the nonoscillating normal form."""
    p = np.asarray(p, dtype=float)
    n = p.shape[0]
    return LagrangeSubspace(np.vstack([np.eye(n), -p]))


def horizontal_subspace(n):
    """H x {0}, the graph of P = 0."""
    return graph_of_symmetric(np.zeros((n, n)))


def graph_subspace(m, sharp: Subspace, flat: Subspace) -> Subspace:
    """The subspace {S c + F M c} that the graph matrix M over sharp (+) flat
    stands for, in their bases S and F."""
    return Subspace(sharp.basis + flat.basis @ m)


def random_lagrange(rng, n):
    """Graph of a random symmetric operator over the horizontal subspace."""
    p = rng.standard_normal((n, n))
    return graph_of_symmetric(0.5 * (p + p.T))


class TestApplyJ:
    def test_definition(self):
        np.testing.assert_allclose(apply_J(np.array([1.0, 0.0])), [0.0, 1.0])

    def test_square_is_minus_identity(self, rng):
        z = rng.standard_normal(8)
        np.testing.assert_allclose(apply_J(apply_J(z)), -z)

    def test_unitary(self, rng):
        z, w = rng.standard_normal((2, 6))
        assert apply_J(z) @ apply_J(w) == pytest.approx(z @ w)

    def test_odd_length(self):
        with pytest.raises(OddLength):
            apply_J(np.ones(3))


class TestIsotropyDefect:
    def test_horizontal_is_lagrange(self):
        assert isotropy_defect(horizontal_subspace(3)) == 0.0

    def test_full_plane_defect_one(self):
        sub = Subspace(np.eye(2))
        assert isotropy_defect(sub) == pytest.approx(1.0)

    def test_symmetric_graph(self, rng):
        lag = random_lagrange(rng, 4)
        assert isotropy_defect(lag) <= 1e-14


class TestGrassmannDistance:
    def test_identical(self):
        h = horizontal_subspace(2)
        assert grassmann_distance(h, h) == 0.0

    def test_horizontal_vertical(self):
        assert grassmann_distance(
            horizontal_subspace(1), vertical_subspace(1)
        ) == pytest.approx(1.0)

    def test_metric_axioms(self, rng):
        subs = [random_lagrange(rng, 3) for _ in range(3)]
        d01 = grassmann_distance(subs[0], subs[1])
        d10 = grassmann_distance(subs[1], subs[0])
        assert d01 == pytest.approx(d10)
        d02 = grassmann_distance(subs[0], subs[2])
        d12 = grassmann_distance(subs[1], subs[2])
        assert d02 <= d01 + d12 + 1e-12


class TestGraphOver:
    """The graph {(v, -P v)} over the horizontal subspace, as
    `extract_nonoscillation` reads it off an orthonormal basis."""

    def test_symmetric_graph_recovers_p(self, rng):
        p = rng.standard_normal((3, 3))
        p = 0.5 * (p + p.T)
        no = extract_nonoscillation(graph_of_symmetric(p))
        np.testing.assert_allclose(no.p, p, atol=1e-12)
        assert no.symmetry_defect <= 1e-12

    def test_vertical_is_not_a_graph(self):
        # one horizontal and one vertical direction: not a graph over H
        with pytest.raises(Oscillating):
            extract_nonoscillation(LagrangeSubspace(np.eye(4)[:, [0, 3]]))

    def test_round_trip(self, rng):
        for _ in range(10):
            lag = random_lagrange(rng, 4)
            p = extract_nonoscillation(lag).p
            assert grassmann_distance(graph_of_symmetric(p), lag) <= 1e-8


class TestIsLagrange:
    # the Lagrange test is the LagrangeSubspace constructor: isotropic and
    # of half dimension
    def test_horizontal(self):
        lag = LagrangeSubspace(horizontal_subspace(3).basis)
        assert isotropy_defect(lag) == 0.0

    def test_dimension_deficient(self):
        sub = Subspace(np.array([[1.0], [0.0], [0.0], [0.0]]))
        assert isotropy_defect(sub) == 0.0
        with pytest.raises(NotLagrange, match="need dimension 2"):
            LagrangeSubspace(sub.basis)


class TestIntersectionDimension:
    def test_self_intersection(self, rng):
        lag = random_lagrange(rng, 3)
        assert intersection_dimension(lag, lag) == 3

    def test_complementary(self):
        assert intersection_dimension(horizontal_subspace(2), vertical_subspace(2)) == 0

    def test_constructed_shared_subspace(self, rng):
        # two rotations of an ambient space sharing an exact k-dim subspace
        n, k = 7, 3
        shared = np.linalg.qr(rng.standard_normal((n, k)))[0]
        comp = sla.null_space(shared.T)
        s1 = Subspace(np.hstack([shared, comp[:, :2]]))
        s2 = Subspace(np.hstack([shared, comp[:, 2:4]]))
        assert intersection_dimension(s1, s2) == k

    def test_fredholm_two_routes(self, rng):
        # dim(L1 cap L2) by SVD rank agrees with codim(L1 + L2) by null space
        for _ in range(6):
            l1 = random_lagrange(rng, 3)
            l2 = random_lagrange(rng, 3)
            dim_cap = intersection_dimension(l1, l2)
            null = sla.null_space(np.hstack([l1.basis, l2.basis]).T, rcond=1e-8)
            # for Lagrange pairs the two indices agree (J maps the sum
            # complement onto the intersection)
            assert dim_cap == null.shape[1]


class TestLagrangeGeometry:
    def test_j_image_is_orthogonal_complement(self, rng):
        for n in (2, 4):
            lag = random_lagrange(rng, n)
            j_basis = apply_J(lag.basis)
            complement = sla.null_space(lag.basis.T)
            assert grassmann_distance(Subspace(j_basis), Subspace(complement)) <= 1e-8

    def test_continuity_equivalence(self, rng):
        # linear family of graphs: both moduli vanish together and stay
        # within 10x of the parameter step
        m0 = rng.standard_normal((3, 3))
        m0 = 0.5 * (m0 + m0.T)
        d = rng.standard_normal((3, 3))
        d = 0.5 * (d + d.T)
        d /= np.linalg.norm(d, 2)
        base = graph_of_symmetric(m0)
        for eps in (1e-3, 1e-5, 1e-7):
            moved = graph_of_symmetric(m0 + eps * d)
            dist = grassmann_distance(base, moved)
            assert dist <= 10.0 * eps
            assert dist >= eps / 10.0 / (1.0 + np.linalg.norm(m0, 2)) ** 2


class TestTypes:
    def test_lagrange_constructor_rejects_nonisotropic(self):
        with pytest.raises(NotLagrange):
            LagrangeSubspace(np.eye(2))

    def test_graph_operator_assemble(self, rng):
        p = rng.standard_normal((2, 2))
        p = 0.5 * (p + p.T)
        graph = graph_subspace(-p, horizontal_subspace(2), vertical_subspace(2))
        assert grassmann_distance(graph, graph_of_symmetric(p)) <= 1e-12
