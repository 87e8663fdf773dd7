import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardy_spectral import cholesky_solve, jacobi_eigen, laplacian
from hardy_spectral import errors
from hardy_spectral.rng import Xorshift64Star

from conftest import corpus_graph, edge_energy, random_vector

GOLDEN_RATIO_EIGS = ((3 - 5 ** 0.5) / 2, (3 + 5 ** 0.5) / 2)


class TestCholesky:
    def test_identity(self):
        x = cholesky_solve(np.eye(2), np.array([3.0, -2.0]))
        assert x == pytest.approx([3.0, -2.0])

    def test_two_by_two(self):
        # 4*1.25 + 2*1.5 = 8 and 2*1.25 + 3*1.5 = 7
        x = cholesky_solve(np.array([[4.0, 2.0], [2.0, 3.0]]), np.array([8.0, 7.0]))
        assert x == pytest.approx([1.25, 1.5], rel=1e-14)

    def test_indefinite_reports_pivot(self):
        with pytest.raises(errors.NotPositiveDefinite):
            cholesky_solve(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2))

    def test_asymmetric_rejected(self):
        with pytest.raises(errors.NotSymmetric):
            cholesky_solve(np.array([[1.0, 2.0], [2.0000001, 1.0]]), np.zeros(2))

    def test_rhs_shape(self):
        with pytest.raises(errors.DimensionMismatch):
            cholesky_solve(np.eye(2), np.zeros(3))

    def test_residual_bound_on_random_spd(self):
        # 1000 instances of G^T G + n*eps*I across sizes 1..8
        rng = np.random.default_rng(12345)
        eps = np.finfo(float).eps
        for trial in range(1000):
            n = 1 + trial % 8
            g = rng.standard_normal((n, n))
            a = g.T @ g + n * eps * np.eye(n)
            a = (a + a.T) / 2.0
            b = rng.standard_normal(n)
            x = cholesky_solve(a, b)
            residual = np.linalg.norm(a @ x - b)
            bound = 1e-10 * (np.linalg.norm(a, "fro") * np.linalg.norm(x)
                             + np.linalg.norm(b))
            assert residual <= bound


class TestJacobi:
    def test_identity_spectrum(self):
        dec = jacobi_eigen(np.eye(3))
        assert dec.eigenvalues == pytest.approx([1.0, 1.0, 1.0])

    def test_classic_two_by_two(self):
        dec = jacobi_eigen(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        assert dec.eigenvalues == pytest.approx([1.0, 3.0], rel=1e-12)

    def test_golden_ratio_eigenvalues(self):
        # roots of x^2 - 3x + 1, cross-checked against the closed form
        dec = jacobi_eigen(np.array([[2.0, -1.0], [-1.0, 1.0]]))
        assert dec.eigenvalues == pytest.approx(GOLDEN_RATIO_EIGS, rel=1e-12)
        poly = dec.eigenvalues ** 2 - 3 * dec.eigenvalues + 1
        assert poly == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_matches_numpy_on_random_symmetric(self):
        rng = np.random.default_rng(7)
        for n in range(1, 17):
            a = rng.standard_normal((n, n))
            a = a + a.T
            dec = jacobi_eigen(a)
            assert dec.eigenvalues == pytest.approx(np.linalg.eigvalsh(a), rel=1e-9,
                                                    abs=1e-9)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(99)
        for trial in range(40):
            n = 2 + trial % 15
            a = rng.standard_normal((n, n))
            a = a + a.T
            dec = jacobi_eigen(a)
            q, lam = dec.eigenvectors, dec.eigenvalues
            assert np.all(np.diff(lam) >= 0)
            norm_a = np.linalg.norm(a, "fro")
            assert np.linalg.norm(q @ np.diag(lam) @ q.T - a, "fro") <= 1e-9 * norm_a
            assert np.linalg.norm(q.T @ q - np.eye(n)) <= 1e-10

    def test_asymmetric_rejected(self):
        with pytest.raises(errors.NotSymmetric):
            jacobi_eigen(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_stack_decomposes_each_matrix_as_alone(self):
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            a = rng.standard_normal((5, n, n))
            a = a + a.swapaxes(1, 2)
            dec = jacobi_eigen(a)
            for i in range(5):
                alone = jacobi_eigen(a[i])
                assert np.array_equal(dec.eigenvalues[i], alone.eigenvalues)
                assert np.array_equal(dec.eigenvectors[i], alone.eigenvectors)
        a[2, 0, -1] += 1.0
        with pytest.raises(errors.NotSymmetric):
            jacobi_eigen(a)
        with pytest.raises(errors.DimensionMismatch):
            jacobi_eigen(np.zeros((2, 3, 4)))


class TestQuadraticForm:
    def test_constant_vector_in_laplacian_kernel(self, triangle):
        lap = laplacian(triangle)
        x = np.ones(3)
        assert x @ lap @ x == 0.0

    def test_single_edge(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        x = np.array([0.0, 1.0])
        assert x @ lap @ x == 1.0

    def test_path_energy(self, p3):
        lap = laplacian(p3)
        x = np.array([0.0, 1.0, 3.0])
        assert x @ lap @ x == pytest.approx(5.0)

    def test_matches_edge_sum_on_random_graphs(self):
        rng = Xorshift64Star(3)
        for i in range(30):
            g = corpus_graph(i)
            x = random_vector(rng, g.vertex_count)
            lap = laplacian(g)
            assert x @ lap @ x == pytest.approx(
                edge_energy(g, x), rel=1e-12, abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(xs=st.lists(st.floats(min_value=-100, max_value=100),
                       min_size=3, max_size=3),
           kappas=st.lists(st.floats(min_value=0.01, max_value=100),
                           min_size=3, max_size=3))
    def test_edge_sum_agreement_is_weight_independent(self, xs, kappas):
        from hardy_spectral import WeightedGraph
        g = WeightedGraph((1.0, 1.0, 1.0),
                          ((0, 1, kappas[0]), (0, 2, kappas[1]), (1, 2, kappas[2])))
        lap = laplacian(g)
        x = np.array(xs)
        assert x @ lap @ x == pytest.approx(
            edge_energy(g, x), rel=1e-12, abs=1e-9)
