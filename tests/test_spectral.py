"""Spectral engine: eigencalculus, DOI kernels, quadrature oracles,
superoperators."""

import numpy as np
import pytest

from clsibound import spectral
from clsibound.exceptions import NonHermitianError, PositivityError
from clsibound.spectral import (
    ScalarKernel,
    doi_apply,
    eig_hermitian,
    gibbs_state,
    matrix_function,
    matrix_log,
    quadrature_oracle_resolvent,
    quadrature_oracle_tilt,
    semigroup_apply,
    spectral_gap,
    superop_from_generators,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
Z = np.diag([1.0, -1.0]).astype(complex)


def rand_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def rand_positive(rng, n, lo=0.3, hi=3.0):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(a)
    return (q * rng.uniform(lo, hi, size=n)) @ q.conj().T


class TestEigHermitian:
    def test_diagonal_input(self):
        dec = eig_hermitian(np.diag([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1, 2, 3])
        np.testing.assert_allclose(np.abs(dec.eigenvectors), np.eye(3), atol=1e-12)

    def test_pauli_x_spectrum(self):
        dec = eig_hermitian(X)
        np.testing.assert_allclose(dec.eigenvalues, [-1, 1])

    def test_reconstruction(self):
        rng = np.random.default_rng(0)
        h = rand_hermitian(rng, 4)
        dec = eig_hermitian(h)
        assert np.abs(dec.reconstruct() - h).max() < 1e-10
        u = dec.eigenvectors
        assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGibbsState:
    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_positive_state_of_trace_n(self, n):
        rho = gibbs_state(rand_hermitian(np.random.default_rng(n), n))
        assert np.trace(rho).real == pytest.approx(n, rel=1e-13)
        assert np.linalg.eigvalsh(rho).min() > 0
        assert np.abs(rho - rho.conj().T).max() < 1e-14

    def test_invariant_under_identity_shift(self):
        h = rand_hermitian(np.random.default_rng(4), 4)
        np.testing.assert_allclose(gibbs_state(h + 3.7 * np.eye(4)), gibbs_state(h),
                                   rtol=0, atol=1e-13)

    def test_exponential_of_diagonal(self):
        rho = gibbs_state(np.diag([0.0, np.log(3.0)]))
        np.testing.assert_allclose(rho, np.diag([0.5, 1.5]), atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            gibbs_state(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestMatrixFunction:
    def test_log_of_diagonal(self):
        out = matrix_log(np.diag([1.0, np.e]))
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_identity_function(self):
        rng = np.random.default_rng(1)
        h = rand_hermitian(rng, 3)
        np.testing.assert_allclose(matrix_function(h, lambda w: w), h, atol=1e-12)

    def test_square_matches_product(self):
        rng = np.random.default_rng(2)
        rho = rand_positive(rng, 4)
        np.testing.assert_allclose(matrix_function(rho, lambda w: w ** 2),
                                   rho @ rho, atol=1e-10)

    def test_positivity_floor_reports_eigenvalue(self):
        with pytest.raises(PositivityError, match="eigenvalue"):
            matrix_log(np.diag([1.0, 0.0]))


class TestDoiApply:
    def test_identity_state_log_kernel(self):
        rng = np.random.default_rng(3)
        t = rand_hermitian(rng, 3)
        eye = np.eye(3, dtype=complex)
        out = doi_apply(eye, eye, ScalarKernel.log_quotient(), t)
        np.testing.assert_allclose(out, t, atol=1e-12)

    def test_commutator_functional_calculus(self):
        # delta(ln rho) = Q^rho(delta rho) for delta = [X, .]
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 5):
            rho = rand_positive(rng, n)
            x = rand_hermitian(rng, n)
            lhs = x @ matrix_log(rho) - matrix_log(rho) @ x
            rhs = doi_apply(rho, rho, ScalarKernel.log_quotient(), x @ rho - rho @ x)
            assert np.abs(lhs - rhs).max() < 1e-10

    def test_tilt_two_by_two(self):
        rho = np.diag([1.0, np.e]).astype(complex)
        out = doi_apply(rho, rho, ScalarKernel.tilt(), X)
        assert abs(out[0, 1] - (np.e - 1.0)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            doi_apply(np.eye(2), np.eye(3), ScalarKernel.tilt(), np.eye(2))

    def test_custom_kernel(self):
        constant = ScalarKernel.custom(lambda x, y: 1.0)
        rng = np.random.default_rng(5)
        rho = rand_positive(rng, 3)
        t = rand_hermitian(rng, 3)
        np.testing.assert_allclose(doi_apply(rho, rho, constant, t), t, atol=1e-12)

    def test_power_quotient_diagonal_limit(self):
        k = ScalarKernel.power_quotient(1.5)
        m = k.matrix(np.array([2.0, 2.0 + 1e-12]), np.array([2.0]))
        np.testing.assert_allclose(m[:, 0], 0.5 * 2.0 ** -0.5, rtol=1e-9)


class TestQuadratureOracles:
    def test_resolvent_identity(self):
        eye = np.eye(2, dtype=complex)
        np.testing.assert_allclose(quadrature_oracle_resolvent(eye, eye, 32),
                                   eye, atol=1e-8)

    def test_resolvent_closed_form(self):
        rho = np.diag([1.0, 4.0]).astype(complex)
        out = quadrature_oracle_resolvent(rho, X, 64)
        assert abs(out[0, 1] - np.log(4.0) / 3.0) < 1e-8

    def test_resolvent_matches_kernel(self):
        rng = np.random.default_rng(6)
        rho = rand_positive(rng, 3)
        t = rand_hermitian(rng, 3)
        direct = doi_apply(rho, rho, ScalarKernel.log_quotient(), t)
        assert np.abs(quadrature_oracle_resolvent(rho, t, 64) - direct).max() < 1e-6

    def test_tilt_identity_state(self):
        eye = np.eye(2, dtype=complex)
        np.testing.assert_allclose(quadrature_oracle_tilt(eye, X, 32), X, atol=1e-8)

    def test_tilt_matches_kernel(self):
        rng = np.random.default_rng(7)
        rho = rand_positive(rng, 3)
        t = rand_hermitian(rng, 3)
        direct = doi_apply(rho, rho, ScalarKernel.tilt(), t)
        assert np.abs(quadrature_oracle_tilt(rho, t, 64) - direct).max() < 1e-6

    def test_tilt_diagonal_scaling(self):
        rho = np.diag([0.5, 2.0]).astype(complex)
        out = quadrature_oracle_tilt(rho, X, 64)
        expected = (0.5 - 2.0) / (np.log(0.5) - np.log(2.0))
        assert abs(out[0, 1] - expected) < 1e-8


class TestSuperoperator:
    def test_single_z_generator_rates(self):
        s = superop_from_generators([Z / 2])
        np.testing.assert_allclose(s.eigenvalues, [0, 0, 1, 1], atol=1e-12)

    def test_pauli_pair_rates(self):
        s = superop_from_generators([X / 2, Y / 2])
        np.testing.assert_allclose(s.eigenvalues, [0, 1, 1, 2], atol=1e-12)
        np.testing.assert_allclose(s.apply(X), X, atol=1e-12)
        np.testing.assert_allclose(s.apply(Z), 2 * Z, atol=1e-12)

    def test_empty_generator_list(self):
        s = superop_from_generators([], dim=3)
        assert np.abs(s.matrix).max() == 0.0

    def test_self_adjoint_and_unital(self):
        rng = np.random.default_rng(8)
        s = superop_from_generators([rand_hermitian(rng, 3) for _ in range(2)])
        assert np.abs(s.matrix - s.matrix.conj().T).max() < 1e-10
        assert np.abs(s.matrix @ spectral.vec(np.eye(3))).max() < 1e-10
        assert s.eigenvalues[0] > -1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            superop_from_generators([np.eye(2), np.eye(3)])


class TestSemigroup:
    def test_time_zero(self):
        rng = np.random.default_rng(9)
        s = superop_from_generators([X / 2, Y / 2])
        rho = rand_positive(rng, 2)
        np.testing.assert_allclose(semigroup_apply(s, 0.0, rho), rho, atol=1e-12)

    def test_pauli_x_decay(self):
        s = superop_from_generators([X / 2, Y / 2])
        np.testing.assert_allclose(semigroup_apply(s, 1.0, X),
                                   np.exp(-1.0) * X, atol=1e-12)

    def test_long_time_kernel_projection(self):
        rng = np.random.default_rng(10)
        s = superop_from_generators([X / 2, Y / 2])
        rho = rand_positive(rng, 2)
        limit = semigroup_apply(s, 50.0, rho)
        projected = np.trace(rho) / 2.0 * np.eye(2)
        assert np.abs(limit - projected).max() < 1e-8

    def test_trace_and_positivity(self):
        rng = np.random.default_rng(11)
        s = superop_from_generators([rand_hermitian(rng, 3)])
        rho = rand_positive(rng, 3)
        for t in (0.1, 1.0, 10.0):
            out = semigroup_apply(s, t, rho)
            assert abs(np.trace(out).real - np.trace(rho).real) < 1e-10
            assert np.linalg.eigvalsh(out).min() > -1e-10

    def test_negative_time_rejected(self):
        s = superop_from_generators([X / 2])
        with pytest.raises(ValueError):
            semigroup_apply(s, -0.1, np.eye(2))


class TestSpectralGap:
    def test_pauli(self):
        assert spectral_gap(superop_from_generators([X / 2, Y / 2])) == pytest.approx(1.0)

    def test_projector_complement(self):
        eye = np.eye(4, dtype=complex)
        v = spectral.vec(np.eye(2, dtype=complex))
        s = spectral.SpectralSuperoperator.from_matrix(
            eye - np.outer(v, v.conj()) / 2.0, 2)
        assert spectral_gap(s) == pytest.approx(1.0)

    def test_cycle_laplacian(self):
        from clsibound.graphs import graph_laplacian, make_graph
        a = graph_laplacian(make_graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert spectral_gap(a) == pytest.approx(6.0, abs=1e-9)

    def test_degenerate_rejected(self):
        with pytest.raises(PositivityError):
            spectral_gap(np.zeros((3, 3)))


class TestTensorLift:
    def test_action_on_product_states(self):
        rng = np.random.default_rng(12)
        s = superop_from_generators([X / 2, Y / 2])
        lifted = spectral.tensor_with_identity(s.matrix, 2, 3)
        a = rand_hermitian(rng, 2)
        b = rand_hermitian(rng, 3)
        got = spectral.unvec(lifted @ spectral.vec(np.kron(a, b)), 6)
        expected = np.kron(s.apply(a), b)
        assert np.abs(got - expected).max() < 1e-12
