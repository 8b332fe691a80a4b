"""Edge generators, conditional expectations, graph generators on M_n,
gradient-estimate checker."""

import numpy as np
import pytest

from clsibound import lindblad
from clsibound.batteries import random_hermitian as rand_hermitian
from clsibound.batteries import random_state as rand_state
from clsibound.exceptions import PositivityError
from clsibound.graphs import make_graph
from clsibound.lindblad import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    compose_pinchings,
    depolarizing,
    diagonal_expectation,
    edge_expectation,
    edge_generator,
    fixed_point_dim,
    gradient_estimate_check,
    graph_lindblad,
    integer_spectrum_lindblad,
    pauli_system,
    sign_flip_average,
    trace_expectation,
)
from clsibound.spectral import spectral_gap, unvec, vec


class TestEdgeGenerator:
    def test_displayed_matrix(self):
        e = edge_generator((0, 1), 3)
        np.testing.assert_array_equal(
            e.antisymmetric, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])

    def test_square_is_diagonal_pattern(self):
        e = edge_generator((1, 3), 5)
        sq = e.hermitian @ e.hermitian
        np.testing.assert_allclose(sq, np.diag([0, 1, 0, 1, 0]), atol=1e-14)

    def test_two_level_spectrum(self):
        e = edge_generator((0, 1), 2)
        np.testing.assert_allclose(np.linalg.eigvalsh(e.hermitian), [-1, 1], atol=1e-14)

    def test_range_check(self):
        with pytest.raises(ValueError):
            edge_generator((1, 1), 3)
        with pytest.raises(ValueError):
            edge_generator((0, 3), 3)


class TestGraphLindblad:
    def test_single_edge_spectrum(self):
        # x_e^2 = 1 on M_2, so L = 2(id - x_e . x_e): rates {0,0,4,4}
        s = graph_lindblad(make_graph(2, [(0, 1)]))
        np.testing.assert_allclose(s.eigenvalues, [0, 0, 4, 4], atol=1e-12)

    def test_triangle_kernel_dim(self):
        s = graph_lindblad(make_graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert fixed_point_dim(s).dim == 1

    def test_diagonal_restriction_is_graph_laplacian(self):
        from clsibound.graphs import graph_laplacian
        rng = np.random.default_rng(0)
        g = make_graph(4, [(0, 1, 1.5), (1, 2, 1.0), (2, 3, 0.5), (0, 3, 2.0)])
        s = graph_lindblad(g)
        a = graph_laplacian(g)
        for _ in range(5):
            f = rng.normal(size=4)
            out = s.apply(np.diag(f).astype(complex))
            np.testing.assert_allclose(out, np.diag(a @ f), atol=1e-12)

    def test_edge_weights_scale_rates(self):
        s = graph_lindblad(make_graph(2, [(0, 1, 2.5)]))
        np.testing.assert_allclose(s.eigenvalues, [0, 0, 10, 10], atol=1e-12)


class TestConditionalExpectations:
    def test_edge_mask_entries(self):
        e = edge_expectation((0, 1), 3)
        expected = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], dtype=float)
        np.testing.assert_array_equal(e.mask, expected)

    def test_diagonal_fixed(self):
        e = edge_expectation((0, 1), 3)
        d = np.diag([1.0, 2.0, 3.0]).astype(complex)
        np.testing.assert_array_equal(e(d), d)

    def test_idempotence(self):
        rng = np.random.default_rng(1)
        e = edge_expectation((1, 2), 4)
        rho = rand_state(rng, 4)
        np.testing.assert_allclose(e(e(rho)), e(rho), atol=1e-14)

    def test_edge_product_is_diagonal(self):
        n, edges = 4, [(0, 1), (1, 2), (2, 3), (0, 3)]
        product = compose_pinchings([edge_expectation(e, n) for e in edges])
        np.testing.assert_array_equal(product.mask, np.eye(n))

    def test_masks_commute(self):
        e1 = edge_expectation((0, 1), 4)
        e2 = edge_expectation((1, 3), 4)
        rng = np.random.default_rng(2)
        rho = rand_state(rng, 4)
        np.testing.assert_allclose(e1(e2(rho)), e2(e1(rho)), atol=1e-15)

    def test_trace_expectation(self):
        rng = np.random.default_rng(3)
        e = trace_expectation(3)
        rho = rand_state(rng, 3)
        np.testing.assert_allclose(e(rho), np.trace(rho) / 3 * np.eye(3), atol=1e-12)

    def test_superop_matrix_agrees_with_call(self):
        rng = np.random.default_rng(4)
        for e in (edge_expectation((0, 2), 3), diagonal_expectation(3),
                  trace_expectation(3)):
            rho = rand_state(rng, 3)
            via_matrix = unvec(e.superop_matrix() @ vec(rho), 3)
            np.testing.assert_allclose(via_matrix, e(rho), atol=1e-12)


class TestSignFlip:
    def test_diagonal_unchanged(self):
        d = np.diag([1.0, 2.0, 3.0]).astype(complex)
        np.testing.assert_array_equal(sign_flip_average(0, d), d)

    def test_composition_equals_diagonal(self):
        rng = np.random.default_rng(5)
        rho = rand_state(rng, 4)
        out = rho.copy()
        for i in range(3):
            out = sign_flip_average(i, out)
        np.testing.assert_allclose(out, np.diag(np.diag(rho)), atol=1e-12)

    def test_single_application_zeroes_row_column(self):
        rho = np.ones((4, 4), dtype=complex)
        out = sign_flip_average(2, rho)
        assert np.all(out[2, [0, 1, 3]] == 0) and np.all(out[[0, 1, 3], 2] == 0)
        assert out[2, 2] == 1

    def test_matches_unitary_average(self):
        rng = np.random.default_rng(6)
        rho = rand_state(rng, 3)
        u = np.diag([1.0, -1.0, 1.0]).astype(complex)
        np.testing.assert_allclose(sign_flip_average(1, rho),
                                   0.5 * (u.conj().T @ rho @ u + rho), atol=1e-14)

    def test_index_range(self):
        with pytest.raises(ValueError):
            sign_flip_average(3, np.eye(4, dtype=complex))


class TestFixedPointDim:
    def test_triangle(self):
        s = graph_lindblad(make_graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert fixed_point_dim(s).dim == 1

    def test_single_edge_anomaly(self):
        # n=2: commutant of the single generator is 2-dimensional
        data = fixed_point_dim(graph_lindblad(make_graph(2, [(0, 1)])))
        assert data.dim == 2

    def test_pauli(self):
        assert fixed_point_dim(pauli_system()).dim == 1

    def test_disconnected(self):
        s = graph_lindblad(make_graph(4, [(0, 1), (2, 3)]))
        assert fixed_point_dim(s).dim >= 2

    def test_projection_fixes_kernel(self):
        rng = np.random.default_rng(7)
        s = graph_lindblad(make_graph(2, [(0, 1)]))
        data = fixed_point_dim(s)
        rho = rand_state(rng, 2)
        fixed = data.expectation(rho)
        np.testing.assert_allclose(s.apply(fixed), 0.0 * fixed, atol=1e-10)
        np.testing.assert_allclose(data.expectation(fixed), fixed, atol=1e-12)


class TestWorkedSystems:
    def test_pauli_action(self):
        s = pauli_system()
        np.testing.assert_allclose(s.apply(PAULI_Z), 2 * PAULI_Z, atol=1e-12)
        np.testing.assert_allclose(s.apply(np.eye(2)), 0 * PAULI_Z, atol=1e-12)
        assert spectral_gap(s) == pytest.approx(1.0)

    def test_depolarizing(self):
        s = depolarizing(3)
        np.testing.assert_allclose(s.apply(np.eye(3)), np.zeros((3, 3)), atol=1e-12)
        traceless = np.diag([1.0, -1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(s.apply(traceless), traceless, atol=1e-12)
        for n in (2, 3, 4):
            assert spectral_gap(depolarizing(n)) == pytest.approx(1.0)

    def test_integer_spectrum_rates(self):
        s = integer_spectrum_lindblad(np.diag([0.0, 1.0]).astype(complex))
        np.testing.assert_allclose(s.eigenvalues, [0, 0, 1, 1], atol=1e-12)
        s3 = integer_spectrum_lindblad(np.diag([0.0, 1.0, 2.0]).astype(complex))
        assert sorted(set(np.round(s3.eigenvalues).astype(int))) == [0, 1, 4]
        certify = next(row for row in lindblad.TARGETS if row[0].startswith("intspec:"))[3]
        assert certify("intspec:0,1") == pytest.approx(1.0 / (5.0 * np.pi ** 2))

    def test_integer_spectrum_rejects(self):
        with pytest.raises(ValueError, match="integers"):
            integer_spectrum_lindblad(np.diag([0.0, 1.3]).astype(complex))


class TestGradientEstimate:
    def test_time_zero_equality(self):
        rng = np.random.default_rng(9)
        rho = rand_state(rng, 2)
        a = rand_hermitian(rng, 2)
        report = gradient_estimate_check([PAULI_X / 2, PAULI_Y / 2], 1.0, rho, a, [0.0])
        assert abs(report.residuals[0]) < 1e-12

    def test_pauli_curvature_one(self):
        rng = np.random.default_rng(10)
        for _ in range(3):
            rho = rand_state(rng, 2)
            a = rand_hermitian(rng, 2)
            report = gradient_estimate_check(
                [PAULI_X / 2, PAULI_Y / 2], 1.0, rho, a, [0.1, 0.5, 1.0])
            assert report.passed
            assert report.worst <= 1e-9

    def test_inflated_curvature_rejected(self):
        rng = np.random.default_rng(11)
        violated = False
        for _ in range(5):
            rho = rand_state(rng, 2)
            a = rand_hermitian(rng, 2)
            report = gradient_estimate_check(
                [PAULI_X / 2, PAULI_Y / 2], 5.0, rho, a, [0.1, 0.5, 1.0])
            violated |= not report.passed
        assert violated

    def test_state_at_positivity_floor_rejected(self):
        rho = np.diag([2.0 - 1e-13, 1e-13]).astype(complex)
        with pytest.raises(PositivityError, match="gradient check rho"):
            gradient_estimate_check([PAULI_X / 2, PAULI_Y / 2], 1.0, rho, PAULI_Z, [0.1])
