"""Entropy and Fisher functionals against hand-evaluated oracles."""

import dataclasses

import numpy as np
import pytest

from clsibound import entropy, lindblad
from clsibound.batteries import random_hermitian as rand_hermitian
from clsibound.batteries import random_state as rand_state
from clsibound.exceptions import ConsistencyError, PositivityError
from clsibound.graphs import make_graph
from clsibound.spectral import superop_from_generators

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


class TestRelEntropy:
    def test_equal_states(self):
        rng = np.random.default_rng(0)
        rho = rand_state(rng, 3)
        assert entropy.rel_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-12)

    def test_two_level_closed_form(self):
        rho = np.diag([1.5, 0.5]).astype(complex)
        expected = (1.5 * np.log(1.5) + 0.5 * np.log(0.5)) / 2.0
        result = entropy.rel_entropy(rho, np.eye(2, dtype=complex))
        assert result.finite
        assert result.value == pytest.approx(expected, abs=1e-12)

    def test_support_failure_is_flag(self):
        rho = np.diag([1.5, 0.5]).astype(complex)
        sigma = np.diag([2.0, 0.0]).astype(complex)
        result = entropy.rel_entropy(rho, sigma)
        assert not result.finite

    def test_trace_mismatch_allowed(self):
        # sigma is any positive matrix, not necessarily normalized
        rho = np.diag([1.5, 0.5]).astype(complex)
        sigma = 2.0 * np.eye(2, dtype=complex)
        expected = (1.5 * np.log(1.5) + 0.5 * np.log(0.5)) / 2.0 - np.log(2.0)
        assert entropy.rel_entropy(rho, sigma).value == pytest.approx(expected, abs=1e-12)


class TestLindbladRelEntropy:
    def test_equal(self):
        rng = np.random.default_rng(1)
        rho = rand_state(rng, 3)
        assert entropy.lindblad_rel_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_pair(self):
        value = entropy.lindblad_rel_entropy(2 * np.eye(2, dtype=complex),
                                             np.eye(2, dtype=complex))
        assert value == pytest.approx(2.0 * np.log(2.0) - 1.0, abs=1e-12)

    def test_nonnegative_random(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            value = entropy.lindblad_rel_entropy(rand_state(rng, n), rand_state(rng, n))
            assert value >= -1e-12


class TestEntropyToExpectation:
    def test_diagonal_state_pinching(self):
        e = lindblad.diagonal_expectation(2)
        rho = np.diag([1.5, 0.5]).astype(complex)
        assert entropy.entropy_to_expectation(rho, e) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_closed_form(self):
        # rho = 1 + X/2: eigenvalues (1.5, 0.5), diagonal part = identity
        rho = np.eye(2, dtype=complex) + 0.5 * X
        e = lindblad.diagonal_expectation(2)
        expected = (1.5 * np.log(1.5) + 0.5 * np.log(0.5)) / 2.0
        assert entropy.entropy_to_expectation(rho, e) == pytest.approx(expected, abs=1e-12)

    def test_chain_rule_commuting_pinchings(self):
        rng = np.random.default_rng(3)
        e1 = lindblad.edge_expectation((0, 1), 4)
        e2 = lindblad.edge_expectation((2, 3), 4)
        both = lindblad.compose_pinchings([e1, e2])
        for _ in range(20):
            rho = rand_state(rng, 4)
            total = entropy.entropy_to_expectation(rho, both)
            assert total <= (entropy.entropy_to_expectation(rho, e1)
                             + entropy.entropy_to_expectation(rho, e2) + 1e-10)

    def test_broken_expectation_detected(self):
        rho = rand_state(np.random.default_rng(4), 2)
        with pytest.raises(ConsistencyError):
            entropy.entropy_to_expectation(rho, lambda r: -np.eye(2, dtype=complex))


class TestPRelEntropy:
    def test_equal_states(self):
        rng = np.random.default_rng(5)
        rho = rand_state(rng, 3)
        assert entropy.p_rel_entropy(rho, rho, 1.5) == pytest.approx(0.0, abs=1e-12)

    def test_limit_to_lindblad_entropy(self):
        rng = np.random.default_rng(6)
        p = 1.001
        for _ in range(10):
            rho, sigma = rand_state(rng, 3), rand_state(rng, 3)
            lhs = entropy.p_rel_entropy(rho, sigma, p) / (p - 1.0)
            rhs = entropy.lindblad_rel_entropy(rho, sigma)
            assert lhs == pytest.approx(rhs, rel=1e-2)

    def test_two_level_scalar_formula(self):
        rho = np.diag([1.5, 0.5]).astype(complex)
        sigma = np.eye(2, dtype=complex)
        p = 1.5
        expected = ((1.5 ** p - 1.0) - p * (1.5 - 1.0)
                    + (0.5 ** p - 1.0) - p * (0.5 - 1.0)) / 2.0
        assert entropy.p_rel_entropy(rho, sigma, p) == pytest.approx(expected, abs=1e-12)

    def test_p_range(self):
        rho = np.eye(2, dtype=complex)
        for bad in (1.0, 2.0, 0.5, 2.5):
            with pytest.raises(ValueError):
                entropy.p_rel_entropy(rho, rho, bad)


class TestFisherLindblad:
    def test_kernel_state_is_zero(self):
        s = lindblad.pauli_system()
        assert entropy.fisher_lindblad(s, np.eye(2, dtype=complex)) == pytest.approx(
            0.0, abs=1e-12)

    def test_depolarizing_closed_form(self):
        s = lindblad.depolarizing(2)
        rho = np.diag([1.5, 0.5]).astype(complex)
        d = (1.5 * np.log(1.5) + 0.5 * np.log(0.5)) / 2.0
        extra = -(np.log(1.5) + np.log(0.5)) / 2.0
        assert entropy.fisher_lindblad(s, rho) == pytest.approx(d + extra, abs=1e-12)

    def test_forms_agree_for_generator_superops(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            s = superop_from_generators([rand_hermitian(rng, n)])
            rho = rand_state(rng, n)
            value = entropy.fisher_lindblad(s, rho)  # raises on form mismatch
            assert value >= -1e-10

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        s = lindblad.pauli_system()
        for _ in range(20):
            assert entropy.fisher_lindblad(s, rand_state(rng, 2)) >= -1e-10


def _mislabelled_pauli():
    """The pauli superoperator carrying only one of its two generators, so
    its derivation form misses the Y/2 half of the Fisher information."""
    return dataclasses.replace(lindblad.pauli_system(), generators=(lindblad.PAULI_X / 2,))


class TestDerivationFormCheck:
    def test_fisher_forms_disagree(self):
        rho = rand_state(np.random.default_rng(11), 2)
        with pytest.raises(ConsistencyError, match="Fisher forms disagree"):
            entropy.fisher_lindblad(_mislabelled_pauli(), rho)

    def test_p_fisher_forms_disagree(self):
        rho = rand_state(np.random.default_rng(11), 2)
        with pytest.raises(ConsistencyError, match="p-Fisher forms disagree"):
            entropy.p_fisher(_mislabelled_pauli(), rho, 1.5)

    def test_cross_check_reuses_the_state_decomposition(self, monkeypatch):
        s = lindblad.pauli_system()
        rho = rand_state(np.random.default_rng(12), 2)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        entropy.fisher_lindblad(s, rho)
        assert len(calls) == 1


class TestPFisher:
    def test_kernel_state(self):
        s = lindblad.pauli_system()
        assert entropy.p_fisher(s, np.eye(2, dtype=complex), 1.5) == pytest.approx(
            0.0, abs=1e-12)

    def test_limit_to_fisher(self):
        rng = np.random.default_rng(9)
        s = lindblad.pauli_system()
        p = 1.001
        for _ in range(10):
            rho = rand_state(rng, 2)
            lhs = entropy.p_fisher(s, rho, p) / (p - 1.0)
            assert lhs == pytest.approx(entropy.fisher_lindblad(s, rho), rel=1e-2)

    def test_pinching_p_inequality(self):
        rng = np.random.default_rng(10)
        n = 3
        e = lindblad.diagonal_expectation(n)
        from clsibound.spectral import SpectralSuperoperator
        s = SpectralSuperoperator.from_matrix(
            np.eye(n * n, dtype=complex) - e.superop_matrix(), n)
        for p in (1.1, 1.5, 1.9):
            for _ in range(10):
                rho = rand_state(rng, n)
                dp = entropy.p_rel_entropy(rho, e(rho), p)
                assert p * dp <= entropy.p_fisher(s, rho, p) + 1e-10


class TestFisherGraph:
    def test_constant_field(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert entropy.fisher_graph(g, np.ones(3)) == pytest.approx(0.0, abs=1e-14)

    def test_single_edge_value(self):
        g = make_graph(2, [(0, 1)])
        assert entropy.fisher_graph(g, np.array([1.0, np.e])) == pytest.approx(
            np.e - 1.0, abs=1e-12)

    def test_matches_laplacian_form(self):
        # uniform measure, unit weights: I(f) = tau_mu(A f . ln f)
        from clsibound.graphs import graph_laplacian
        rng = np.random.default_rng(11)
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        a = graph_laplacian(g)
        for _ in range(10):
            f = rng.uniform(0.3, 3.0, size=4)
            direct = entropy.fisher_graph(g, f)
            lap = float(np.dot(g.measure, (a @ f) * np.log(f)))
            assert direct == pytest.approx(lap, rel=1e-10)

    def test_matrix_field(self):
        g = make_graph(2, [(0, 1)])
        f = np.stack([np.diag([1.0, 1.0]), np.diag([np.e, np.e])]).astype(complex)
        assert entropy.fisher_graph(g, f) == pytest.approx(np.e - 1.0, abs=1e-12)

    def test_nonpositive_block_rejected(self):
        g = make_graph(2, [(0, 1)])
        with pytest.raises(PositivityError):
            entropy.fisher_graph(g, np.array([1.0, 0.0]))


class TestEntropyGraph:
    def test_constant_field(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        assert entropy.entropy_graph(g, np.full(3, 2.0)) == pytest.approx(0.0, abs=1e-14)

    def test_scalar_two_point(self):
        g = make_graph(2, [(0, 1)])
        value = entropy.entropy_graph(g, np.array([1.5, 0.5]))
        expected = 0.5 * (1.5 * np.log(1.5) + 0.5 * np.log(0.5))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_block_diagonal_embedding_oracle(self):
        # field over K2 with 2x2 blocks == relative entropy on the 4x4
        # block-diagonal embedding with weights mu
        g = make_graph(2, [(0, 1)])
        f = np.stack([np.diag([1.5, 0.5]), np.eye(2)]).astype(complex)
        value = entropy.entropy_graph(g, f)
        xi = 0.5 * (f[0] + f[1])
        embed_rho = np.zeros((4, 4), dtype=complex)
        embed_xi = np.zeros((4, 4), dtype=complex)
        embed_rho[:2, :2], embed_rho[2:, 2:] = 0.5 * f[0], 0.5 * f[1]
        embed_xi[:2, :2] = embed_xi[2:, 2:] = 0.5 * xi
        oracle = entropy.rel_entropy(embed_rho, embed_xi).value * 2.0
        assert value == pytest.approx(oracle, abs=1e-10)


class TestEntropyInterpolation:
    def test_equal_states(self):
        rng = np.random.default_rng(12)
        rho = rand_state(rng, 3)
        assert entropy.entropy_interpolation_check(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_diagonal_pair(self):
        rho = np.diag([0.4, 1.1, 1.5]).astype(complex)
        sigma = np.diag([1.2, 0.5, 1.3]).astype(complex)
        assert entropy.entropy_interpolation_check(rho, sigma) < 1e-10

    def test_random_noncommuting_pair(self):
        rng = np.random.default_rng(13)
        a = rand_hermitian(rng, 3)
        q, _ = np.linalg.qr(a)
        rho = (q * rng.uniform(0.1, 2.0, 3)) @ q.conj().T
        b = rand_hermitian(rng, 3)
        q2, _ = np.linalg.qr(b)
        sigma = (q2 * rng.uniform(0.1, 2.0, 3)) @ q2.conj().T
        assert entropy.entropy_interpolation_check(rho, sigma) < 1e-8


class TestScalingCovariance:
    def test_entropy_and_fisher_scale(self):
        rng = np.random.default_rng(14)
        s = lindblad.pauli_system()
        e = lindblad.trace_expectation(2)
        rho = rand_state(rng, 2)
        for c in (0.5, 2.0, 7.5):
            assert entropy.entropy_to_expectation(c * rho, e) == pytest.approx(
                c * entropy.entropy_to_expectation(rho, e), rel=1e-10)
            assert entropy.fisher_lindblad(s, c * rho) == pytest.approx(
                c * entropy.fisher_lindblad(s, rho), rel=1e-10)
