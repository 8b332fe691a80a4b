"""Hot kernels: the ratio objectives agree with the independent entropy
and Fisher functionals; their gradients agree with central differences; DOI
kernel values; parameter encoding round-trips; objective guards."""

import numpy as np
import pytest

from clsibound import _kernels, entropy, estimator, lindblad
from clsibound.graphs import make_graph

PARITY_REL = 1e-12


def cycle_system(n):
    """Graph generator of the n-cycle (a single edge at n = 2) with its
    fixed-point expectation."""
    edges = [(0, 1)] if n == 2 else [(i, (i + 1) % n) for i in range(n)]
    s = lindblad.graph_lindblad(make_graph(n, edges))
    return s, lindblad.fixed_point_dim(s).expectation


def interior_thetas(n, seed, count=4):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=n * n) for _ in range(count)]


class TestObjectiveParity:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_mlsi_terms_match_functionals(self, n):
        s, e = cycle_system(n)
        for theta in interior_thetas(n, seed=n):
            ratio, fisher, d = _kernels.mlsi_terms(theta, s.matrix, e.superop_matrix(), n)
            rho = estimator._MatrixObjective(s, e).witness(theta)
            assert d == pytest.approx(entropy.lindblad_rel_entropy(rho, e(rho)),
                                      rel=PARITY_REL)
            assert fisher == pytest.approx(entropy.fisher_lindblad(s, rho), rel=PARITY_REL)
            assert ratio == fisher / d

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_cpsi_terms_match_functionals(self, n):
        p = 1.5
        s, e = cycle_system(n)
        for theta in interior_thetas(n, seed=10 + n):
            ratio, fisher, d = _kernels.cpsi_terms(theta, s.matrix, e.superop_matrix(), n, p)
            rho = estimator._MatrixObjective(s, e, p=p).witness(theta)
            assert d == pytest.approx(entropy.p_rel_entropy(rho, e(rho), p), rel=PARITY_REL)
            assert fisher == pytest.approx(entropy.p_fisher(s, rho, p), rel=PARITY_REL)
            assert ratio == fisher / d

    @pytest.mark.parametrize("n", [4, 5])
    def test_classical_terms_match_functionals(self, n):
        rng = np.random.default_rng(20 + n)
        edges = [(i, (i + 1) % n, float(rng.uniform(0.5, 2.0))) for i in range(n)]
        edges.append((0, 2, 1.0))
        measure = rng.uniform(0.5, 1.5, size=n)
        g = make_graph(n, edges, measure=measure / measure.sum())
        objective = estimator._ClassicalObjective(g)
        for _ in range(4):
            theta = rng.normal(size=n)
            ratio, fisher, d = objective.terms(theta)
            f = objective.witness(theta)
            assert d == pytest.approx(entropy.entropy_graph(g, f), rel=PARITY_REL)
            assert fisher == pytest.approx(entropy.fisher_graph(g, f), rel=PARITY_REL)
            assert ratio == fisher / d


GRAD_STEP = 1e-6
GRAD_REL = 1e-6


def gradient_system(name):
    """(superoperator, expectation projection, dimension) of a named system."""
    if name == "pauli":
        s, e = lindblad.pauli_system(), lindblad.trace_expectation(2)
    elif name == "depolarizing:3":
        s, e = lindblad.depolarizing(3), lindblad.trace_expectation(3)
    else:
        s, e = cycle_system(5)
    return np.ascontiguousarray(s.matrix, dtype=complex), e.superop_matrix(), s.dim


class TestValueGrad:
    @pytest.mark.parametrize("p", [None, 1.5])
    @pytest.mark.parametrize("name", ["pauli", "depolarizing:3", "C5"])
    def test_gradient_matches_central_differences(self, name, p):
        superop, eproj, n = gradient_system(name)
        if p is None:
            terms = lambda t: _kernels.mlsi_terms(t, superop, eproj, n)
            value_grad = lambda t: _kernels.mlsi_value_grad(t, superop, eproj, n)
        else:
            terms = lambda t: _kernels.cpsi_terms(t, superop, eproj, n, p)
            value_grad = lambda t: _kernels.cpsi_value_grad(t, superop, eproj, n, p)
        for theta in interior_thetas(n, seed=30 + n):
            ratio, grad = value_grad(theta)
            assert ratio == terms(theta)[0]
            central = np.array([
                (terms(theta + GRAD_STEP * e)[0] - terms(theta - GRAD_STEP * e)[0])
                / (2.0 * GRAD_STEP) for e in np.eye(n * n)])
            assert np.abs(grad - central).max() <= GRAD_REL * np.abs(central).max()

    def test_excluded_point(self):
        superop, eproj, n = gradient_system("pauli")
        assert _kernels.mlsi_value_grad(np.zeros(4), superop, eproj, n) == (np.inf, 0.0)
        assert _kernels.cpsi_value_grad(np.zeros(4), superop, eproj, n, 1.5) == (np.inf, 0.0)


class TestKernelMatrix:
    def test_log_quotient_values(self):
        k = _kernels.kernel_matrix(np.array([1.0, 4.0]), np.array([1.0, 4.0]),
                                   _kernels.KERNEL_LOG_QUOTIENT, 0.0)
        assert k[0, 0] == pytest.approx(1.0)
        assert k[1, 1] == pytest.approx(0.25)
        assert k[0, 1] == pytest.approx(np.log(4.0) / 3.0)
        assert k[0, 1] == pytest.approx(k[1, 0])

    def test_tilt_values(self):
        k = _kernels.kernel_matrix(np.array([1.0, np.e]), np.array([1.0, np.e]),
                                   _kernels.KERNEL_TILT, 0.0)
        assert k[0, 1] == pytest.approx(np.e - 1.0)
        assert k[0, 0] == pytest.approx(1.0)

    def test_power_quotient_matches_definition(self):
        p = 1.7
        x, y = 2.3, 0.4
        k = _kernels.kernel_matrix(np.array([x]), np.array([y]),
                                   _kernels.KERNEL_POWER_QUOTIENT, p)
        assert k[0, 0] == pytest.approx((x ** (p - 1) - y ** (p - 1)) / (x - y))

    @pytest.mark.parametrize("kind", [_kernels.KERNEL_LOG_QUOTIENT,
                                      _kernels.KERNEL_POWER_QUOTIENT,
                                      _kernels.KERNEL_TILT])
    def test_wide_ratio_matches_closed_form(self, kind):
        # at x/y ~ 1e-17, x - y rounds to -y and log1p((x - y)/y) is log1p(-1)
        p = 1.5
        x, y = 1e-17, 1.0
        closed = {
            _kernels.KERNEL_LOG_QUOTIENT: (np.log(x) - np.log(y)) / (x - y),
            _kernels.KERNEL_POWER_QUOTIENT: (x ** (p - 1.0) - y ** (p - 1.0)) / (x - y),
            _kernels.KERNEL_TILT: (x - y) / (np.log(x) - np.log(y)),
        }[kind]
        k = _kernels.kernel_matrix(np.array([x, y]), np.array([x, y]), kind, p)
        assert k[0, 1] == pytest.approx(closed, rel=1e-12)
        assert k[1, 0] == pytest.approx(closed, rel=1e-12)

    def test_near_diagonal_uses_derivative(self):
        x = np.array([2.0])
        y = np.array([2.0 * (1.0 + 1e-12)])
        k = _kernels.kernel_matrix(x, y, _kernels.KERNEL_LOG_QUOTIENT, 0.0)
        assert k[0, 0] == pytest.approx(0.5, rel=1e-9)

    def test_accuracy_just_off_the_switch(self):
        # log1p form stays exact right above the diagonal-limit cutoff
        x = np.array([2.0])
        y = np.array([2.0 * (1.0 + 1e-8)])
        k = _kernels.kernel_matrix(x, y, _kernels.KERNEL_LOG_QUOTIENT, 0.0)
        exact = np.log(x[0] / y[0]) / (x[0] - y[0])
        assert k[0, 0] == pytest.approx(0.5, rel=1e-7)
        assert abs(k[0, 0] - 1.0 / y[0]) < 1e-8


class TestParamEncoding:
    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            h = 0.5 * (a + a.conj().T)
            theta = _kernels.params_from_hermitian(h)
            back = _kernels.hermitian_from_params(theta, n)
            np.testing.assert_allclose(back, h, atol=1e-15)

    def test_state_normalization(self):
        rng = np.random.default_rng(6)
        theta = rng.normal(size=9)
        h = _kernels.hermitian_from_params(theta, 3)
        w = np.linalg.eigvalsh(h)
        rho_eigs = 3 * np.exp(w) / np.exp(w).sum()
        assert rho_eigs.sum() == pytest.approx(3.0)
        assert rho_eigs.min() > 0


class TestObjectiveGuards:
    def _setup(self):
        n = 2
        a = np.array([[0, 1], [1, 0]], dtype=complex) / 2
        c = np.kron(np.eye(n), a) - np.kron(a.T, np.eye(n))
        superop = np.ascontiguousarray(c @ c)
        v = np.eye(n, dtype=complex).T.reshape(-1)
        eproj = np.ascontiguousarray(np.outer(v, v.conj()) / n)
        return superop, eproj, n

    def test_cap_excluded(self):
        superop, eproj, n = self._setup()
        theta = np.zeros(4)
        theta[0] = 50.0
        ratio, _, _ = _kernels.mlsi_terms(theta, superop, eproj, n)
        assert np.isinf(ratio)

    def test_fixed_point_excluded(self):
        superop, eproj, n = self._setup()
        ratio, _, _ = _kernels.mlsi_terms(np.zeros(4), superop, eproj, n)
        assert np.isinf(ratio)

    def test_classical_exclusion_is_shift_invariant(self):
        # theta + c scales f and D(f) by e^c but leaves the ratio unchanged,
        # so it must not move a point across the entropy floor
        objective = estimator._ClassicalObjective(
            make_graph(5, [(i, (i + 1) % 5) for i in range(5)]))
        direction = np.array([1.2, -0.3, 0.0, 0.5, -1.1])
        near = objective.terms(1.6e-5 * direction)[0]
        beyond = objective.terms(4.8e-5 * direction)[0]
        assert np.isinf(near) and np.isfinite(beyond)
        for c in (-3.0, 0.5, 7.0):
            assert np.isinf(objective.terms(1.6e-5 * direction + c)[0])
            assert objective.terms(4.8e-5 * direction + c)[0] == pytest.approx(beyond, rel=1e-9)

    def test_interior_point_finite(self):
        superop, eproj, n = self._setup()
        ratio, fisher, d = _kernels.mlsi_terms(np.array([0.5, -0.5, 0.2, 0.1]),
                                               superop, eproj, n)
        assert np.isfinite(ratio) and fisher > 0 and d > 0
