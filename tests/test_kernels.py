"""Hot kernels: the ratio objectives agree with the independent entropy
and Fisher functionals; their gradients agree with central differences; DOI
kernel values; parameter encoding round-trips; objective guards; the kernel
bench passes its own gates."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from clsibound import _kernels, entropy, estimator, lindblad
from clsibound.graphs import make_graph

PARITY_REL = 1e-12
ROOT = pathlib.Path(__file__).resolve().parents[1]


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


def value_grad(theta, superop, eproj, n, p_exp):
    """(ratio, gradient) at one parameter vector: row 0 of the stacked kernel
    on a stack of one, the gradient as the ``.real`` view of its complex row
    that the lockstep L-BFGS passes to each search."""
    ratio, grad = _kernels._ratio_value_grad(theta[None], superop, eproj, n, p_exp)
    return ratio[0], grad[0].real


class TestValueGrad:
    @pytest.mark.parametrize("p", [None, 1.5])
    @pytest.mark.parametrize("name", ["pauli", "depolarizing:3", "C5"])
    def test_gradient_matches_central_differences(self, name, p):
        superop, eproj, n = gradient_system(name)
        if p is None:
            terms = lambda t: _kernels.mlsi_terms(t, superop, eproj, n)
        else:
            terms = lambda t: _kernels.cpsi_terms(t, superop, eproj, n, p)
        for theta in interior_thetas(n, seed=30 + n):
            ratio, grad = value_grad(theta, superop, eproj, n, p)
            assert ratio == terms(theta)[0]
            central = np.array([
                (terms(theta + GRAD_STEP * e)[0] - terms(theta - GRAD_STEP * e)[0])
                / (2.0 * GRAD_STEP) for e in np.eye(n * n)])
            assert np.abs(grad - central).max() <= GRAD_REL * np.abs(central).max()

    def test_excluded_point(self):
        superop, eproj, n = gradient_system("pauli")
        for p in (None, 1.5):
            ratio, grad = value_grad(np.zeros(4), superop, eproj, n, p)
            assert ratio == np.inf and grad.shape == (4,) and not grad.any()


def one_row_value_grad(theta, superop, eproj, n, p_exp):
    """(ratio, gradient) of the matrix ratio objective at one parameter
    vector, written with 2-d ``ndarray.dot`` products: the arithmetic that
    each row of the stacked kernel must reproduce bit for bit."""
    k = _kernels
    w, u = np.linalg.eigh(k.hermitian_from_params(theta, n))
    if max(w[n - 1], -w[0]) > k.H_CAP:
        return (np.inf, 0.0)
    z = np.exp(w)
    p = (n / z.sum()) * z
    ud = u.conj().T
    v = (u * p).dot(ud).T.ravel()
    raw = eproj.dot(v).reshape(n, n).T
    tr = raw.trace().real
    if tr <= 0.0:
        return (np.inf, 0.0)
    mu, vmat = np.linalg.eigh(0.5 * (raw + raw.conj().T) * (n / tr))
    if mu[0] <= k._EXPECTATION_FLOOR * mu[n - 1] or mu[0] <= 0.0:
        return (np.inf, 0.0)
    ov = ud.dot(vmat)
    overlap = ov.real * ov.real + ov.imag * ov.imag
    if p_exp is None:
        d = (overlap * mu * k.bregman(p[:, None] / mu)).sum() / n
    else:
        d = (overlap * k.bregman_power(p[:, None], mu, p_exp)).sum() / n
    if d < k.ENTROPY_FLOOR:
        return (np.inf, 0.0)
    f = np.log(p) if p_exp is None else p ** (p_exp - 1.0)
    f -= f.sum() / n
    g = (u * f).dot(ud)
    av = superop.dot(v)
    fisher = av.dot(g.ravel()).real
    ratio = (fisher if p_exp is None else p_exp * fisher) / n / d
    a = ud.dot(av.reshape(n, n).T).dot(u)
    pre = ud.dot(superop.T.dot(g.ravel()).reshape(n, n)).dot(u)
    f_sigma = np.log(mu) if p_exp is None else mu ** (p_exp - 1.0)
    pre += ratio * (ov * f_sigma).dot(ov.conj().T)
    pre[np.diag_indices(n)] -= ratio * f
    tilt = k.kernel_matrix(p, p, k.KERNEL_TILT, 0.0)
    if p_exp is None:
        t = tilt * pre + a
    else:
        pre += k.kernel_matrix(p, p, k.KERNEL_POWER_QUOTIENT, p_exp) * a
        t = tilt * (p_exp * pre)
    t[np.diag_indices(n)] -= p * (t.trace() / n)
    gh = u.dot(t / (n * d)).dot(ud)
    return (ratio, gh.T.ravel().dot(k._decoder(n)).real)


class TestStackedKernel:
    @pytest.mark.parametrize("p", [None, 1.5])
    @pytest.mark.parametrize("name", ["pauli", "depolarizing:3", "C5"])
    def test_rows_reproduce_the_one_row_arithmetic(self, name, p):
        superop, eproj, n = gradient_system(name)
        rng = np.random.default_rng(50 + n)
        thetas = np.concatenate([rng.normal(scale=scale, size=(16, n * n))
                                 for scale in (0.01, 0.3, 1.0, 3.0, 12.0)])
        ratio, grad = _kernels._ratio_value_grad(thetas, superop, eproj, n, p)
        excluded = 0
        for i, theta in enumerate(thetas):
            ref_ratio, ref_grad = one_row_value_grad(theta, superop, eproj, n, p)
            assert ratio[i] == ref_ratio
            if ref_ratio == np.inf:
                excluded += 1
                assert not grad[i].any()
            else:
                assert grad[i].real.tobytes() == ref_grad.tobytes()
        assert 0 < excluded < len(thetas)

    @pytest.mark.parametrize("p", [None, 1.5])
    def test_excluded_rows_and_single_calls(self, p):
        superop, eproj, n = gradient_system("depolarizing:3")
        thetas = np.array(interior_thetas(n, seed=40, count=6))
        thetas[1] = 0.0  # the maximally mixed state: entropy under the floor
        thetas[4, 0] = 50.0  # spectral cap breach
        ratio, grad = _kernels._ratio_value_grad(thetas, superop, eproj, n, p)
        terms = _kernels._fisher_parts(thetas, superop, eproj, n, p)[0]
        for i, theta in enumerate(thetas):
            single = value_grad(theta, superop, eproj, n, p)
            if p is None:
                single_terms = _kernels.mlsi_terms(theta, superop, eproj, n)
            else:
                single_terms = _kernels.cpsi_terms(theta, superop, eproj, n, p)
            assert [t[i] for t in terms] == list(single_terms)
            if i in (1, 4):
                assert ratio[i] == np.inf and not grad[i].any()
                assert single[0] == np.inf and not single[1].any()
            else:
                assert ratio[i].tobytes() == single[0].tobytes()
                assert grad[i].real.tobytes() == single[1].tobytes()
                assert grad[i].real.strides == single[1].strides == (16,)


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


def run_bench(*options):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py"),
                           *options], capture_output=True, text=True, env=env, timeout=120)


class TestBench:
    def test_one_repeat_passes_every_gate(self):
        # the gates: 1e-10 against the functionals, each value-gradient ratio
        # equal to its *_terms ratio, each stacked row equal to its stack of one
        run = run_bench("--repeats", "1")
        assert run.returncode == 0, run.stderr
        assert "ERROR" not in run.stdout + run.stderr
        assert "mlsi value_grad(n=8, R=1)" in run.stdout
        assert "cpsi value_grad(n=8, R=48)" in run.stdout

    def test_zero_repeats_exit_two(self):
        run = run_bench("--repeats", "0")
        assert run.returncode == 2 and run.stdout == ""
        assert "0 is not an integer >= 1" in run.stderr
