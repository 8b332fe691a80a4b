"""Named verification batteries: every module-level invariant and property
runs here, one PASS/FAIL result per battery.  Each battery fixes its seed
in its body; only ``trials`` can be overridden.

The CLI ``verify`` subcommand and the test suite both drive this registry,
so the checks exist exactly once.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import entropy, graphs, lindblad, spectral
from .spectral import ScalarKernel, SpectralSuperoperator


@dataclass(frozen=True)
class BatteryResult:
    name: str
    passed: bool
    max_residual: float
    detail: str = ""

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = f" [{self.detail}]" if self.detail else ""
        return f"{self.name}: {verdict} (max residual {self.max_residual:.3e}){extra}"


def random_hermitian(rng, n: int, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix (a + a*)/2 scaled by ``scale``."""
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (a + a.conj().T)


def _rand_unitary(rng, n: int) -> np.ndarray:
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rand_positive(rng, n: int, lo: float = 0.05, hi: float = 20.0) -> np.ndarray:
    u = _rand_unitary(rng, n)
    w = rng.uniform(lo, hi, size=n)
    return (u * w) @ u.conj().T


def random_state(rng, n: int, scale: float = 1.0) -> np.ndarray:
    """Gibbs state of a Gaussian Hermitian matrix: the ``random:SEED``
    initial state of ``clsibound decay`` and the batteries' random state."""
    return spectral.gibbs_state(random_hermitian(rng, n, scale))


def _rand_cptp_kraus(rng, n: int, count: int) -> list:
    ops = [rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) for _ in range(count)]
    gram = sum(a.conj().T @ a for a in ops)
    w, u = np.linalg.eigh(gram)
    inv_sqrt = (u * (w ** -0.5)) @ u.conj().T
    return [a @ inv_sqrt for a in ops]


def _rand_connected_graph(rng, n: int, extra_edges: int = 0,
                          weighted: bool = False, measured: bool = False) -> graphs.WeightedGraph:
    edges = {}
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges[(u, v)] = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
    tries = 0
    while len(edges) < n - 1 + extra_edges and tries < 50:
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        tries += 1
        if (u, v) not in edges:
            edges[(u, v)] = float(rng.uniform(0.5, 2.0)) if weighted else 1.0
    measure = None
    if measured:
        m = rng.uniform(0.5, 2.0, size=n)
        measure = m / m.sum()
    return graphs.make_graph(n, [(u, v, w) for (u, v), w in edges.items()], measure)


# Matrix dimensions the doi-identity and quadrature trials cycle through.
_DOI_DIMS = (2, 3, 4, 5)

_SMALL_GRAPHS = {
    "triangle": (3, [(0, 1), (1, 2), (0, 2)]),
    "path4": (4, [(0, 1), (1, 2), (2, 3)]),
    "star4": (4, [(0, 1), (0, 2), (0, 3)]),
    "cycle5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "wheel5": (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]),
}


def battery_doi_identity(trials: int = 100) -> BatteryResult:
    """delta(ln rho) = Q^rho(delta rho) for delta = [X, .], plus Hermiticity
    and linearity of T -> Q(T), all within 1e-10."""
    rng = np.random.default_rng(11)
    kernel = ScalarKernel.log_quotient()
    worst = 0.0
    for trial in range(trials):
        n = _DOI_DIMS[trial % len(_DOI_DIMS)]
        rho = _rand_positive(rng, n, 0.05, 20.0)
        x = random_hermitian(rng, n)
        delta_rho = x @ rho - rho @ x
        lhs = x @ spectral.matrix_log(rho) - spectral.matrix_log(rho) @ x
        rhs = spectral.doi_apply(rho, kernel, delta_rho)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
        for kern in (kernel, ScalarKernel.tilt(), ScalarKernel.power_quotient(1.5)):
            t = random_hermitian(rng, n)
            q = spectral.doi_apply(rho, kern, t)
            worst = max(worst, float(np.abs(q - q.conj().T).max()))
            t2 = random_hermitian(rng, n)
            a, b = rng.normal(size=2)
            combo = spectral.doi_apply(rho, kern, a * t + b * t2)
            split = a * q + b * spectral.doi_apply(rho, kern, t2)
            worst = max(worst, float(np.abs(combo - split).max()))
    return BatteryResult("doi-identity", worst <= 1e-10, worst,
                         f"{trials} trials, dims {min(_DOI_DIMS)}-{max(_DOI_DIMS)}")


def battery_quadrature(trials: int = 100) -> BatteryResult:
    """Resolvent and tilt quadrature oracles agree with the kernel forms
    within 1e-6 (64 starting points, spectra in [0.05, 20])."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for trial in range(trials):
        n = _DOI_DIMS[trial % len(_DOI_DIMS)]
        rho = _rand_positive(rng, n, 0.05, 20.0)
        t = random_hermitian(rng, n)
        if trial % 2 == 0:
            oracle = spectral.quadrature_oracle_resolvent(rho, t)
            direct = spectral.doi_apply(rho, ScalarKernel.log_quotient(), t)
        else:
            oracle = spectral.quadrature_oracle_tilt(rho, t)
            direct = spectral.doi_apply(rho, ScalarKernel.tilt(), t)
        worst = max(worst, float(np.abs(oracle - direct).max()))
    return BatteryResult("quadrature", worst <= 1e-6, worst,
                         f"{trials} trials, dims {min(_DOI_DIMS)}-{max(_DOI_DIMS)}")


def battery_entropy_interpolation(trials: int = 50) -> BatteryResult:
    """Interpolation identity residual < 1e-8 on random positive 3x3 pairs
    with spectra in [0.1, 2]."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(trials):
        rho = _rand_positive(rng, 3, 0.1, 2.0)
        sigma = _rand_positive(rng, 3, 0.1, 2.0)
        worst = max(worst, entropy.entropy_interpolation_check(rho, sigma))
    return BatteryResult("entropy-interpolation", worst < 1e-8, worst, f"{trials} pairs")


def battery_doi_monotonicity(trials: int = 100) -> BatteryResult:
    """Monotonicity of the tilt DOI under CPTP maps:
    min eig of Q^{b rho, b sigma} - B Q^{rho,sigma} B* >= -1e-9."""
    rng = np.random.default_rng(14)
    kernel = ScalarKernel.tilt()
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 4))
        kraus = _rand_cptp_kraus(rng, n, int(rng.integers(2, 5)))
        lift = sum(np.kron(k.conj(), k) for k in kraus)
        rho = random_state(rng, n)
        sigma = random_state(rng, n)
        b_rho = sum(k @ rho @ k.conj().T for k in kraus)
        b_sigma = sum(k @ sigma @ k.conj().T for k in kraus)
        q_in = spectral.doi_superop_matrix(rho, sigma, kernel)
        q_out = spectral.doi_superop_matrix(b_rho, b_sigma, kernel)
        diff = q_out - lift @ q_in @ lift.conj().T
        diff = 0.5 * (diff + diff.conj().T)
        worst = min(worst, float(np.linalg.eigvalsh(diff).min()))
    return BatteryResult("doi-monotonicity", worst >= -1e-9, abs(min(worst, 0.0)),
                         f"{trials} CPTP maps, dims 2-3")


def battery_edge_product() -> BatteryResult:
    """Product of all edge expectations equals the diagonal pinching exactly
    for connected graphs (n >= 3); Schur masks commute; sign-flip averages
    compose to the diagonal pinching."""
    rng = np.random.default_rng(15)
    worst = 0.0
    ok = True
    for name, (n, edge_list) in _SMALL_GRAPHS.items():
        expectations = [lindblad.edge_expectation(e, n) for e in edge_list]
        product = lindblad.compose_pinchings(expectations)
        ok &= np.array_equal(product.mask, np.eye(n))
        for e1 in expectations[:2]:
            for e2 in expectations[-2:]:
                ok &= np.array_equal(e1.mask * e2.mask, e2.mask * e1.mask)
        rho = random_state(rng, n)
        seq = rho.copy()
        for e in expectations:
            seq = e(seq)
        worst = max(worst, float(np.abs(seq - np.diag(np.diag(rho))).max()))
        flips = rho.copy()
        for i in range(n - 1):
            flips = lindblad.sign_flip_average(i, flips)
        worst = max(worst, float(np.abs(flips - np.diag(np.diag(rho))).max()))
    single = lindblad.sign_flip_average(1, np.ones((4, 4), dtype=complex))
    expected = np.ones((4, 4), dtype=complex)
    expected[1, :] = 0
    expected[:, 1] = 0
    expected[1, 1] = 1
    ok &= np.array_equal(single, expected)
    return BatteryResult("edge-product", ok and worst <= 1e-12, worst,
                         f"{len(_SMALL_GRAPHS)} graphs")


def battery_diagonal_entropy_comparison(trials: int = 100) -> BatteryResult:
    """Diagonal comparison: D(rho||E_diag rho) <= 5 pi^2 I(rho) for connected
    graphs on 3..5 vertices; zero violations allowed."""
    rng = np.random.default_rng(16)
    bound = 5.0 * math.pi ** 2
    worst = -np.inf
    for name in ("triangle", "path4", "cycle5"):
        n, edge_list = _SMALL_GRAPHS[name]
        s = lindblad.graph_lindblad(graphs.make_graph(n, edge_list))
        e_diag = lindblad.diagonal_expectation(n)
        for _ in range(trials):
            rho = random_state(rng, n)
            d = entropy.entropy_to_expectation(rho, e_diag)
            i = entropy.fisher_lindblad(s, rho)
            worst = max(worst, d - bound * i)
    return BatteryResult("diagonal-entropy-comparison", worst <= 1e-12, max(worst, 0.0),
                         f"{trials} states x 3 graphs")


def battery_diagonal_fisher_monotone(trials: int = 100) -> BatteryResult:
    """Pinching monotonicity of the Fisher information:
    I(E_diag rho) <= I(rho) on the same battery."""
    rng = np.random.default_rng(17)
    worst = -np.inf
    for name in ("triangle", "path4", "cycle5"):
        n, edge_list = _SMALL_GRAPHS[name]
        s = lindblad.graph_lindblad(graphs.make_graph(n, edge_list))
        e_diag = lindblad.diagonal_expectation(n)
        for _ in range(trials):
            rho = random_state(rng, n)
            worst = max(worst, entropy.fisher_lindblad(s, e_diag(rho))
                        - entropy.fisher_lindblad(s, rho))
    return BatteryResult("diagonal-fisher-monotone", worst <= 1e-10, max(worst, 0.0),
                         f"{trials} states x 3 graphs")


def battery_pinching_p_sobolev(trials: int = 60) -> BatteryResult:
    """p d^p(rho||E rho) <= I^p_{id-E}(rho) for random block pinchings and
    p in {1.1, 1.5, 1.9}."""
    rng = np.random.default_rng(18)
    worst = -np.inf
    for trial in range(trials):
        n = int(rng.integers(3, 6))
        split = int(rng.integers(1, n))
        e = lindblad.block_pinching([list(range(split)), list(range(split, n))], n)
        s = SpectralSuperoperator.from_matrix(
            np.eye(n * n, dtype=complex) - e.superop_matrix(), n,
            label="id-minus-pinching")
        rho = random_state(rng, n)
        sigma = e(rho)
        for p in (1.1, 1.5, 1.9):
            dp = entropy.p_rel_entropy(rho, sigma, p)
            ip = entropy.p_fisher(s, rho, p)
            worst = max(worst, p * dp - ip)
    return BatteryResult("pinching-p-sobolev", worst <= 1e-10, max(worst, 0.0),
                         f"{trials} pinchings, p in {{1.1, 1.5, 1.9}}")


def battery_p_limits(trials: int = 40) -> BatteryResult:
    """d^p/(p-1) -> D_Lin and I^p/(p-1) -> I at p = 1.001 within 1%."""
    rng = np.random.default_rng(19)
    p = 1.001
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        rho = random_state(rng, n)
        sigma = random_state(rng, n)
        d_lin = entropy.lindblad_rel_entropy(rho, sigma)
        dp = entropy.p_rel_entropy(rho, sigma, p) / (p - 1.0)
        worst = max(worst, abs(dp - d_lin) / max(abs(d_lin), 1e-12))
        s = lindblad.graph_lindblad(_rand_connected_graph(rng, n if n >= 2 else 2))
        fisher = entropy.fisher_lindblad(s, rho)
        fp = entropy.p_fisher(s, rho, p) / (p - 1.0)
        worst = max(worst, abs(fp - fisher) / max(abs(fisher), 1e-12))
    return BatteryResult("p-limits", worst <= 1e-2, worst,
                         f"{trials} trials at p = 1.001")


def battery_fisher_forms(trials: int = 50) -> BatteryResult:
    """Spectral form tau(S(rho) ln rho) vs derivation form
    sum_k tau(d_k Q^rho(d_k)) within 1e-8 for generator-backed
    superoperators."""
    rng = np.random.default_rng(20)
    kernel = ScalarKernel.log_quotient()
    worst = 0.0
    for trial in range(trials):
        n = int(rng.integers(2, 5))
        gens = [random_hermitian(rng, n) for _ in range(int(rng.integers(1, 4)))]
        s = spectral.superop_from_generators(gens)
        rho = random_state(rng, n)
        spectral_form = entropy.fisher_lindblad(s, rho)
        derivation_form = spectral.derivation_form(
            s.generators, rho, spectral.positive_eigs(rho, "fisher-forms rho"), kernel)
        worst = max(worst, abs(spectral_form - derivation_form)
                    / max(1.0, abs(spectral_form)))
    return BatteryResult("fisher-forms", worst <= 1e-8, worst, f"{trials} trials")


def battery_fisher_derivative(trials: int = 50) -> BatteryResult:
    """Central difference of t -> D(T_t rho || E rho) at t = 0 equals -I(rho)
    within 1e-5 relative."""
    rng = np.random.default_rng(21)
    step = 2e-5
    worst = 0.0
    for trial in range(trials):
        n = int(rng.integers(2, 5))
        gens = [random_hermitian(rng, n) for _ in range(int(rng.integers(1, 3)))]
        s = spectral.superop_from_generators(gens)
        e_fix = lindblad.fixed_point_dim(s).expectation
        # cushion away from the spectrum edge: the -h propagation is
        # expansive and must stay strictly positive
        rho = 0.75 * random_state(rng, n, scale=0.7) + 0.25 * np.eye(n)
        sigma = e_fix(rho)
        plus = entropy.lindblad_rel_entropy(spectral._propagate(s, step, rho), sigma)
        minus = entropy.lindblad_rel_entropy(spectral._propagate(s, -step, rho), sigma)
        derivative = (plus - minus) / (2.0 * step)
        fisher = entropy.fisher_lindblad(s, rho)
        worst = max(worst, abs(derivative + fisher) / max(abs(fisher), 1e-10))
    return BatteryResult("fisher-derivative", worst <= 1e-5, worst,
                         f"{trials} trials, h = {step:g}")


def battery_constant_chain() -> BatteryResult:
    """Wrapped-Gaussian envelope on a 10^4-point grid, the 4/5 comparison
    constant, and the 45 n^2/16 arithmetic chain."""
    report = graphs.verify_constant_chain()
    detail = f"ratio 2*lower/upper = {report.ratio:.5f}"
    residual = max(0.0, -report.grid_margin)
    if not report.ok:
        detail += "; " + "; ".join(report.failures)
    return BatteryResult("constant-chain", report.ok, residual, detail)


def battery_gradient_estimate() -> BatteryResult:
    """Two-level two-generator system: curvature bound 1 passes the gradient
    estimate on t in {0.1, 0.5, 1}; an inflated bound of 5 must be
    rejected."""
    rng = np.random.default_rng(22)
    gens = [lindblad.PAULI_X / 2, lindblad.PAULI_Y / 2]
    grid = (0.1, 0.5, 1.0)
    worst = -np.inf
    inflated_violated = False
    for _ in range(5):
        rho = random_state(rng, 2)
        a = random_hermitian(rng, 2)
        good = lindblad.gradient_estimate_check(gens, 1.0, rho, a, grid)
        worst = max(worst, good.worst)
        bad = lindblad.gradient_estimate_check(gens, 5.0, rho, a, grid)
        inflated_violated |= not bad.passed
    passed = worst <= 1e-9 and inflated_violated
    detail = "lam=1 holds; lam=5 rejected" if inflated_violated else "lam=5 NOT rejected"
    return BatteryResult("gradient-estimate", passed, max(worst, 0.0), detail)


def battery_kernel_dims() -> BatteryResult:
    """Fixed-point dimension: 1 for connected graphs with n >= 3, 2 for the
    single edge (n = 2 anomaly), >= 2 for disconnected graphs."""
    ok = True
    details = []
    for name in ("triangle", "path4", "star4", "cycle5", "wheel5"):
        n, edge_list = _SMALL_GRAPHS[name]
        dim = lindblad.fixed_point_dim(lindblad.graph_lindblad(
            graphs.make_graph(n, edge_list))).dim
        ok &= dim == 1
        if dim != 1:
            details.append(f"{name}: dim {dim}")
    k2 = lindblad.fixed_point_dim(lindblad.graph_lindblad(
        graphs.make_graph(2, [(0, 1)]))).dim
    ok &= k2 == 2
    disconnected = lindblad.fixed_point_dim(lindblad.graph_lindblad(
        graphs.make_graph(4, [(0, 1), (2, 3)]))).dim
    ok &= disconnected >= 2
    detail = f"K2 dim {k2}, disconnected dim {disconnected}" + (
        "; " + "; ".join(details) if details else "")
    return BatteryResult("kernel-dims", ok, 0.0, detail)


def battery_semigroup(trials: int = 30) -> BatteryResult:
    """Generator superoperators annihilate the identity and are
    HS-self-adjoint; the semigroup preserves trace (1e-10) and positivity
    (min eigenvalue >= -1e-10) for t in [0, 10]."""
    rng = np.random.default_rng(24)
    worst = 0.0
    for trial in range(trials):
        n = int(rng.integers(2, 5))
        gens = [random_hermitian(rng, n) for _ in range(int(rng.integers(1, 3)))]
        s = spectral.superop_from_generators(gens)
        worst = max(worst, float(np.abs(s.matrix - s.matrix.conj().T).max()))
        worst = max(worst, float(np.abs(s.matrix @ spectral.vec(np.eye(n))).max()))
        rho = random_state(rng, n)
        for t in (0.0, 0.3, 1.0, 10.0):
            rho_t = spectral.semigroup_apply(s, t, rho)
            worst = max(worst, abs(np.trace(rho_t).real - np.trace(rho).real))
            worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(rho_t).min())))
            ident = spectral.semigroup_apply(s, t, np.eye(n, dtype=complex))
            worst = max(worst, float(np.abs(ident - np.eye(n)).max()))
    return BatteryResult("semigroup", worst <= 1e-10, worst, f"{trials} generators")


def battery_expectations(trials: int = 25) -> BatteryResult:
    """Idempotence, unitality, trace preservation, positivity and
    HS-self-adjointness of every conditional-expectation kind (1e-10)."""
    rng = np.random.default_rng(25)
    worst = 0.0
    cases = []
    for n in (3, 4):
        cases.append(lindblad.edge_expectation((0, 1), n))
        cases.append(lindblad.diagonal_expectation(n))
        cases.append(lindblad.trace_expectation(n))
        cases.append(lindblad.block_pinching([list(range(2)), list(range(2, n))], n))
    cases.append(lindblad.fixed_point_dim(lindblad.pauli_system()).expectation)
    cases.append(lindblad.fixed_point_dim(lindblad.graph_lindblad(
        graphs.make_graph(2, [(0, 1)]))).expectation)
    for e in cases:
        n = e.dim
        eye = np.eye(n, dtype=complex)
        worst = max(worst, float(np.abs(e(eye) - eye).max()))
        for _ in range(trials):
            rho = random_state(rng, n)
            once = e(rho)
            worst = max(worst, float(np.abs(e(once) - once).max()))
            worst = max(worst, abs(np.trace(once).real - np.trace(rho).real))
            herm = 0.5 * (once + once.conj().T)
            worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(herm).min())))
            other = random_hermitian(rng, n)
            lhs = np.trace(e(rho).conj().T @ other)
            rhs = np.trace(rho.conj().T @ e(other))
            worst = max(worst, abs(lhs - rhs) / n)
    return BatteryResult("expectations", worst <= 1e-10, worst,
                         f"{len(cases)} expectations")


def battery_change_of_measure(trials: int = 30) -> BatteryResult:
    """Measure-comparison inequalities: with c2 <= mu1/mu2 <= c1,
    D^{mu1} <= c1 D^{mu2} and c2 I^{mu2} <= I^{mu1} on random fields."""
    rng = np.random.default_rng(26)
    worst = -np.inf
    for _ in range(trials):
        n = int(rng.integers(3, 6))
        base = _rand_connected_graph(rng, n, extra_edges=1)
        m1 = rng.uniform(0.5, 2.0, size=n)
        m1 /= m1.sum()
        m2 = rng.uniform(0.5, 2.0, size=n)
        m2 /= m2.sum()
        g1 = graphs.make_graph(n, [(u, v, w) for u, v, w in base.edges], m1)
        g2 = graphs.make_graph(n, [(u, v, w) for u, v, w in base.edges], m2)
        c1 = float(np.max(m1 / m2))
        c2 = float(np.min(m1 / m2))
        if rng.uniform() < 0.5:
            f = rng.uniform(0.2, 3.0, size=n)
        else:
            f = np.stack([_rand_positive(rng, 2, 0.2, 3.0) for _ in range(n)])
        worst = max(worst, entropy.entropy_graph(g1, f) - c1 * entropy.entropy_graph(g2, f))
        worst = max(worst, c2 * entropy.fisher_graph(g2, f) - entropy.fisher_graph(g1, f))
    return BatteryResult("change-of-measure", worst <= 1e-10, max(worst, 0.0),
                         f"{trials} measure pairs")


def battery_data_processing(trials: int = 50) -> BatteryResult:
    """D(P rho || P sigma) <= D(rho || sigma) for random block pinchings at
    dims <= 6."""
    rng = np.random.default_rng(27)
    worst = -np.inf
    for _ in range(trials):
        n = int(rng.integers(3, 7))
        split = int(rng.integers(1, n))
        pinch = lindblad.block_pinching([list(range(split)), list(range(split, n))], n)
        rho = random_state(rng, n)
        sigma = random_state(rng, n)
        before = entropy.rel_entropy(rho, sigma).value
        after = entropy.rel_entropy(pinch(rho), pinch(sigma)).value
        worst = max(worst, after - before)
    return BatteryResult("data-processing", worst <= 1e-10, max(worst, 0.0),
                         f"{trials} pinchings")


def battery_iter_chain(trials: int = 40) -> BatteryResult:
    """Chain rule for commuting pinchings:
    D(rho||E1 E2 rho) <= D(rho||E1 rho) + D(rho||E2 rho), and the p-relative
    version."""
    rng = np.random.default_rng(28)
    worst = -np.inf
    for _ in range(trials):
        n = 4
        e1 = lindblad.edge_expectation((0, 1), n)
        e2 = lindblad.edge_expectation((2, 3), n)
        both = lindblad.compose_pinchings([e1, e2])
        rho = random_state(rng, n)
        total = entropy.entropy_to_expectation(rho, both)
        parts = (entropy.entropy_to_expectation(rho, e1)
                 + entropy.entropy_to_expectation(rho, e2))
        worst = max(worst, total - parts)
        p = float(rng.uniform(1.1, 1.9))
        total_p = entropy.p_rel_entropy(rho, both(rho), p)
        parts_p = (entropy.p_rel_entropy(rho, e1(rho), p)
                   + entropy.p_rel_entropy(rho, e2(rho), p))
        worst = max(worst, total_p - parts_p)
    return BatteryResult("iter-chain", worst <= 1e-10, max(worst, 0.0),
                         f"{trials} trials")


def battery_scaling(trials: int = 30) -> BatteryResult:
    """Scaling covariance D(c rho||E(c rho)) = c D(rho||E rho) and
    I(c rho) = c I(rho), relative 1e-10."""
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        g = _rand_connected_graph(rng, n)
        s = lindblad.graph_lindblad(g)
        e_fix = lindblad.fixed_point_dim(s).expectation
        rho = random_state(rng, n)
        c = float(rng.uniform(0.2, 5.0))
        d1 = entropy.entropy_to_expectation(rho, e_fix)
        dc = entropy.entropy_to_expectation(c * rho, e_fix)
        worst = max(worst, abs(dc - c * d1) / max(c * abs(d1), 1e-12))
        i1 = entropy.fisher_lindblad(s, rho)
        ic = entropy.fisher_lindblad(s, c * rho)
        worst = max(worst, abs(ic - c * i1) / max(c * abs(i1), 1e-12))
    return BatteryResult("scaling", worst <= 1e-10, worst, f"{trials} trials")


def battery_tensorization() -> BatteryResult:
    """Fixed-point dimension of S1 (x) id + id (x) S2 equals the product of
    the factor dimensions (exact kernel computation)."""
    pauli = lindblad.pauli_system()
    k2 = lindblad.graph_lindblad(graphs.make_graph(2, [(0, 1)]))
    k3 = lindblad.graph_lindblad(graphs.make_graph(3, [(0, 1), (1, 2), (0, 2)]))
    ok = True
    details = []
    for s1, s2 in ((pauli, k3), (k2, pauli), (k2, k2)):
        n1, n2 = s1.dim, s2.dim
        gens = [np.kron(a, np.eye(n2)) for a in s1.generators]
        gens += [np.kron(np.eye(n1), b) for b in s2.generators]
        combined = spectral.superop_from_generators(gens)
        expected = (lindblad.fixed_point_dim(s1).dim
                    * lindblad.fixed_point_dim(s2).dim)
        got = lindblad.fixed_point_dim(combined).dim
        ok &= got == expected
        details.append(f"{n1}x{n2}: {got}")
    return BatteryResult("tensorization", ok, 0.0, ", ".join(details))


def battery_expo_decay(trials: int = 20) -> BatteryResult:
    """Fisher exponential decay on the two-level two-generator system:
    I(T_t rho) <= e^{-2t} I(rho) (1 + 1e-8) for t in [0, 2]."""
    rng = np.random.default_rng(31)
    s = lindblad.pauli_system()
    worst = -np.inf
    for _ in range(trials):
        rho = random_state(rng, 2)
        i0 = entropy.fisher_lindblad(s, rho)
        for t in np.linspace(0.0, 2.0, 9):
            it = entropy.fisher_lindblad(s, spectral.semigroup_apply(s, float(t), rho))
            worst = max(worst, it - math.exp(-2.0 * t) * i0 * (1.0 + 1e-8))
    return BatteryResult("expo-decay", worst <= 1e-10, max(worst, 0.0),
                         f"{trials} states, t in [0, 2]")


def battery_graph_bounds(trials: int = 40) -> BatteryResult:
    """Certified bounds battery: positivity on random connected graphs with
    2..12 vertices, cover self-verification, corollary dominated by the
    tree-general bound on uniform unit-weight graphs, Kruskal minimality
    against spanning-tree enumeration (n <= 8)."""
    import itertools

    rng = np.random.default_rng(32)
    ok = True
    worst = 0.0
    for trial in range(trials):
        n = int(rng.integers(2, 13))
        g = _rand_connected_graph(rng, n, extra_edges=int(rng.integers(0, 3)),
                                  weighted=trial % 3 == 1, measured=trial % 3 == 2)
        cert = graphs.certified_bound(g)
        ok &= cert.best > 0
        ok &= graphs.verify_cover(cert.cover, cert.cover.induced_tree_graph()).ok
        if g.is_uniform() and g.has_unit_weights() and "corollary-worst-case" in cert.bounds:
            gap = cert.bounds["corollary-worst-case"] - cert.bounds["tree-general"]
            worst = max(worst, gap)
        if n <= 8 and g.edge_count <= 14:
            best_total = None
            for subset in itertools.combinations(g.edges, n - 1):
                candidate = graphs.WeightedGraph(
                    n=n, edges=tuple(subset), measure=g.measure.copy())
                if graphs.is_connected(candidate):
                    total = sum(w for _, _, w in subset)
                    best_total = total if best_total is None else min(best_total, total)
            ok &= best_total is not None
            ok &= abs(sum(w for _, _, w in cert.tree.edges) - best_total) <= 1e-9
    return BatteryResult("graph-bounds", ok and worst <= 1e-15, worst,
                         f"{trials} random graphs")


REGISTRY: dict = {
    "doi-identity": battery_doi_identity,
    "quadrature": battery_quadrature,
    "entropy-interpolation": battery_entropy_interpolation,
    "doi-monotonicity": battery_doi_monotonicity,
    "edge-product": battery_edge_product,
    "diagonal-entropy-comparison": battery_diagonal_entropy_comparison,
    "diagonal-fisher-monotone": battery_diagonal_fisher_monotone,
    "pinching-p-sobolev": battery_pinching_p_sobolev,
    "p-limits": battery_p_limits,
    "fisher-forms": battery_fisher_forms,
    "fisher-derivative": battery_fisher_derivative,
    "constant-chain": battery_constant_chain,
    "gradient-estimate": battery_gradient_estimate,
    "kernel-dims": battery_kernel_dims,
    "semigroup": battery_semigroup,
    "expectations": battery_expectations,
    "change-of-measure": battery_change_of_measure,
    "data-processing": battery_data_processing,
    "iter-chain": battery_iter_chain,
    "scaling": battery_scaling,
    "tensorization": battery_tensorization,
    "expo-decay": battery_expo_decay,
    "graph-bounds": battery_graph_bounds,
}


def run_batteries(only: Optional[str] = None, trials: Optional[int] = None) -> list:
    """Run all (or one) named batteries, with an optional trial count that
    goes to each battery's ``trials`` parameter; a battery without one
    ignores it."""
    names = [only] if only else list(REGISTRY)
    results = []
    for name in names:
        if name not in REGISTRY:
            raise KeyError(
                f"unknown battery {name!r}; known: {', '.join(REGISTRY)}")
        fn = REGISTRY[name]
        if trials is not None and "trials" in inspect.signature(fn).parameters:
            results.append(fn(trials=trials))
        else:
            results.append(fn())
    return results
