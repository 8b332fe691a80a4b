"""Numeric MLSI/CpSI estimation by ratio minimization, entropy-decay curves,
and the orderings (``ordering_rows``) and sandwich harness that reconcile
certified bounds with brute-force estimates.

States are parametrized by ``spectral.gibbs_state``, rho(H) = n exp(H)/tr exp(H)
over Hermitian H (strictly positive, unit normalized trace by construction),
the local search is a deterministic L-BFGS on the exact gradient of the
matrix objectives and a deterministic Nelder-Mead on the classical one, and
restart r draws its start from a generator seeded with ``seed XOR r``.  The
L-BFGS restarts of one estimate run in lockstep (``_lockstep_lbfgs``, the
one L-BFGS driver): each search is a generator that yields its trial
points, and each round one call of the stacked value-gradient kernel
evaluates the pending points of every live search, so each search takes
the steps it would take alone.  Every reported value, per restart and best,
is the ratio objective at its parameters (the value-gradient kernel returns
the ``*_terms`` ratio bit for bit), hence a true upper bound on the
infimum.  Decay curves measure D(T_t rho0 || E rho0) with
``entropy.lindblad_rel_entropy``, the routine the batteries check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels, entropy, serialize
from .exceptions import DegenerateStartError, NumericalIntegrityError
from .graphs import WeightedGraph, certified_bound, graph_laplacian
from .lindblad import ConditionalExpectation, fixed_point_dim, graph_lindblad
from .spectral import (
    SpectralSuperoperator,
    gibbs_state,
    semigroup_apply,
    spectral_gap,
    tensor_with_identity,
    unvec,
    vec,
)

SANDWICH_BASE_SLACK = 1e-6
# Relative f-spread at which the classical Nelder-Mead search stops, and the
# slack of every ordering check (see ``ordering_holds``).
SEARCH_TOL = 1e-8
ORDERING_SLACK = SANDWICH_BASE_SLACK + SEARCH_TOL
DECAY_MONOTONE_TOL = 1e-10
DECAY_VALUE_FLOOR = 1e-12
# A decay grid whose fitted D values all lie within this many ulps of the
# largest shows no measurable decrease, and a rate fitted to it is rounding
# noise: moving a state by its own rounding (a traceless 1e-16 relative
# change) moved D by up to 15 ulps on the two-level zwitness and on random
# 3- and 4-level states.
DECAY_MIN_DROP_ULPS = 16
GAP_SEED_SCALE = 1e-3
# Local-search iteration budget per restart, the spread of a random start's
# Gaussian parameters, and the draws a restart may spend to leave the
# fixed-point manifold before it counts as degenerate.
MAX_ITERS = 2000
INIT_SCALE = 1.0
RESAMPLE_LIMIT = 10
# L-BFGS: curvature pairs kept, Armijo sufficient-decrease constant, step
# halvings per line search, and the stops on the relative decrease of f and
# on the gradient norm.
LBFGS_MEMORY = 10
ARMIJO_C1 = 1e-4
MAX_HALVINGS = 40
REL_DECREASE_TOL = 1e-12
GRAD_TOL = 1e-9


@dataclass(frozen=True)
class EstimateOptions:
    restarts: int = 200
    seed: int = 0

    def to_json_dict(self) -> dict:
        return {
            "restarts": self.restarts,
            "seed": self.seed,
            "tol": SEARCH_TOL,
            "max_iters": MAX_ITERS,
            "init_scale": INIT_SCALE,
            "resample_limit": RESAMPLE_LIMIT,
        }


@dataclass
class EstimateReport:
    """Outcome of one ratio minimization.

    ``value`` is a numeric upper bound on the target infimum; ``witness``
    is the state (or positive vertex function) realizing it, and
    ``witness_theta`` the raw parameter vector so the value can be
    reproduced bit-for-bit through the same objective.
    """

    target: str
    kind: str                     # "mlsi" | "cpsi" | "classical-mlsi"
    value: float
    fisher: float
    entropy: float
    witness: np.ndarray
    witness_theta: np.ndarray
    per_restart: list
    options: EstimateOptions
    p: Optional[float] = None

    def to_json_dict(self) -> dict:
        doc = {
            "schema_version": 1,
            "target": self.target,
            "kind": self.kind,
            "value": self.value,
            "fisher": self.fisher,
            "entropy": self.entropy,
            "restarts": self.options.restarts,
            "seed": self.options.seed,
            "backend": _kernels.BACKEND,
            "options": self.options.to_json_dict(),
            "per_restart": [v if math.isfinite(v) else None for v in self.per_restart],
            "witness_theta": serialize.vector_to_json(self.witness_theta),
        }
        if self.witness.ndim == 2:
            doc["witness"] = serialize.matrix_to_json(self.witness)
        else:
            doc["witness"] = serialize.vector_to_json(self.witness)
        if self.p is not None:
            doc["p"] = self.p
        return doc

    def to_json(self) -> str:
        return serialize.dumps(self.to_json_dict(), indent=2) + "\n"


def nelder_mead(fn: Callable[[np.ndarray], float], x0: np.ndarray,
                step: float = 0.25, tol: float = SEARCH_TOL,
                max_iters: int = MAX_ITERS):
    """Deterministic Nelder-Mead with the standard reflect/expand/contract/
    shrink moves; the running best value is monotone non-increasing and the
    search stops when the simplex f-spread falls below tol (relative) or the
    iteration budget runs out.  Returns (x_best, f_best, evaluations)."""
    d = len(x0)
    xs = [np.array(x0, dtype=float)]
    for i in range(d):
        x = np.array(x0, dtype=float)
        x[i] += step
        xs.append(x)
    fs = [fn(x) for x in xs]
    nfev = d + 1
    for _ in range(max_iters):
        order = np.argsort(fs, kind="stable")
        xs = [xs[i] for i in order]
        fs = [fs[i] for i in order]
        f_best, f_worst, f_second = fs[0], fs[-1], fs[-2]
        if np.isfinite(f_worst) and abs(f_worst - f_best) <= tol * (abs(f_best) + tol):
            break
        centroid = np.mean(xs[:-1], axis=0)
        reflected = centroid + (centroid - xs[-1])
        f_reflected = fn(reflected)
        nfev += 1
        if f_reflected < f_best:
            expanded = centroid + 2.0 * (centroid - xs[-1])
            f_expanded = fn(expanded)
            nfev += 1
            if f_expanded < f_reflected:
                xs[-1], fs[-1] = expanded, f_expanded
            else:
                xs[-1], fs[-1] = reflected, f_reflected
        elif f_reflected < f_second:
            xs[-1], fs[-1] = reflected, f_reflected
        else:
            contracted = centroid + 0.5 * (xs[-1] - centroid)
            f_contracted = fn(contracted)
            nfev += 1
            if f_contracted < f_worst:
                xs[-1], fs[-1] = contracted, f_contracted
            else:
                for i in range(1, d + 1):
                    xs[i] = xs[0] + 0.5 * (xs[i] - xs[0])
                    fs[i] = fn(xs[i])
                    nfev += 1
    best = int(np.argmin(fs))
    return xs[best], fs[best], nfev


def _lbfgs_search(x0: np.ndarray):
    """Deterministic limited-memory BFGS (two-loop recursion, Liu-Nocedal)
    with Armijo backtracking, as a generator that ``_lockstep_lbfgs`` drives:
    it yields each trial point x, is sent (f, gradient) at x, and returns
    (x_best, f_best, evaluations), so that several searches can share their
    evaluations.

    A non-finite f marks an excluded point, which the line search rejects
    like an insufficient decrease.  While no curvature pair is kept the step
    is min(1, 1/|g|) along -g; otherwise it starts at 1 along the
    quasi-Newton direction scaled by s.y/y.y.  Pairs with s.y <= 0 are not
    kept.  Every accepted f is below the last.  The search stops when the
    relative decrease of f falls to REL_DECREASE_TOL, the gradient norm to
    GRAD_TOL, no step passes the line search, the direction stops being a
    descent direction, or MAX_ITERS iterations have run."""
    x = np.array(x0, dtype=float)
    f, g = yield x
    nfev = 1
    if not math.isfinite(f):
        return x, f, nfev
    pairs = []  # (s, y, 1/s.y), oldest first
    for _ in range(MAX_ITERS):
        gnorm = math.sqrt(g.dot(g))
        if gnorm <= GRAD_TOL:
            break
        q = g.copy()
        alphas = []
        for s, y, r in reversed(pairs):
            a = r * s.dot(q)
            alphas.append(a)
            q -= a * y
        if pairs:
            s, y, _ = pairs[-1]
            q *= s.dot(y) / y.dot(y)
            for (s, y, r), a in zip(pairs, reversed(alphas)):
                q += (a - r * y.dot(q)) * s
            step = 1.0
        else:
            step = min(1.0, 1.0 / gnorm)
        slope = -g.dot(q)
        if not slope < 0.0:  # lost descent to rounding
            break
        for _ in range(MAX_HALVINGS + 1):
            x_new = x - step * q
            f_new, g_new = yield x_new
            nfev += 1
            if f_new <= f + ARMIJO_C1 * step * slope:  # False for inf and nan
                break
            step *= 0.5
        else:
            break
        s, y = x_new - x, g_new - g
        sy = s.dot(y)
        if sy > 0.0:
            pairs.append((s, y, 1.0 / sy))
            if len(pairs) > LBFGS_MEMORY:
                pairs.pop(0)
        f_old = f
        x, f, g = x_new, f_new, g_new
        if f_old - f <= REL_DECREASE_TOL * abs(f_old):
            break
    return x, f, nfev


def _lockstep_lbfgs(value_grads: Callable[[np.ndarray], tuple], starts) -> list:
    """One ``_lbfgs_search`` from each start, run in lockstep: each round the
    pending trial points of the live searches go to ``value_grads`` as one
    (R, d) stack, which returns R values and an (R, d) complex array whose
    rows' real parts are the gradients.  Returns each search's (x_best,
    f_best, evaluations), in start order; every search takes exactly the
    steps it would take from its start alone, as a stack of one."""
    searches = [_lbfgs_search(x0) for x0 in starts]
    pending = {i: next(search) for i, search in enumerate(searches)}
    results = [None] * len(searches)
    while pending:
        live = list(pending)
        values, grads = value_grads(np.array([pending[i] for i in live]))
        for row, i in enumerate(live):
            try:
                pending[i] = searches[i].send((values[row], grads[row].real))
            except StopIteration as stop:
                results[i] = stop.value
                del pending[i]
    return results


def _expectation_matrix(e_fix, n: int) -> np.ndarray:
    if isinstance(e_fix, ConditionalExpectation):
        mat = e_fix.superop_matrix()
    else:
        mat = np.asarray(e_fix, dtype=complex)
    if mat.shape != (n * n, n * n):
        raise ValueError(
            f"fixed-point projection must be {n*n}x{n*n}, got {mat.shape}")
    return np.ascontiguousarray(mat)


class _MatrixObjective:
    """Callable wrapper binding a superoperator and fixed-point projection
    to the MLSI or p-Sobolev ratio objective of ``_kernels``."""

    def __init__(self, s: SpectralSuperoperator, e_fix, p: Optional[float] = None):
        self.n = s.dim
        self.superop = np.ascontiguousarray(s.matrix, dtype=complex)
        self.eproj = _expectation_matrix(e_fix, s.dim)
        self.p = p

    def terms(self, theta: np.ndarray):
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        if self.p is None:
            return _kernels.mlsi_terms(theta, self.superop, self.eproj, self.n)
        return _kernels.cpsi_terms(theta, self.superop, self.eproj, self.n, self.p)

    def __call__(self, theta: np.ndarray) -> float:
        return self.terms(theta)[0]

    def value_grads(self, thetas: np.ndarray):
        """Per-row ratios and complex gradient rows (real part the gradient)
        over an (R, dof) stack of parameter vectors."""
        return _kernels._ratio_value_grad(thetas, self.superop, self.eproj, self.n, self.p)

    def dof(self) -> int:
        return self.n * self.n

    def witness(self, theta: np.ndarray) -> np.ndarray:
        return gibbs_state(_kernels.hermitian_from_params(theta, self.n))


class _ClassicalObjective:
    """Ratio of the edge Fisher information to the entropy against the
    measure average, over positive vertex functions f = exp(theta)."""

    def __init__(self, g: WeightedGraph):
        self.g = g
        self.mu = np.ascontiguousarray(g.measure, dtype=np.float64)
        self.incidence = np.zeros((g.edge_count, g.n))
        self.edge_c = np.empty(g.edge_count)
        for e, (u, v, w) in enumerate(g.edges):
            self.incidence[e, u], self.incidence[e, v] = -1.0, 1.0
            self.edge_c[e] = w * (self.mu[u] + self.mu[v])

    def terms(self, theta: np.ndarray):
        theta = np.ascontiguousarray(theta, dtype=np.float64)
        return _kernels.classical_terms(theta, self.mu, self.incidence, self.edge_c)

    def __call__(self, theta: np.ndarray) -> float:
        return self.terms(theta)[0]

    def dof(self) -> int:
        return self.g.n

    def witness(self, theta: np.ndarray) -> np.ndarray:
        return np.exp(np.asarray(theta, dtype=float))


# Where an eigenvalue ratio rounds r - 1 to -1, the Bregman kernels take
# log1p(-1) = -inf: a non-finite objective, an excluded point the searches
# reject.  numpy's warning on it is silenced once per multistart.
@np.errstate(divide="ignore", invalid="ignore")
def _multistart(objective, opts: EstimateOptions, target: str, kind: str,
                extra_starts: Sequence[np.ndarray],
                p: Optional[float] = None) -> EstimateReport:
    """Draw every start (the extra starts, then restart r from ``seed XOR
    r``), run the local searches from them, L-BFGS in lockstep for a matrix
    objective and Nelder-Mead one by one for the classical one, and report
    the best.  A restart whose draws never leave the fixed-point manifold is
    degenerate: inf in ``per_restart``, and no search."""
    dof = objective.dof()
    starts = [np.asarray(t, dtype=float) for t in extra_starts]
    for theta0 in starts:
        if len(theta0) != dof:
            raise ValueError(f"extra start has length {len(theta0)}, expected {dof}")
    for r in range(opts.restarts):
        rng = np.random.default_rng(np.uint64(opts.seed) ^ np.uint64(r))
        theta0 = None
        for _ in range(RESAMPLE_LIMIT):
            cand = rng.normal(scale=INIT_SCALE, size=dof)
            if np.isfinite(objective(cand)):
                theta0 = cand
                break
        starts.append(theta0)

    live = [theta0 for theta0 in starts if theta0 is not None]
    if isinstance(objective, _MatrixObjective):
        found = iter(_lockstep_lbfgs(objective.value_grads, live))
    else:
        found = iter([nelder_mead(objective, theta0) for theta0 in live])
    per_restart = []
    best_value = np.inf
    best_theta = None
    for theta0 in starts:
        if theta0 is None:
            per_restart.append(np.inf)
            continue
        theta, value, _ = next(found)
        per_restart.append(float(value))
        if value < best_value:
            best_value = value
            best_theta = theta

    if best_theta is None or not np.isfinite(best_value):
        degenerate = len(starts) - len(live)
        raise DegenerateStartError(
            f"all {opts.restarts} restarts landed on the fixed-point manifold "
            f"({degenerate} never left it)")

    ratio, fisher, divergence = objective.terms(best_theta)
    return EstimateReport(target=target, kind=kind, value=float(ratio),
                          fisher=float(fisher), entropy=float(divergence),
                          witness=objective.witness(best_theta),
                          witness_theta=np.asarray(best_theta, dtype=float),
                          per_restart=per_restart, options=opts, p=p)


def mlsi_estimate(s: SpectralSuperoperator, e_fix, opts: Optional[EstimateOptions] = None,
                  extra_starts: Sequence[np.ndarray] = (),
                  target: str = "") -> EstimateReport:
    """Multistart upper estimate of the MLSI constant inf I(rho)/D(rho||E rho)."""
    opts = opts or EstimateOptions()
    objective = _MatrixObjective(s, e_fix)
    return _multistart(objective, opts, target or s.label or "superoperator",
                       "mlsi", extra_starts)


def cpsi_estimate(s: SpectralSuperoperator, e_fix, p: float,
                  opts: Optional[EstimateOptions] = None,
                  extra_starts: Sequence[np.ndarray] = (),
                  target: str = "") -> EstimateReport:
    """Multistart upper estimate of the p-Sobolev constant
    inf I^p(rho)/d^p(rho||E rho) for p in (1, 2)."""
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    opts = opts or EstimateOptions()
    objective = _MatrixObjective(s, e_fix, p=p)
    return _multistart(objective, opts, target or s.label or "superoperator",
                       "cpsi", extra_starts, p=p)


def classical_mlsi_estimate(g: WeightedGraph, opts: Optional[EstimateOptions] = None,
                            extra_starts: Sequence[np.ndarray] = (),
                            target: str = "") -> EstimateReport:
    """Estimate over diagonal (classical) states of the graph generator.

    This is an MLSI-only estimate: whether amplified diagonal states can
    push the classical infimum lower is not settled, so reports label it
    separately from the matrix estimate.
    """
    opts = opts or EstimateOptions()
    objective = _ClassicalObjective(g)
    return _multistart(objective, opts, target or f"graph(n={g.n})",
                       "classical-mlsi", extra_starts)


def evaluate_ratio(s: SpectralSuperoperator, e_fix, theta: np.ndarray,
                   p: Optional[float] = None):
    """Re-evaluate the exact objective at a parameter vector (used to confirm
    reported values reproduce)."""
    return _MatrixObjective(s, e_fix, p=p).terms(np.asarray(theta, dtype=float))


def clsi_probe(s: SpectralSuperoperator, e_fix, m: int,
               opts: Optional[EstimateOptions] = None,
               target: str = "") -> EstimateReport:
    """MLSI estimate of S (x) id on M_n (x) M_m: by definition these values
    are non-increasing in m and probe the complete (amplified) constant.

    For m >= 2 the unamplified witness is embedded as rho (x) 1 and used as
    a warm start, so the probe never reports more than the m = 1 value (up
    to local-search refinement).
    """
    if m < 1:
        raise ValueError("amplification must be >= 1")
    if m * s.dim > 12:
        raise ValueError(f"amplified dimension {m * s.dim} exceeds the cap 12")
    opts = opts or EstimateOptions()
    if m == 1:
        return mlsi_estimate(s, e_fix, opts, target=target or f"{s.label}[m=1]")
    base = mlsi_estimate(s, e_fix, opts, target=f"{s.label}[m=1]")
    h_base = _kernels.hermitian_from_params(base.witness_theta, s.dim)
    embedded = _kernels.params_from_hermitian(np.kron(h_base, np.eye(m)))
    nm = s.dim * m
    lifted = SpectralSuperoperator.from_matrix(
        tensor_with_identity(s.matrix, s.dim, m), nm,
        label=f"{s.label}(x)id_{m}")
    eproj = tensor_with_identity(_expectation_matrix(e_fix, s.dim), s.dim, m)
    return mlsi_estimate(lifted, eproj, opts, extra_starts=[embedded],
                         target=target or lifted.label)


@dataclass(frozen=True)
class DecayCurve:
    ts: np.ndarray
    values: np.ndarray
    log_values: np.ndarray
    fitted_rate: float

    def to_csv(self) -> str:
        return serialize.decay_csv(self.ts, self.values, self.log_values)


def decay_curve(s: SpectralSuperoperator, e_fix, rho0, t_grid) -> DecayCurve:
    """Entropy decay rows (t, D(T_t rho0 || E rho0), ln D) and the
    least-squares rate of ln D.  Only points with D above DECAY_VALUE_FLOOR
    enter the fit, and at least two must; below it ln D is nan.  The grid
    must be finite, the 2-norm of its fitted times a positive finite float,
    D non-increasing along it and, over the fitted points, lower by more
    than DECAY_MIN_DROP_ULPS ulps of the largest, and every state on it must
    clear the positivity floor of ``entropy.lindblad_rel_entropy``."""
    rho0 = np.asarray(rho0, dtype=complex)
    n = s.dim
    if np.linalg.eigvalsh(0.5 * (rho0 + rho0.conj().T)).min() <= 0:
        raise ValueError("initial state must be strictly positive")
    e_mat = _expectation_matrix(e_fix, n)
    sigma = unvec(e_mat @ vec(rho0), n)
    sigma = 0.5 * (sigma + sigma.conj().T)
    sigma *= n / np.trace(sigma).real
    if np.linalg.eigvalsh(sigma).min() <= 0:
        raise NumericalIntegrityError("fixed-point projection is not positive")

    ts = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError("t grid must be finite")
    if len(ts) < 2 or np.any(np.diff(ts) <= 0):
        raise ValueError("t grid must be strictly increasing with >= 2 points")
    if ts[0] < 0:
        raise ValueError("t grid must be nonnegative")
    d0 = entropy.lindblad_rel_entropy(rho0, sigma)
    if d0 < DECAY_VALUE_FLOOR:
        raise DegenerateStartError(
            f"initial state is a fixed point (D = {d0:.3e})")

    values = np.asarray([
        entropy.lindblad_rel_entropy(semigroup_apply(s, float(t), rho0), sigma)
        for t in ts])
    rises = np.diff(values)
    if np.any(rises > DECAY_MONOTONE_TOL):
        worst = float(rises.max())
        raise NumericalIntegrityError(
            f"relative entropy increased by {worst:.3e} along the semigroup")

    keep = values > DECAY_VALUE_FLOOR
    if keep.sum() < 2:
        raise ValueError(f"fewer than two points of the t grid have D above "
                         f"{DECAY_VALUE_FLOOR:g}: no rate to fit")
    # np.polyfit divides the t column by its 2-norm, taken as the root of a
    # sum of squares, which must neither underflow to 0 nor overflow.
    with np.errstate(over="ignore"):
        t_norm = math.sqrt((ts[keep] ** 2).sum())
    if not 0.0 < t_norm < math.inf:
        raise ValueError(f"the times of the t grid are too small or too large "
                         f"to fit a rate: their 2-norm rounds to {t_norm:g}")
    fitted = values[keep]
    if fitted.max() - fitted.min() <= DECAY_MIN_DROP_ULPS * np.spacing(fitted.max()):
        raise ValueError(f"D falls by at most {DECAY_MIN_DROP_ULPS} ulps along the "
                         f"t grid: no measurable decrease to fit a rate to")
    log_values = np.where(keep, np.log(np.clip(values, 1e-300, None)), np.nan)
    rate = -float(np.polyfit(ts[keep], np.log(fitted), 1)[0])
    return DecayCurve(ts=ts, values=values, log_values=log_values, fitted_rate=rate)


def gap_seed_matrix(s: SpectralSuperoperator) -> np.ndarray:
    """Parameters of a near-fixed-point start, whose ratio sits at 2*gap,
    along a unit-norm Hermitian h in the spectral-gap eigenspace: the
    Hermitian part of the unit gap eigenvector b, or i times its
    anti-Hermitian part where the first is below 1e-6 (the two parts are
    orthogonal, so that one then has norm ~1)."""
    b = unvec(s.eigenvectors[:, np.where(s.eigenvalues > 1e-9)[0][0]], s.dim)
    h = 0.5 * (b + b.conj().T)
    if np.linalg.norm(h) < 1e-6:
        h = 0.5j * (b - b.conj().T)
    return _kernels.params_from_hermitian(GAP_SEED_SCALE * (h / np.linalg.norm(h)))


def gap_seed_classical(a: np.ndarray) -> np.ndarray:
    """Classical analogue: exp(eps * gap eigenvector) of the graph generator."""
    w, u = np.linalg.eigh(a)
    idx = np.where(w > 1e-9)[0][0]
    return GAP_SEED_SCALE * u[:, idx]


def ordering_holds(lhs: float, rhs: float) -> bool:
    """lhs <= rhs up to ORDERING_SLACK * max(1, |rhs|), with the fixed
    ORDERING_SLACK = SANDWICH_BASE_SLACK + SEARCH_TOL (1e-6 + 1e-8):
    absolute while |rhs| <= 1, relative above, so rounding in a large rate
    is not read as a violation."""
    return bool(lhs <= rhs + ORDERING_SLACK * max(1.0, abs(rhs)))


def ordering_rows(triples) -> list:
    """(name, lhs, rhs, ok) rows, ok by ``ordering_holds``, of (name, lhs, rhs)
    triples; a triple whose lhs (a certificate) is None has no row."""
    return [(name, float(lhs), float(rhs), ordering_holds(float(lhs), float(rhs)))
            for name, lhs, rhs in triples if lhs is not None]


def target_orderings(report: EstimateReport, gap: float, certified=None) -> list:
    """The ordering rows of a target's estimate: estimate <= 2*gap and, when
    the target carries a certified lower bound, certified <= estimate; none
    for a p-Sobolev estimate."""
    return [] if report.p is not None else ordering_rows([
        ("estimate<=2*gap", report.value, 2.0 * gap),
        ("certified<=estimate", certified, report.value)])


@dataclass
class SandwichReport:
    """Certified bounds vs numeric estimates vs spectral-gap caps for one
    graph, with every required ordering."""

    graph_label: str
    certificate_best: float
    lindblad_certified: float
    classical: EstimateReport
    matrix: EstimateReport
    gap_classical: float
    gap_matrix: float
    orderings: list  # (name, lhs, rhs, ok)

    @property
    def passed(self) -> bool:
        return all(ok for _, _, _, ok in self.orderings)

    @property
    def failed_pairs(self) -> list:
        return [name for name, _, _, ok in self.orderings if not ok]

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph_label,
            "certificate_best": self.certificate_best,
            "lindblad_certified": self.lindblad_certified,
            "classical_estimate": self.classical.value,
            "matrix_estimate": self.matrix.value,
            "gap_classical": self.gap_classical,
            "gap_matrix": self.gap_matrix,
            "slack": ORDERING_SLACK,
            "orderings": [
                {"name": name, "lhs": lhs, "rhs": rhs, "ok": ok}
                for name, lhs, rhs, ok in self.orderings
            ],
            "passed": self.passed,
        }

    def to_json(self) -> str:
        """The ``estimate --graph --out`` document: this summary, then the
        two estimates' reports, each ending with the summary as "sandwich"."""
        def nest(report):
            return dict(report.to_json_dict(), sandwich=self.to_json_dict())
        doc = dict(self.to_json_dict(), schema_version=1, matrix_report=nest(self.matrix),
                   classical_report=nest(self.classical))
        return serialize.dumps(doc, indent=2) + "\n"


def sandwich_check(g: WeightedGraph, opts: Optional[EstimateOptions] = None,
                   label: str = "") -> SandwichReport:
    """Assemble certified bounds, classical and matrix numeric estimates, and
    spectral gaps for a connected graph, then assert the ordering chain:

        lindblad-certified <= matrix estimate,
        matrix estimate <= classical estimate (diagonal states are a subset),
        graph-certified <= classical estimate,
        classical estimate <= 2 * classical gap,
        matrix estimate <= 2 * matrix gap,

    each by ``ordering_holds``: up to the fixed ORDERING_SLACK, scaled by
    the right-hand side where that exceeds 1 (the report stores the
    unscaled slack).  The matrix search is warm started with the classical
    witness embedded diagonally, so the subset ordering is inherited rather
    than hoped for.  ``graph_lindblad`` and ``graph_laplacian`` ignore the
    measure, so a non-uniform one, under which two orderings fail, raises
    ValueError before any search.
    """
    opts = opts or EstimateOptions()
    cert = certified_bound(g)  # first, so a disconnected graph of any size says so
    if g.n > 5:
        raise ValueError("sandwich harness is desk-scale: n <= 5")
    if not g.is_uniform():
        raise ValueError("the sandwich check needs a uniform measure: the "
                         "matrix generator and the classical gap ignore it")

    a = graph_laplacian(g)
    gap_c = spectral_gap(a)
    classical = classical_mlsi_estimate(
        g, opts, extra_starts=[gap_seed_classical(a)], target=label or f"graph(n={g.n})")

    s = graph_lindblad(g)
    gap_m = spectral_gap(s)
    e_fix = fixed_point_dim(s).expectation
    diag_embed = np.zeros(g.n * g.n)
    diag_embed[:g.n] = np.log(classical.witness)
    matrix = mlsi_estimate(s, e_fix, opts, extra_starts=[diag_embed, gap_seed_matrix(s)],
                           target=(label or f"graph(n={g.n})") + ":matrix")

    orderings = ordering_rows([
        ("lindblad-certified<=matrix-estimate", cert.lindblad_lower, matrix.value),
        ("matrix-estimate<=classical-estimate", matrix.value, classical.value),
        ("graph-certified<=classical-estimate", cert.best, classical.value),
        ("classical-estimate<=2*classical-gap", classical.value, 2.0 * gap_c),
        ("matrix-estimate<=2*matrix-gap", matrix.value, 2.0 * gap_m),
    ])
    return SandwichReport(
        graph_label=label or f"graph(n={g.n},edges={g.edge_count})",
        certificate_best=cert.best,
        lindblad_certified=cert.lindblad_lower,
        classical=classical,
        matrix=matrix,
        gap_classical=gap_c,
        gap_matrix=gap_m,
        orderings=orderings,
    )
