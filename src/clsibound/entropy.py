"""Entropy and Fisher-information functionals, classical (graph) and quantum
(matrix), with their p-variants.

All quantum functionals use the normalized trace tau = tr/n.  Relative
entropies are evaluated through the eigenbasis-overlap Bregman form

    D_Lin(rho||sigma) = (1/n) sum_ij S_ij q_j h(p_i / q_j),
    h(r) = r ln r - r + 1,   S_ij = |<u_i|v_j>|^2,

a sum of nonnegative terms, so values stay accurate even at 1e-12 scale
(important for ratio minimization near the fixed-point manifold).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import bregman, bregman_power
from .exceptions import ConsistencyError, PositivityError
from .graphs import WeightedGraph
from .spectral import (
    POSITIVITY_FLOOR,
    ScalarKernel,
    SpectralDecomposition,
    SpectralSuperoperator,
    doi_apply,
    matrix_log,
    positive_eigs,
    require_hermitian,
)

STATE_TRACE_TOL = 1e-10
FISHER_FORM_TOL = 1e-6


def _overlap(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.abs(u.conj().T @ v) ** 2


@dataclass(frozen=True)
class RelEntropyResult:
    """Relative entropy value with an explicit +infinity flag (support
    failure is a value, never a float sentinel)."""

    finite: bool
    value: float


def lindblad_rel_entropy(rho, sigma) -> float:
    """D_Lin(rho||sigma) = tau(rho ln rho - rho ln sigma - rho + sigma) for
    strictly positive pairs; zero iff rho == sigma."""
    dr = positive_eigs(rho, "lindblad_rel_entropy rho")
    ds = positive_eigs(sigma, "lindblad_rel_entropy sigma")
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    s = _overlap(dr.eigenvectors, ds.eigenvectors)
    p = dr.eigenvalues[:, None]
    q = ds.eigenvalues[None, :]
    return float((s * q * bregman(p / q)).sum()) / rho.shape[0]


def rel_entropy(rho, sigma, support_tol: float = 1e-12) -> RelEntropyResult:
    """Quantum relative entropy tau(rho ln rho - rho ln sigma).

    sigma may be singular: if rho has mass on the kernel of sigma the result
    is the +infinity flag.
    """
    rho = require_hermitian(rho, what="rel_entropy rho")
    sigma = require_hermitian(sigma, what="rel_entropy sigma")
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    n = rho.shape[0]
    dr = positive_eigs(rho, "rel_entropy rho")
    ws, vs = np.linalg.eigh(sigma)
    if ws[-1] <= 0:
        return RelEntropyResult(finite=False, value=np.inf)
    support = ws > support_tol * ws[-1]
    kernel_mass = float(np.einsum(
        "ji,jk,ki->", vs[:, ~support].conj(), rho, vs[:, ~support]).real)
    if kernel_mass > support_tol * max(1.0, float(np.trace(rho).real)):
        return RelEntropyResult(finite=False, value=np.inf)
    q = ws[support]
    s = _overlap(dr.eigenvectors, vs[:, support])
    p = dr.eigenvalues[:, None]
    d_lin = float((s * q[None, :] * bregman(p / q[None, :])).sum()) / n
    value = d_lin + (float(np.trace(rho).real) - float(ws.sum())) / n
    return RelEntropyResult(finite=True, value=value)


def entropy_to_expectation(rho, expectation) -> float:
    """D(rho || E(rho)) for a trace-preserving idempotent expectation E."""
    rho = require_hermitian(rho, what="entropy_to_expectation rho")
    sigma = expectation(rho)
    sigma = 0.5 * (sigma + sigma.conj().T)
    w = np.linalg.eigvalsh(sigma)
    if w[0] <= POSITIVITY_FLOOR:
        raise ConsistencyError(
            f"conditional expectation produced a non-positive output "
            f"(min eigenvalue {w[0]:.6e})")
    return lindblad_rel_entropy(rho, sigma)


def p_rel_entropy(rho, sigma, p: float) -> float:
    """d^p(rho||sigma) = tau(rho^p - sigma^p) - p tau((rho-sigma) sigma^(p-1))
    for p in (1, 2)."""
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    dr = positive_eigs(rho, "p_rel_entropy rho")
    ds = positive_eigs(sigma, "p_rel_entropy sigma")
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    s = _overlap(dr.eigenvectors, ds.eigenvectors)
    pv = dr.eigenvalues[:, None]
    qv = ds.eigenvalues[None, :]
    return float((s * bregman_power(pv, qv, p)).sum()) / rho.shape[0]


def _centered_spectral_product(s: SpectralSuperoperator, rho_dec: SpectralDecomposition,
                               values: np.ndarray) -> float:
    """tau(S(rho) * U diag(values - mean) U*): the constant shift is free
    because S(rho) is traceless, and centering removes the large-term
    cancellation in the trace product."""
    u = rho_dec.eigenvectors
    g = (u * (values - values.mean())) @ u.conj().T
    a = s.apply(rho_dec.reconstruct())
    return float(np.einsum("ij,ji->", a, g).real) / s.dim


def _check_derivation_form(s: SpectralSuperoperator, rho, kernel: ScalarKernel,
                           weight: float, value: float, what: str) -> None:
    """When ``s`` carries generators, ``value`` must match the derivation
    form weight * sum_k tau(d_k Q^rho(d_k)), d_k = i[a_k, rho], within
    FISHER_FORM_TOL (internal-consistency error otherwise)."""
    if not s.generators:
        return
    alt = 0.0
    for a in s.generators:
        d = 1j * (a @ rho - rho @ a)
        alt += float(np.trace(d @ doi_apply(rho, rho, kernel, d)).real) / s.dim
    alt *= weight
    if abs(alt - value) > FISHER_FORM_TOL * max(1.0, abs(value)):
        raise ConsistencyError(
            f"{what} forms disagree: spectral {value!r} vs derivation {alt!r}")


def fisher_lindblad(s: SpectralSuperoperator, rho) -> float:
    """Fisher information (entropy production) I(rho) = tau(S(rho) ln rho).

    When the superoperator carries a generator list the derivation form
    sum_k tau(d_k Q^rho(d_k)) with d_k = i[a_k, rho] is computed as well and
    the two must agree within 1e-6 (internal-consistency error otherwise).
    """
    dec = positive_eigs(rho, "fisher_lindblad rho")
    value = _centered_spectral_product(s, dec, np.log(dec.eigenvalues))
    _check_derivation_form(s, rho, ScalarKernel.log_quotient(), 1.0, value, "Fisher")
    return value


def p_fisher(s: SpectralSuperoperator, rho, p: float) -> float:
    """p-Fisher information I^p(rho) = p tau(S(rho) rho^(p-1)), p in (1, 2),
    cross-checked against the derivation form with the power-quotient kernel
    when generators are available."""
    if not 1.0 < p < 2.0:
        raise ValueError(f"p must lie in (1, 2), got {p}")
    dec = positive_eigs(rho, "p_fisher rho")
    value = p * _centered_spectral_product(s, dec, dec.eigenvalues ** (p - 1.0))
    _check_derivation_form(s, rho, ScalarKernel.power_quotient(p), p, value, "p-Fisher")
    return value


def _field_blocks(g: WeightedGraph, f) -> np.ndarray:
    """Normalize a vertex field to shape (n, m, m); scalars become 1x1
    blocks."""
    arr = np.asarray(f)
    if arr.shape == (g.n,):
        arr = arr.reshape(g.n, 1, 1).astype(complex)
    elif arr.ndim == 3 and arr.shape[0] == g.n and arr.shape[1] == arr.shape[2]:
        arr = arr.astype(complex)
    else:
        raise ValueError(
            f"field must have shape ({g.n},) or ({g.n}, m, m), got {arr.shape}")
    for x in range(g.n):
        w = np.linalg.eigvalsh(require_hermitian(arr[x], what=f"field block {x}"))
        if w[0] <= POSITIVITY_FLOOR:
            raise PositivityError(
                f"field block {x} min eigenvalue {w[0]:.6e} not positive")
    return arr


def fisher_graph(g: WeightedGraph, f) -> float:
    """Edge Fisher information of a positive vertex field:
    sum_x mu(x) sum_{y ~ x} w_yx tau((f(y)-f(x))(ln f(y)-ln f(x))),
    ordered pairs counted from both endpoints."""
    blocks = _field_blocks(g, f)
    m = blocks.shape[1]
    logs = [matrix_log(blocks[x]) for x in range(g.n)]
    total = 0.0
    for u, v, w in g.edges:
        df = blocks[v] - blocks[u]
        dl = logs[v] - logs[u]
        term = float(np.trace(df @ dl).real) / m
        total += w * (g.measure[u] + g.measure[v]) * term
    return total


def entropy_graph(g: WeightedGraph, f, normalized: bool = False) -> float:
    """Relative entropy of a field against its measure average:
    sum_x mu(x) tau_m(f(x)(ln f(x) - ln xi)) with xi = sum_x mu(x) f(x)."""
    blocks = _field_blocks(g, f)
    m = blocks.shape[1]
    if normalized:
        mass = sum(g.measure[x] * float(np.trace(blocks[x]).real) / m
                   for x in range(g.n))
        if abs(mass - 1.0) > STATE_TRACE_TOL:
            raise ValueError(f"field flagged normalized has mass {mass!r}")
    xi = np.einsum("x,xij->ij", g.measure, blocks)
    ds = positive_eigs(xi, "entropy_graph average")
    total = 0.0
    for x in range(g.n):
        dr = positive_eigs(blocks[x], f"entropy_graph block {x}")
        s = _overlap(dr.eigenvectors, ds.eigenvectors)
        p = dr.eigenvalues[:, None]
        q = ds.eigenvalues[None, :]
        total += g.measure[x] * float((s * q * bregman(p / q)).sum()) / m
    return total


def entropy_interpolation_check(rho, sigma, points: int = 64) -> float:
    """Residual of the interpolation identity

        int_0^1 tau((rho-sigma) Q^{g(t)}(rho-sigma)) dt
            = tau((rho-sigma)(ln rho - ln sigma)),

    g(t) = (1-t) rho + t sigma, Q the log-quotient DOI; Gauss-Legendre with
    ``points`` nodes on the left."""
    rho = require_hermitian(rho, what="interpolation rho")
    sigma = require_hermitian(sigma, what="interpolation sigma")
    delta = rho - sigma
    kernel = ScalarKernel.log_quotient()
    nodes, weights = np.polynomial.legendre.leggauss(points)
    ts = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    lhs = 0.0
    for t, w in zip(ts, ws):
        gt = (1.0 - t) * rho + t * sigma
        lhs += w * float(np.trace(delta @ doi_apply(gt, gt, kernel, delta)).real)
    lhs /= rho.shape[0]
    rhs = float(np.trace(delta @ (matrix_log(rho) - matrix_log(sigma))).real) / rho.shape[0]
    return abs(lhs - rhs)
