"""Graph-indexed matrix generators and conditional expectations: edge
antisymmetric generators, the graph double-commutator generator on M_n,
Schur-mask pinchings, kernel projections, collective multi-site systems, and
the worked two-level examples.

The n = 2 single-edge case is a documented anomaly: the commutant of the one
edge generator in M_2 is two-dimensional, so the fixed-point dimension is 2
there (and the edge-product identity below needs n >= 3).  Nothing in this
module assumes ergodicity; kernels are always computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .exceptions import PositivityError
from .graphs import WeightedGraph
from .spectral import (
    KERNEL_EIG_TOL,
    ScalarKernel,
    SpectralSuperoperator,
    doi_apply,
    require_hermitian,
    semigroup_apply,
    superop_from_generators,
    vec,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

COLLECTIVE_DIM_CAP = 64
SPHERE_TRANSFER_CONSTANT = 1.0 / (5.0 * math.pi ** 2)


@dataclass(frozen=True)
class EdgeGenerator:
    """Antisymmetric edge generator X_e = |r><s| - |s><r| and its Hermitian
    companion x_e = i X_e (spectrum {-1, 0, 1})."""

    edge: tuple
    n: int
    antisymmetric: np.ndarray
    hermitian: np.ndarray


def edge_generator(e, n: int) -> EdgeGenerator:
    r, s = e
    if not (0 <= r < s < n):
        raise ValueError(f"edge {e!r} out of range for n={n} (need 0 <= r < s < n)")
    x = np.zeros((n, n))
    x[r, s] = 1.0
    x[s, r] = -1.0
    return EdgeGenerator(edge=(r, s), n=n, antisymmetric=x,
                         hermitian=(1j * x).astype(complex))


class ConditionalExpectation:
    """Idempotent, unital, trace-preserving positive projection.

    Two internal representations cover every case used here: a 0/1 Schur
    mask (edge, diagonal, sign-flip and custom pinchings) or an orthonormal
    matrix basis of the range (kernel projections, trace).
    """

    def __init__(self, kind: str, dim: int, mask: Optional[np.ndarray] = None,
                 basis: Optional[np.ndarray] = None, label: str = ""):
        if (mask is None) == (basis is None):
            raise ValueError("exactly one of mask/basis is required")
        self.kind = kind
        self.dim = dim
        self.mask = None if mask is None else np.asarray(mask, dtype=float)
        self.basis = None if basis is None else np.asarray(basis, dtype=complex)
        self.label = label or kind

    def __call__(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if self.mask is not None:
            return self.mask * rho
        weights = np.einsum("kij,ij->k", self.basis.conj(), rho)
        return np.einsum("k,kij->ij", weights, self.basis)

    def superop_matrix(self) -> np.ndarray:
        """The projection as an n^2 x n^2 matrix on vectorized inputs."""
        n = self.dim
        if self.mask is not None:
            return np.diag(vec(self.mask.astype(complex)))
        vecs = np.stack([vec(b) for b in self.basis])
        return vecs.T @ vecs.conj()

    def __repr__(self):
        return f"ConditionalExpectation({self.label}, dim={self.dim})"


def edge_expectation(e, n: int) -> ConditionalExpectation:
    """Schur-mask pinching onto the {r,s} block plus its complement block;
    the cross entries are zeroed."""
    r, s = e
    if not (0 <= r < s < n):
        raise ValueError(f"edge {e!r} out of range for n={n}")
    inside = np.zeros(n, dtype=bool)
    inside[[r, s]] = True
    mask = (inside[:, None] == inside[None, :]).astype(float)
    return ConditionalExpectation("edge", n, mask=mask, label=f"edge({r},{s})")


def diagonal_expectation(n: int) -> ConditionalExpectation:
    return ConditionalExpectation("diagonal", n, mask=np.eye(n), label="diagonal")


def trace_expectation(n: int) -> ConditionalExpectation:
    basis = (np.eye(n, dtype=complex) / np.sqrt(n))[None, :, :]
    return ConditionalExpectation("trace", n, basis=basis, label="trace")


def pinching(mask, label: str = "pinching") -> ConditionalExpectation:
    """Custom Schur-mask pinching; the mask must be symmetric 0/1 with unit
    diagonal and PSD (a block-partition indicator)."""
    mask = np.asarray(mask, dtype=float)
    n = mask.shape[0]
    if not np.array_equal(mask, mask.T) or not np.all(np.diag(mask) == 1.0):
        raise ValueError("pinching mask must be symmetric with unit diagonal")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("pinching mask must be 0/1")
    if np.linalg.eigvalsh(mask).min() < -1e-12:
        raise ValueError("pinching mask must be positive semidefinite")
    return ConditionalExpectation("pinching", n, mask=mask, label=label)


def block_pinching(blocks: Sequence[Sequence[int]], n: int,
                   label: str = "block-pinching") -> ConditionalExpectation:
    """Pinching onto a block-diagonal algebra given a vertex partition."""
    which = np.full(n, -1)
    for b, members in enumerate(blocks):
        for x in members:
            which[x] = b
    if np.any(which < 0):
        raise ValueError("partition must cover every index")
    mask = (which[:, None] == which[None, :]).astype(float)
    return ConditionalExpectation("pinching", n, mask=mask, label=label)


def sign_flip_mask(i: int, n: int) -> np.ndarray:
    if not 0 <= i < n - 1:
        raise ValueError(f"sign-flip index must satisfy 0 <= i < n-1, got {i}")
    mask = np.ones((n, n))
    mask[i, :] = 0.0
    mask[:, i] = 0.0
    mask[i, i] = 1.0
    return mask


def sign_flip_average(i: int, rho) -> np.ndarray:
    """(U_i* rho U_i + rho)/2 with U_i the diagonal unitary carrying -1 in
    slot i; equals the Schur mask that zeroes row/column i off-diagonal."""
    rho = np.asarray(rho, dtype=complex)
    return sign_flip_mask(i, rho.shape[0]) * rho


def compose_pinchings(expectations: Sequence[ConditionalExpectation]) -> ConditionalExpectation:
    """Product of commuting Schur pinchings (exact mask algebra)."""
    masks = [e.mask for e in expectations]
    if any(m is None for m in masks):
        raise ValueError("all factors must be Schur pinchings")
    mask = masks[0].copy()
    for m in masks[1:]:
        mask = mask * m
    return ConditionalExpectation("pinching", expectations[0].dim, mask=mask,
                                  label="product")


@dataclass(frozen=True)
class FixedPointData:
    dim: int
    basis: np.ndarray  # (dim, n, n), orthonormal under tr(x* y)
    expectation: ConditionalExpectation


def fixed_point_dim(s: SpectralSuperoperator, tol: float = KERNEL_EIG_TOL) -> FixedPointData:
    """Dimension and orthonormal basis of the zero eigenspace, with the
    kernel-projection conditional expectation.  Never assumes ergodicity."""
    idx = np.where(s.eigenvalues <= tol)[0]
    basis = np.stack([s.eigenvectors[:, k].reshape(s.dim, s.dim).T for k in idx])
    expectation = ConditionalExpectation(
        "kernel", s.dim, basis=basis, label=f"kernel-projection({len(idx)})")
    return FixedPointData(dim=len(idx), basis=basis, expectation=expectation)


def graph_lindblad(g: WeightedGraph) -> SpectralSuperoperator:
    """Generator rho -> sum_e w_e [x_e, [x_e, rho]] on M_n.

    Unit weights give the plain edge construction; weights multiply edge
    terms, the unique extension whose diagonal restriction is the weighted
    graph generator.
    """
    gens = [edge_generator((u, v), g.n).hermitian for u, v, _ in g.edges]
    weights = [w for _, _, w in g.edges]
    return superop_from_generators(gens, dim=g.n, weights=weights,
                                   label=f"graph-lindblad(n={g.n})")


def pauli_system() -> SpectralSuperoperator:
    """Two-generator two-level system with generators X/2 and Y/2; action on
    the basis (1, X, Y, Z) has rates (0, 1, 1, 2)."""
    return superop_from_generators([PAULI_X / 2, PAULI_Y / 2], label="pauli")


def depolarizing(n: int) -> SpectralSuperoperator:
    """Projector complement id - E_trace on M_n; spectrum {0} u {1}."""
    if n < 2:
        raise ValueError(f"depolarizing requires n >= 2, got {n}")
    v = vec(np.eye(n, dtype=complex))
    mat = np.eye(n * n, dtype=complex) - np.outer(v, v.conj()) / n
    return SpectralSuperoperator.from_matrix(mat, n, label=f"depolarizing({n})")


def integer_spectrum_lindblad(x, tol: float = 1e-8) -> SpectralSuperoperator:
    """Single-generator rho -> [x, [x, rho]] for Hermitian x with integer
    spectrum; carries the analytic lower bound 1/(5 pi^2)."""
    x = require_hermitian(x, what="integer-spectrum generator")
    w = np.linalg.eigvalsh(x)
    off = np.abs(w - np.round(w)).max()
    if off > tol:
        raise ValueError(
            f"generator spectrum is {off:.3e} away from integers (tol {tol:.0e})")
    s = superop_from_generators([x], label="integer-spectrum")
    return replace(s, certified_lower=SPHERE_TRANSFER_CONSTANT)


def _embed_site(op: np.ndarray, site: int, sites: int) -> np.ndarray:
    d = op.shape[0]
    out = np.array([[1.0 + 0.0j]])
    for j in range(sites):
        out = np.kron(out, op if j == site else np.eye(d))
    return out


def collective_lindblad(x_list: Sequence[np.ndarray], m: int) -> SpectralSuperoperator:
    """Per-site collective generator on m copies of the doubled space.

    Each Hermitian X_k is doubled to diag(X_k, X_k^T) (plain transpose in
    the computational basis) and the generator is the per-site sum
    sum_k sum_j [pi_j(X_hat_k), [pi_j(X_hat_k), .]] on ((2n)^m)-dimensional
    space, capped at total dimension 64.
    """
    if m < 1:
        raise ValueError("site count must be >= 1")
    xs = [require_hermitian(x, what=f"collective generator {k}")
          for k, x in enumerate(x_list)]
    n = xs[0].shape[0]
    total_dim = (2 * n) ** m
    if total_dim > COLLECTIVE_DIM_CAP:
        raise ValueError(
            f"total dimension (2*{n})^{m} = {total_dim} exceeds the cap "
            f"{COLLECTIVE_DIM_CAP}")
    gens = []
    for x in xs:
        doubled = np.zeros((2 * n, 2 * n), dtype=complex)
        doubled[:n, :n] = x
        doubled[n:, n:] = x.T
        for j in range(m):
            gens.append(_embed_site(doubled, j, m))
    return superop_from_generators(gens, dim=total_dim,
                                   label=f"collective(m={m})")


@dataclass(frozen=True)
class GradientCheckReport:
    lam: float
    t_grid: tuple
    residuals: tuple
    tol: float

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals)

    @property
    def worst(self) -> float:
        return max(self.residuals)


def gradient_estimate_check(generators: Sequence[np.ndarray], lam: float, rho,
                            a, t_grid: Sequence[float],
                            tol: float = 1e-9) -> GradientCheckReport:
    """Check the gradient estimate

        ||grad P_t a||_rho^2 <= e^{-2 lam t} ||grad a||_{P_t rho}^2

    for the self-adjoint semigroup of the given generators, with
    grad a = (i[a_k, a])_k and ||sigma||_rho^2 = tau(sigma Q^rho_tilt(sigma)).
    Residuals LHS - e^{-2 lam t} RHS are reported per grid point; they must
    all be <= tol when lam is a valid curvature lower bound.
    """
    s = superop_from_generators(generators)
    rho = require_hermitian(rho, what="gradient check rho")
    if np.linalg.eigvalsh(rho).min() <= 0:
        raise PositivityError("gradient check requires a strictly positive rho")
    a = require_hermitian(a, what="gradient check observable")
    kernel = ScalarKernel.tilt()

    def grad_norm_sq(target, state):
        total = 0.0
        for gen in s.generators:
            d = 1j * (gen @ target - target @ gen)
            total += float(np.trace(d @ doi_apply(state, state, kernel, d)).real)
        return total / s.dim

    residuals = []
    for t in t_grid:
        pa = semigroup_apply(s, t, a)
        pr = semigroup_apply(s, t, rho)
        lhs = grad_norm_sq(pa, rho)
        rhs = grad_norm_sq(a, pr)
        residuals.append(lhs - math.exp(-2.0 * lam * t) * rhs)
    return GradientCheckReport(lam=lam, t_grid=tuple(t_grid),
                               residuals=tuple(residuals), tol=tol)
