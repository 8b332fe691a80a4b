"""Graph-indexed matrix generators and conditional expectations: edge
antisymmetric generators, the graph double-commutator generator on M_n,
Schur-mask pinchings, kernel projections, the worked two-level examples,
and ``TARGETS``, the table of builtin targets that ``--target`` names.

The n = 2 single-edge case is a documented anomaly: the commutant of the one
edge generator in M_2 is two-dimensional, so the fixed-point dimension is 2
there (and the edge-product identity below needs n >= 3).  Nothing in this
module assumes ergodicity; kernels are always computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .graphs import WeightedGraph
from .spectral import (
    KERNEL_EIG_TOL,
    ScalarKernel,
    SpectralSuperoperator,
    derivation_form,
    positive_eigs,
    require_hermitian,
    semigroup_apply,
    superop_from_generators,
    vec,
)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

SPHERE_TRANSFER_CONSTANT = 1.0 / (5.0 * math.pi ** 2)
# Largest distance of an integer-spectrum generator's eigenvalues from the
# integers, and the largest gradient-estimate residual that still passes.
INTEGER_SPECTRUM_TOL = 1e-8
GRADIENT_CHECK_TOL = 1e-9


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
    mask (edge, diagonal, sign-flip and block pinchings) or an orthonormal
    matrix basis of the range (kernel projections, trace).  ``label`` names
    the expectation.
    """

    def __init__(self, label: str, dim: int, mask: Optional[np.ndarray] = None,
                 basis: Optional[np.ndarray] = None):
        if (mask is None) == (basis is None):
            raise ValueError("exactly one of mask/basis is required")
        self.label = label
        self.dim = dim
        self.mask = None if mask is None else np.asarray(mask, dtype=float)
        self.basis = None if basis is None else np.asarray(basis, dtype=complex)

    def __call__(self, rho) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        if self.mask is not None:
            return self.mask * rho
        weights = np.einsum("kij,ij->k", self.basis.conj(), rho)
        return np.einsum("k,kij->ij", weights, self.basis)

    def superop_matrix(self) -> np.ndarray:
        """The projection as an n^2 x n^2 matrix on vectorized inputs."""
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
    return ConditionalExpectation(f"edge({r},{s})", n, mask=mask)


def diagonal_expectation(n: int) -> ConditionalExpectation:
    return ConditionalExpectation("diagonal", n, mask=np.eye(n))


def trace_expectation(n: int) -> ConditionalExpectation:
    basis = (np.eye(n, dtype=complex) / np.sqrt(n))[None, :, :]
    return ConditionalExpectation("trace", n, basis=basis)


def block_pinching(blocks: Sequence[Sequence[int]], n: int) -> ConditionalExpectation:
    """Pinching onto a block-diagonal algebra given a vertex partition."""
    which = np.full(n, -1)
    for b, members in enumerate(blocks):
        for x in members:
            which[x] = b
    if np.any(which < 0):
        raise ValueError("partition must cover every index")
    mask = (which[:, None] == which[None, :]).astype(float)
    return ConditionalExpectation("block-pinching", n, mask=mask)


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
    return ConditionalExpectation("product", expectations[0].dim, mask=mask)


@dataclass(frozen=True)
class FixedPointData:
    dim: int
    expectation: ConditionalExpectation


def fixed_point_dim(s: SpectralSuperoperator) -> FixedPointData:
    """Dimension of the zero eigenspace, with the kernel-projection
    conditional expectation onto it (its ``basis`` is orthonormal under
    tr(x* y)).  Never assumes ergodicity."""
    idx = np.where(s.eigenvalues <= KERNEL_EIG_TOL)[0]
    basis = np.stack([s.eigenvectors[:, k].reshape(s.dim, s.dim).T for k in idx])
    expectation = ConditionalExpectation(
        f"kernel-projection({len(idx)})", s.dim, basis=basis)
    return FixedPointData(dim=len(idx), expectation=expectation)


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


def integer_spectrum_lindblad(x) -> SpectralSuperoperator:
    """Single-generator rho -> [x, [x, rho]] for Hermitian x with integer
    spectrum; its lower bound 1/(5 pi^2) is the ``intspec:`` row's certificate."""
    x = require_hermitian(x, what="integer-spectrum generator")
    w = np.linalg.eigvalsh(x)
    off = np.abs(w - np.round(w)).max()
    if off > INTEGER_SPECTRUM_TOL:
        raise ValueError(
            f"generator spectrum is {off:.3e} away from integers "
            f"(tol {INTEGER_SPECTRUM_TOL:.0e})")
    return superop_from_generators([x], label="integer-spectrum")


def _depolarizing_dim(spec: str) -> int:
    """The n of ``depolarizing:n``."""
    try:
        return int(spec.split(":", 1)[1])
    except ValueError:
        raise ValueError(f"{spec}: n must be an integer") from None


# Largest |d_i| of an intspec:d0,d1,... target: keeps the generator's rates
# (d_i - d_j)^2 <= 4e12, far from overflow, and its eigenvalues' rounding
# far below the integer-spectrum tolerance.
INTSPEC_MAX = 1e6


def _intspec(spec: str) -> list:
    """The diagonal d0, d1, ... of ``intspec:d0,d1,...`` as finite floats of
    magnitude at most INTSPEC_MAX."""
    try:
        diag = [float(x) for x in spec.split(":", 1)[1].split(",")]
    except ValueError:
        diag = [math.nan]
    if not all(math.isfinite(d) and abs(d) <= INTSPEC_MAX for d in diag):
        raise ValueError(f"{spec}: entries must be finite numbers of magnitude "
                         f"at most {INTSPEC_MAX:g}")
    return diag


# Builtin targets: (form, dimension(spec), build(spec), certified lower
# bound(spec) or None).  A spec picks the row whose form matches it up to
# and including a ":"; a malformed one fails in dimension(), naming itself.
TARGETS = (
    ("pauli", lambda spec: 2, lambda spec: pauli_system(), None),
    ("depolarizing:n", _depolarizing_dim,
     lambda spec: depolarizing(_depolarizing_dim(spec)), None),
    ("intspec:d0,d1,...", lambda spec: len(_intspec(spec)),
     lambda spec: integer_spectrum_lindblad(np.diag(_intspec(spec)).astype(complex)),
     lambda spec: SPHERE_TRANSFER_CONSTANT),
)


@dataclass(frozen=True)
class GradientCheckReport:
    lam: float
    t_grid: tuple
    residuals: tuple

    @property
    def passed(self) -> bool:
        return all(r <= GRADIENT_CHECK_TOL for r in self.residuals)

    @property
    def worst(self) -> float:
        return max(self.residuals)


def gradient_estimate_check(generators: Sequence[np.ndarray], lam: float, rho,
                            a, t_grid: Sequence[float]) -> GradientCheckReport:
    """Check the gradient estimate

        ||grad P_t a||_rho^2 <= e^{-2 lam t} ||grad a||_{P_t rho}^2

    for the self-adjoint semigroup of the given generators, with
    grad a = (i[a_k, a])_k and ||sigma||_rho^2 = tau(sigma Q^rho_tilt(sigma)).
    Residuals LHS - e^{-2 lam t} RHS are reported per grid point; they must
    all be <= GRADIENT_CHECK_TOL when lam is a valid curvature lower bound.
    """
    s = superop_from_generators(generators)
    rho = require_hermitian(rho, what="gradient check rho")
    rho_dec = positive_eigs(rho, "gradient check rho")
    a = require_hermitian(a, what="gradient check observable")
    kernel = ScalarKernel.tilt()
    residuals = []
    for t in t_grid:
        pa = semigroup_apply(s, t, a)
        pr = semigroup_apply(s, t, rho)
        lhs = derivation_form(s.generators, pa, rho_dec, kernel)
        rhs = derivation_form(s.generators, a, positive_eigs(pr, "gradient check P_t rho"),
                              kernel)
        residuals.append(lhs - math.exp(-2.0 * lam * t) * rhs)
    return GradientCheckReport(lam=lam, t_grid=tuple(t_grid),
                               residuals=tuple(residuals))
