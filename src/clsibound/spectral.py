"""Dense spectral engine: Hermitian eigencalculus, scalar-kernel double
operator integrals with independent quadrature oracles, and superoperator
representations of double-commutator generators.

Conventions fixed here and used everywhere downstream:

* vectorization is column-stacking, so the map ``rho -> A rho B`` is
  represented by ``kron(B.T, A)``;
* the trace is the normalized one, ``tau(a) = tr(a)/n``;
* a state built from a Hermitian h is ``gibbs_state(h) = n e^h / tr e^h``,
  strictly positive with tau = 1;
* eigenvalues below ``POSITIVITY_FLOOR`` are a hard error for ln and
  fractional powers -- callers regularize with ``rho + eps*I`` themselves.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels
from .exceptions import (
    NonHermitianError,
    PositivityError,
    QuadratureError,
)

HERMITIAN_TOL = 1e-12
PSD_TOL = 1e-10
KERNEL_EIG_TOL = 1e-9
POSITIVITY_FLOOR = 1e-12


def vec(a: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(a, dtype=complex).T.reshape(-1)


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(n, n).T


def require_hermitian(a, what: str = "matrix") -> np.ndarray:
    """Validate conjugate symmetry and return a complex128 copy."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonHermitianError(f"{what} must be square, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max(initial=0.0)))
    dev = float(np.abs(a - a.conj().T).max(initial=0.0))
    if dev > HERMITIAN_TOL * scale:
        raise NonHermitianError(
            f"{what} is not Hermitian: max deviation {dev:.3e} exceeds "
            f"{HERMITIAN_TOL:.1e} (scale {scale:.3e})")
    return 0.5 * (a + a.conj().T)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Ascending eigenvalues and a unitary matrix of eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


def eig_hermitian(h) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix (ascending eigenvalues)."""
    h = require_hermitian(h)
    w, u = np.linalg.eigh(h)
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def positive_eigs(rho, what: str) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix whose smallest eigenvalue
    must clear ``POSITIVITY_FLOOR``; ``what`` names it in either error."""
    return _positive_eigh(require_hermitian(rho, what=what), what)


def _positive_eigh(h: np.ndarray, what: str) -> SpectralDecomposition:
    """``positive_eigs`` of a matrix that ``require_hermitian`` returned."""
    w, u = np.linalg.eigh(h)
    wmin = float(w[0])
    if wmin <= POSITIVITY_FLOOR:
        raise PositivityError(
            f"{what}: eigenvalue {wmin:.6e} at or below the positivity "
            f"floor {POSITIVITY_FLOOR:.1e}")
    return SpectralDecomposition(eigenvalues=w, eigenvectors=u)


def gibbs_state(h) -> np.ndarray:
    """The state n e^h / tr e^h of a Hermitian matrix h."""
    dec = eig_hermitian(h)
    z = np.exp(dec.eigenvalues)
    p = len(z) * z / z.sum()
    u = dec.eigenvectors
    return (u * p) @ u.conj().T


def matrix_function(rho, fn: Callable[[np.ndarray], np.ndarray],
                    require_positive: bool = False) -> np.ndarray:
    """Functional calculus U f(diag lambda) U*.

    ``fn`` acts on the eigenvalue vector.  With ``require_positive`` the
    spectrum must clear the positivity floor (use for ln and fractional
    powers).
    """
    dec = positive_eigs(rho, "matrix_function") if require_positive else eig_hermitian(rho)
    values = np.asarray(fn(dec.eigenvalues), dtype=float)
    u = dec.eigenvectors
    return (u * values) @ u.conj().T


def matrix_log(rho) -> np.ndarray:
    return matrix_function(rho, np.log, require_positive=True)


@dataclass(frozen=True)
class ScalarKernel:
    """Symmetric positive scalar kernel k(x, y) with its diagonal limit;
    every kind dispatches to the shared kernel-matrix builder."""

    name: str
    code: int
    p: float = 0.0

    @staticmethod
    def log_quotient() -> "ScalarKernel":
        """k(x,y) = (ln x - ln y)/(x - y), k(x,x) = 1/x."""
        return ScalarKernel("log-quotient", _kernels.KERNEL_LOG_QUOTIENT)

    @staticmethod
    def power_quotient(p: float) -> "ScalarKernel":
        """k(x,y) = (x^(p-1) - y^(p-1))/(x - y), k(x,x) = (p-1) x^(p-2)."""
        return ScalarKernel("power-quotient", _kernels.KERNEL_POWER_QUOTIENT, p=float(p))

    @staticmethod
    def tilt() -> "ScalarKernel":
        """k(x,y) = (x - y)/(ln x - ln y), k(x,x) = x."""
        return ScalarKernel("tilt", _kernels.KERNEL_TILT)

    def matrix(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        return _kernels.kernel_matrix(x, y, self.code, self.p)


def doi_apply(rho, kernel: ScalarKernel, t) -> np.ndarray:
    """One-state double operator integral Q^rho_k(T).

    In the eigenbasis U of rho this is the Schur-product form
    ``U (K o (U* T U)) U*`` with ``K[i,j] = k(lambda_i, lambda_j)``.
    """
    rho = np.asarray(rho)
    t = np.asarray(t, dtype=complex)
    if rho.shape != t.shape:
        raise ValueError(f"dimension mismatch: rho {rho.shape}, T {t.shape}")
    dr = positive_eigs(rho, "doi_apply rho")
    k = kernel.matrix(dr.eigenvalues, dr.eigenvalues)
    u = dr.eigenvectors
    return u @ (k * (u.conj().T @ t @ u)) @ u.conj().T


def derivation_form(generators, target, state: SpectralDecomposition,
                    kernel: ScalarKernel) -> float:
    """sum_k tau(d_k Q^state(d_k)) with d_k = i[a_k, target] and Q the
    one-state DOI of ``kernel``; ``state`` is the state's positive
    eigendecomposition (``positive_eigs``), which callers usually hold
    already.

    With the log-quotient kernel and target = state this is the Fisher
    information of a double-commutator generator; with the tilt kernel it
    is the squared gradient norm ||grad target||^2_state.

    In the eigenbasis U of the state each term is
    ``(1/n) sum_ij K_ij |(U* d_k U)_ij|^2``, so the kernel matrix K is
    built once for all generators.
    """
    n = len(target)
    k = kernel.matrix(state.eigenvalues, state.eigenvalues)
    u = state.eigenvectors
    total = 0.0
    for a in generators:
        d = u.conj().T @ (1j * (a @ target - target @ a)) @ u
        total += float((k * np.abs(d) ** 2).sum()) / n
    return total


def doi_superop_matrix(rho, sigma, kernel: ScalarKernel) -> np.ndarray:
    """The DOI as an n^2 x n^2 matrix on vectorized inputs:
    ``W diag(vec K) W*`` with ``W = conj(V) kron U`` (Hermitian, PSD for
    positive kernels)."""
    dr = positive_eigs(rho, "doi_superop rho")
    ds = positive_eigs(sigma, "doi_superop sigma")
    k = kernel.matrix(dr.eigenvalues, ds.eigenvalues)
    w = np.kron(ds.eigenvectors.conj(), dr.eigenvectors)
    return (w * vec(k.astype(complex))) @ w.conj().T


@functools.lru_cache(maxsize=None)  # one entry per (points, interval) in use
def _gauss_legendre(points: int, a: float, b: float):
    """Gauss-Legendre nodes and weights of ``points`` points on [a, b]."""
    x, w = np.polynomial.legendre.leggauss(points)
    half = 0.5 * (b - a)
    nodes, weights = a + half * (x + 1.0), half * w
    nodes.setflags(write=False)  # cached and shared by every caller
    weights.setflags(write=False)
    return nodes, weights


def _refine(estimate: Callable[[int], np.ndarray], what: str) -> np.ndarray:
    """Doubling refinement from 64 Gauss-Legendre nodes until successive
    estimates differ < 1e-8 in max norm or 512 points are reached;
    differences above 1e-6 at the cap are a quadrature failure."""
    points = 64
    prev = estimate(points)
    delta = np.inf
    while points < 512:
        points = min(2 * points, 512)
        cur = estimate(points)
        delta = float(np.abs(cur - prev).max())
        prev = cur
        if delta < 1e-8:
            return cur
    if delta > 1e-6:
        raise QuadratureError(
            f"{what}: successive refinements still differ by {delta:.3e} "
            f"at 512 points")
    return prev


def quadrature_oracle_resolvent(rho, t) -> np.ndarray:
    """Independent oracle for the log-quotient DOI:
    integral over r in (0, inf) of (rho+r)^-1 T (rho+r)^-1 dr, via the
    substitution r = tan(theta) and Gauss-Legendre nodes.  Uses explicit
    matrix inverses per node, not the spectral kernel."""
    rho = require_hermitian(rho, what="resolvent oracle rho")
    positive_eigs(rho, "resolvent oracle rho")
    t = np.asarray(t, dtype=complex)
    n = rho.shape[0]
    eye = np.eye(n)

    def estimate(npts: int) -> np.ndarray:
        thetas, weights = _gauss_legendre(npts, 0.0, np.pi / 2)
        acc = np.zeros((n, n), dtype=complex)
        for theta, weight in zip(thetas, weights):
            r = np.tan(theta)
            jac = 1.0 / np.cos(theta) ** 2
            res = np.linalg.inv(rho + r * eye)
            acc += weight * jac * (res @ t @ res)
        return acc

    return _refine(estimate, "resolvent quadrature")


def quadrature_oracle_tilt(rho, t) -> np.ndarray:
    """Independent oracle for the tilt DOI:
    integral over r in (0, 1) of rho^r T rho^(1-r) dr."""
    dec = positive_eigs(rho, "tilt oracle rho")
    t = np.asarray(t, dtype=complex)
    u = dec.eigenvectors
    w = dec.eigenvalues
    tu = u.conj().T @ t @ u

    def estimate(npts: int) -> np.ndarray:
        rs, weights = _gauss_legendre(npts, 0.0, 1.0)
        acc = np.zeros_like(tu)
        for r, weight in zip(rs, weights):
            acc += weight * ((w ** r)[:, None] * tu * (w ** (1.0 - r))[None, :])
        return u @ acc @ u.conj().T

    return _refine(estimate, "tilt quadrature")


@dataclass(frozen=True)
class SpectralSuperoperator:
    """Self-adjoint PSD superoperator on vectorized n x n matrices with its
    eigendecomposition cached at construction.

    ``generators`` carries the Hermitian a_k of a double-commutator
    representation when one exists (enables the derivation form of the
    Fisher information).
    """

    dim: int
    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    generators: Optional[tuple] = None
    label: str = ""

    @staticmethod
    def from_matrix(matrix: np.ndarray, dim: int, generators=None,
                    label: str = "") -> "SpectralSuperoperator":
        matrix = np.ascontiguousarray(matrix, dtype=complex)
        if matrix.shape != (dim * dim, dim * dim):
            raise ValueError(
                f"superoperator matrix must be {dim*dim}x{dim*dim}, got {matrix.shape}")
        scale = max(1.0, float(np.abs(matrix).max(initial=0.0)))
        dev = float(np.abs(matrix - matrix.conj().T).max(initial=0.0))
        if dev > PSD_TOL * scale:
            raise NonHermitianError(
                f"superoperator is not HS-self-adjoint: deviation {dev:.3e}")
        matrix = np.ascontiguousarray(0.5 * (matrix + matrix.conj().T))
        w, v = np.linalg.eigh(matrix)
        if w[0] < -PSD_TOL * scale:
            raise PositivityError(
                f"superoperator has negative eigenvalue {w[0]:.6e}")
        residual = float(np.abs(matrix @ vec(np.eye(dim))).max())
        if residual > PSD_TOL * scale:
            raise PositivityError(
                f"superoperator does not annihilate the identity "
                f"(residual {residual:.3e})")
        gens = tuple(np.asarray(g, dtype=complex) for g in generators) if generators else None
        return SpectralSuperoperator(dim=dim, matrix=matrix, eigenvalues=w,
                                     eigenvectors=v, generators=gens, label=label)

    def apply(self, rho) -> np.ndarray:
        return unvec(self.matrix @ vec(rho), self.dim)

    def __call__(self, rho) -> np.ndarray:
        return self.apply(rho)


def commutator_superop(a: np.ndarray) -> np.ndarray:
    """Matrix of rho -> [a, rho] under column stacking."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    eye = np.eye(n)
    return np.kron(eye, a) - np.kron(a.T, eye)


def superop_from_generators(a_list: Sequence[np.ndarray], dim: Optional[int] = None,
                            weights: Optional[Sequence[float]] = None,
                            label: str = "") -> SpectralSuperoperator:
    """Superoperator of rho -> sum_k w_k [a_k, [a_k, rho]] for Hermitian a_k.

    An empty generator list (with ``dim``) gives the zero superoperator.
    """
    a_list = [require_hermitian(a, what=f"generator {k}") for k, a in enumerate(a_list)]
    if not a_list:
        if dim is None:
            raise ValueError("empty generator list requires an explicit dim")
        zero = np.zeros((dim * dim, dim * dim), dtype=complex)
        return SpectralSuperoperator.from_matrix(zero, dim, label=label or "zero")
    n = a_list[0].shape[0]
    if dim is not None and dim != n:
        raise ValueError(f"dim {dim} does not match generator size {n}")
    if weights is None:
        weights = [1.0] * len(a_list)
    if len(weights) != len(a_list):
        raise ValueError("one weight per generator required")
    total = np.zeros((n * n, n * n), dtype=complex)
    scaled = []
    for a, w in zip(a_list, weights):
        if a.shape[0] != n:
            raise ValueError("generators must share one dimension")
        if w <= 0:
            raise ValueError(f"generator weight must be positive, got {w}")
        c = commutator_superop(a)
        total += w * (c @ c)
        scaled.append(np.sqrt(w) * a)
    return SpectralSuperoperator.from_matrix(total, n, generators=scaled, label=label)


def semigroup_apply(s: SpectralSuperoperator, t: float, rho) -> np.ndarray:
    """e^{-t S} rho through the cached eigenbasis; t >= 0."""
    if t < 0:
        raise ValueError(f"semigroup time must be nonnegative, got {t}")
    return _propagate(s, t, rho)


# At a huge finite t, t * lambda overflows to inf and e^-inf = 0 is right.
@np.errstate(over="ignore")
def _propagate(s: SpectralSuperoperator, t: float, rho) -> np.ndarray:
    """Internal propagator without the sign restriction (used by derivative
    checks that need a central difference at t = 0)."""
    v = s.eigenvectors
    phases = np.exp(-t * np.clip(s.eigenvalues, 0.0, None))
    out = unvec((v * phases) @ (v.conj().T @ vec(rho)), s.dim)
    return 0.5 * (out + out.conj().T)


def spectral_gap(s) -> float:
    """Smallest eigenvalue exceeding the kernel threshold.

    Accepts a SpectralSuperoperator or a plain Hermitian PSD matrix (e.g. a
    classical graph generator).
    """
    if isinstance(s, SpectralSuperoperator):
        w = s.eigenvalues
    else:
        w = np.linalg.eigvalsh(require_hermitian(s, what="spectral_gap input"))
    above = w[w > KERNEL_EIG_TOL]
    if len(above) == 0:
        raise PositivityError("degenerate generator: no eigenvalue above threshold")
    return float(above[0])


def tensor_with_identity(matrix: np.ndarray, n: int, m: int) -> np.ndarray:
    """Lift a superoperator matrix on M_n to S (x) id on M_n (x) M_m = M_{nm}."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (n * n, n * n):
        raise ValueError("matrix shape does not match n")
    t4 = matrix.reshape(n, n, n, n)  # axes (j, i, l, k) of K[i,j,k,l]
    eye = np.eye(m)
    lifted = np.einsum("jilk,bd,ac->jbialdkc", t4, eye, eye)
    nm = n * m
    return np.ascontiguousarray(lifted.reshape(nm * nm, nm * nm))
