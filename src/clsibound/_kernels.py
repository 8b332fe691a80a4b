"""Hot numeric kernels: the DOI kernel matrix, the ratio objectives that
the optimizer evaluates, and the exact gradients of the matrix objectives.

The ratio objectives are written with numpy broadcasting over eigenvalue
pairs, and the Bregman helpers here are the ones the entropy functionals
use too, so an objective and its independent functional share one formula.
The gradients are built from the same eigendecompositions and the DOI
kernel matrix (Daleckii-Krein divided differences), and return the
objective's ratio bit for bit.

The matrix objectives have one body, over an (R, n^2) stack of parameter
vectors.  ``_ratio_value_grad`` is the one value-gradient entry: the
lockstep L-BFGS of ``estimator`` evaluates every live restart in one call
of it.  The single-parameter objectives ``mlsi_terms`` and ``cpsi_terms``
are stacks of one.  Each row comes out bit for bit as it would alone: the
eigendecompositions run on (R, n, n) stacks, the products are
``np.matmul`` on stacks (the matrix-vector and inner products as (n^2, 1)
and (1, n^2) operands, which keep the BLAS routine of the one-row call),
and the kernel matrix stays a per-row plain loop, whose broadcast form
rounds differently.  An excluded row (spectral cap breach, broken
expectation, entropy under the floor) leaves the stack where it is
detected and gets (inf, 0).
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Scalar kernel codes shared with spectral.ScalarKernel.
KERNEL_LOG_QUOTIENT = 0
KERNEL_POWER_QUOTIENT = 1
KERNEL_TILT = 2

# Reported in estimate JSON; kept as a constant so the report schema is
# unchanged.
BACKEND = "numpy"

# |x - y| < DIAG_REL_TOL * max(x, y) switches to the analytic derivative
# value; the off-diagonal branches use log1p/expm1 so they stay accurate
# right up to the switch.
DIAG_REL_TOL = 1e-9

# Optimizer state parametrization rho(H) = n exp(H)/tr exp(H): spectral cap
# on H keeps spectra inside [e^-20, e^20].
H_CAP = 20.0

# Points with relative entropy below this floor belong to the excluded
# neighbourhood of the fixed-point manifold: the ratio I/D is 0/0 there and
# its infimum is approached from outside.  1e-10 keeps the floating-point
# error of the ratio below ~1e-9 (the tightest acceptance window).
ENTROPY_FLOOR = 1e-10

# A conditional-expectation output whose spectrum is this far from positive
# (relative to its largest eigenvalue) signals a broken expectation.
_EXPECTATION_FLOOR = 1e-14


def bregman(r):
    """h(r) = r ln r - r + 1 >= 0, accurate near r = 1 (no large-term
    cancellation)."""
    x = r - 1.0
    return r * np.log1p(x) - x


def bregman_power(x, y, p):
    """x^p - y^p - p (x - y) y^(p-1) >= 0 for p in (1, 2)."""
    u = x / y - 1.0
    return (y ** p) * (np.expm1(p * np.log1p(u)) - p * u)


def kernel_matrix(x, y, kind, p):
    nx = x.shape[0]
    ny = y.shape[0]
    out = np.empty((nx, ny))
    for i in range(nx):
        xi = x[i]
        for j in range(ny):
            yj = y[j]
            d = xi - yj
            if abs(d) < DIAG_REL_TOL * max(xi, yj):
                if kind == KERNEL_LOG_QUOTIENT:
                    out[i, j] = 1.0 / xi
                elif kind == KERNEL_POWER_QUOTIENT:
                    out[i, j] = (p - 1.0) * xi ** (p - 2.0)
                else:
                    out[i, j] = xi
            else:
                r = d / yj
                # ln(x/y); at x/y below ~1e-16, r rounds to -1 and log1p fails
                lq = math.log1p(r) if r > -1.0 else math.log(xi) - math.log(yj)
                if kind == KERNEL_LOG_QUOTIENT:
                    out[i, j] = lq / d
                elif kind == KERNEL_POWER_QUOTIENT:
                    out[i, j] = (yj ** (p - 1.0)) * math.expm1((p - 1.0) * lq) / d
                else:
                    out[i, j] = d / lq
    return out


@functools.lru_cache(maxsize=None)  # one entry per dimension in use
def _decoder(n):
    """Complex (n^2, n^2) matrix mapping a parameter vector to the row-major
    entries of its Hermitian matrix.

    Layout of the parameters: n diagonal entries, then (re, im) per pair
    i < j in row-major order.  Every entry is one parameter times 1 or +-i,
    so decoding through this matrix is exact.
    """
    dec = np.zeros((n, n, n * n), dtype=np.complex128)
    for i in range(n):
        dec[i, i, i] = 1.0
    rows, cols = np.triu_indices(n, 1)
    for pair, (i, j) in enumerate(zip(rows, cols)):
        k = n + 2 * pair
        dec[i, j, k], dec[i, j, k + 1] = 1.0, 1.0j
        dec[j, i, k], dec[j, i, k + 1] = 1.0, -1.0j
    dec = dec.reshape(n * n, n * n)
    dec.setflags(write=False)  # cached and shared by every caller
    return dec


def hermitian_from_params(theta, n: int) -> np.ndarray:
    """Decode an optimizer parameter vector into a Hermitian matrix."""
    return _decoder(n).dot(np.asarray(theta, dtype=np.float64)).reshape(n, n)


def params_from_hermitian(h: np.ndarray) -> np.ndarray:
    """Inverse of :func:`hermitian_from_params` (imaginary diagonal dropped)."""
    n = h.shape[0]
    upper = h[np.triu_indices(n, 1)]
    theta = np.empty(n * n)
    theta[:n] = np.real(np.diag(h))
    theta[n::2] = upper.real
    theta[n + 1::2] = upper.imag
    return theta


def _keep(keep, *stacks):
    """The stacks restricted to the rows where the mask ``keep`` holds."""
    return stacks if keep.all() else tuple(x[keep] for x in stacks)


def _state_and_expectation(thetas, eproj, n):
    """Shared head of the matrix ratio objectives over an (R, n^2) stack of
    parameter vectors.

    Returns (rows, (p, U, mu, W, overlap, vec_rho)): the indices of the
    included rows and, stacked over them, the eigenvalues/eigenvectors of
    rho, the eigenvalues of sigma = E(rho) (trace-renormalized), the
    eigenvectors of sigma in the eigenbasis of rho, W = U* V, the overlap
    matrix |<u_i|v_j>|^2 = |W_ij|^2, and vec(rho).  A row is excluded at a
    spectral cap breach or a broken expectation.
    """
    w, u = np.linalg.eigh(np.matmul(_decoder(n), thetas[:, :, None]).reshape(-1, n, n))
    rows, w, u = _keep(np.maximum(w[:, n - 1], -w[:, 0]) <= H_CAP,  # w ascends
                       np.arange(len(thetas)), w, u)
    z = np.exp(w)
    p = (n / z.sum(axis=1))[:, None] * z
    ud = u.conj().transpose(0, 2, 1)
    v = np.matmul(u * p[:, None, :], ud).transpose(0, 2, 1).reshape(-1, n * n)
    raw = np.matmul(eproj, v[:, :, None]).reshape(-1, n, n).transpose(0, 2, 1)
    tr = raw.trace(axis1=1, axis2=2).real
    rows, p, u, ud, v, raw, tr = _keep(tr > 0.0, rows, p, u, ud, v, raw, tr)
    sig = 0.5 * (raw + raw.conj().transpose(0, 2, 1)) * (n / tr)[:, None, None]
    mu, vmat = np.linalg.eigh(sig)
    keep = (mu[:, 0] > _EXPECTATION_FLOOR * mu[:, n - 1]) & (mu[:, 0] > 0.0)
    rows, p, u, ud, v, mu, vmat = _keep(keep, rows, p, u, ud, v, mu, vmat)
    ov = np.matmul(ud, vmat)
    overlap = ov.real * ov.real + ov.imag * ov.imag
    return rows, (p, u, mu, ov, overlap, v)


def _fisher_parts(thetas, superop, eproj, n, p_exp):
    """Body of the matrix ratio objectives over an (R, n^2) stack of
    parameter vectors.

    Returns the per-row (ratio, fisher, entropy) arrays, with ratio inf,
    fisher 0 and entropy 0 (or, under the entropy floor, the entropy) on an
    excluded row, and the pieces the gradient reuses, stacked over the
    included rows: (rows, state, f, g, vec A(rho)) with f the shifted
    eigenvalues of ln rho (p_exp None) or rho^(p-1), and g = U diag(f) U*.
    """
    ratio = np.full(len(thetas), np.inf)
    fisher = np.zeros(len(thetas))
    entropy = np.zeros(len(thetas))
    rows, state = _state_and_expectation(thetas, eproj, n)
    p, u, mu, _, overlap, v = state
    if p_exp is None:
        terms = overlap * mu[:, None, :] * bregman(p[:, :, None] / mu[:, None, :])
    else:
        terms = overlap * bregman_power(p[:, :, None], mu[:, None, :], p_exp)
    d = terms.reshape(-1, n * n).sum(axis=1) / n
    entropy[rows] = d
    rows, d, *state = _keep(d >= ENTROPY_FLOOR, rows, d, *state)
    p, u, mu, ov, overlap, v = state
    f = np.log(p) if p_exp is None else p ** (p_exp - 1.0)
    f -= (f.sum(axis=1) / n)[:, None]  # constant shift is traceless against A(rho)
    # tr(A(rho) g) with vec(A(rho)) = superop vec(rho): the column-stacked
    # vec against the row-major ravel pairs a_ij with g_ji.
    g = np.matmul(u * f[:, None, :], u.conj().transpose(0, 2, 1)).reshape(-1, n * n)
    av = np.matmul(superop, v[:, :, None])[:, :, 0]
    fi = np.matmul(av[:, None, :], g[:, :, None])[:, 0, 0].real
    fi = (fi if p_exp is None else p_exp * fi) / n
    ratio[rows] = fi / d
    fisher[rows] = fi
    return (ratio, fisher, entropy), (rows, state, f, g, av)


def mlsi_terms(theta, superop, eproj, n):
    """Objective for the MLSI ratio I(rho)/D(rho || E rho).

    Returns (ratio, fisher, entropy); ratio is +inf on excluded points
    (spectral cap breach, broken expectation, entropy under the floor).
    """
    return _terms_one(theta, superop, eproj, n, None)


def cpsi_terms(theta, superop, eproj, n, p_exp):
    """Objective for the p-ratio I^p(rho)/d^p(rho || E rho), p in (1,2)."""
    return _terms_one(theta, superop, eproj, n, p_exp)


def _terms_one(theta, superop, eproj, n, p_exp):
    """(ratio, fisher, entropy) at one parameter vector: a stack of one."""
    thetas = np.asarray(theta, dtype=np.float64)[None, :]
    ratio, fisher, entropy = _fisher_parts(thetas, superop, eproj, n, p_exp)[0]
    return ratio[0], fisher[0], entropy[0]


def _ratio_value_grad(thetas, superop, eproj, n, p_exp):
    """Per-row (ratio, gradient in theta) of the matrix ratio objective over
    an (R, n^2) stack of parameter vectors: an (R,) array and an (R, n^2)
    complex array whose real part is the gradient; (inf, 0) on an excluded
    row.

    With R = I/D, grad_rho R = (grad I - R grad D)/D, where, with A^T the
    transpose of the superoperator and E a trace-preserving conditional
    expectation (so that the sigma = E(rho) terms of grad D collapse),
      MLSI:  n grad D = ln rho - ln sigma,
             n grad I = A^T(ln rho) + D ln rho[A(rho)];
      p:     n grad D = p (rho^(p-1) - sigma^(p-1)),
             n grad I = p (A^T(rho^(p-1)) + D rho^(p-1)[A(rho)]).
    In the eigenbasis U of rho, D ln rho and D rho^(p-1) act by the log- and
    power-quotient kernels.  The chain rule through rho = n e^H/tr e^H
    multiplies by the tilt kernel (the divided differences of exp on the
    spectrum of H, rescaled) and removes the trace direction:
    grad_H = U(K_tilt o U*GU)U* - rho tr(rho G)/n.
    The tilt and log-quotient kernels multiply to 1, so the MLSI term
    D ln rho[A(rho)] enters grad_H as U*A(rho)U itself.
    """
    (ratio, _, d), parts = _fisher_parts(thetas, superop, eproj, n, p_exp)
    rows, (p, u, mu, ov, _, _), f, g, av = parts
    grad = np.zeros(thetas.shape, dtype=np.complex128)
    if not len(rows):
        return ratio, grad
    r, d = ratio[rows][:, None, None], d[rows]
    ud = u.conj().transpose(0, 2, 1)
    a = np.matmul(np.matmul(ud, av.reshape(-1, n, n).transpose(0, 2, 1)), u)  # U* A(rho) U
    # pre: U* (n D grad_rho R) U without the D f(rho)[A(rho)] term
    at_g = np.matmul(superop.T, g[:, :, None]).reshape(-1, n, n)
    pre = np.matmul(np.matmul(ud, at_g), u)
    f_sigma = np.log(mu) if p_exp is None else mu ** (p_exp - 1.0)
    pre += r * np.matmul(ov * f_sigma[:, None, :], ov.conj().transpose(0, 2, 1))
    pre.reshape(-1, n * n)[:, ::n + 1] -= r[:, 0] * f  # the diagonals
    # kernel_matrix stays a per-row loop: its broadcast form is not bit-identical
    tilt = np.array([kernel_matrix(x, x, KERNEL_TILT, 0.0) for x in p])
    if p_exp is None:
        t = tilt * pre + a
    else:
        pre += np.array([kernel_matrix(x, x, KERNEL_POWER_QUOTIENT, p_exp) for x in p]) * a
        t = tilt * (p_exp * pre)
    # tr(rho G) = tr(t)
    t.reshape(-1, n * n)[:, ::n + 1] -= p * (t.trace(axis1=1, axis2=2) / n)[:, None]
    gh = np.matmul(np.matmul(u, t / (n * d)[:, None, None]), ud)
    # H.ravel() = dec theta, so d/dtheta tr(G_H dH) = vec_rowmajor(G_H^T) dec
    grad[rows] = np.matmul(gh.transpose(0, 2, 1).reshape(-1, 1, n * n), _decoder(n))[:, 0]
    return ratio, grad


def classical_terms(theta, mu, incidence, edge_c):
    """Objective for the classical graph ratio over positive vertex functions
    f = exp(theta); the ratio is scale invariant so no normalization is
    applied.  The entropy floor is applied to D(f/xi) = D(f)/xi, xi = mu.f,
    the entropy of the normalized function, so which points are excluded
    does not depend on the scale of f either; on the diagonal embedding it
    is the matrix objectives' floor.

    ``incidence`` is the signed edge-vertex matrix (-1 at u, +1 at v per
    edge (u, v)) and ``edge_c`` holds w_uv (mu(u) + mu(v)) per edge.  Each
    edge term is a product of two differences of the same sign, so the
    Fisher sum has no cancellation.
    """
    if max(map(abs, theta.tolist())) > H_CAP:  # a few values: builtins win
        return (np.inf, 0.0, 0.0)
    f = np.exp(theta)
    xi = mu.dot(f)
    d_unit = mu.dot(bregman(f / xi))
    d = xi * d_unit
    if d_unit < ENTROPY_FLOOR:
        return (np.inf, 0.0, d)
    fisher = edge_c.dot(incidence.dot(f) * incidence.dot(theta))
    return (fisher / d, fisher, d)
