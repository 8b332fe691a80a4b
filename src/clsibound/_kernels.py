"""Hot numeric kernels: the DOI kernel matrix, the ratio objectives that
the optimizer evaluates, and the exact gradients of the matrix objectives.

The ratio objectives are written with numpy broadcasting over eigenvalue
pairs, and the Bregman helpers here are the ones the entropy functionals
use too, so an objective and its independent functional share one formula.
The gradients are built from the same eigendecompositions and the DOI
kernel matrix (Daleckii-Krein divided differences), and return the
objective's ratio bit for bit.
The kernel matrix stays a plain loop: at the few-eigenvalue sizes of the
DOI calls it is faster than the broadcast form.  Matrix products use
``ndarray.dot``, whose call overhead at these sizes is well under that of
the ``@`` operator.
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


def _state_and_expectation(theta, eproj, n):
    """Shared head of the matrix ratio objectives.

    Returns (p, U, mu, W, overlap, vec_rho): eigenvalues/eigenvectors of rho,
    eigenvalues of sigma = E(rho) (trace-renormalized), the eigenvectors of
    sigma in the eigenbasis of rho, W = U* V, the overlap matrix
    |<u_i|v_j>|^2 = |W_ij|^2, and vec(rho); None flags an excluded point.
    """
    w, u = np.linalg.eigh(hermitian_from_params(theta, n))
    if max(w[n - 1], -w[0]) > H_CAP:  # eigh sorts w ascending
        return None
    z = np.exp(w)
    p = (n / z.sum()) * z
    ud = u.conj().T
    v = (u * p).dot(ud).T.ravel()
    raw = eproj.dot(v).reshape(n, n).T
    tr = raw.trace().real
    if tr <= 0.0:
        return None
    sig = 0.5 * (raw + raw.conj().T) * (n / tr)
    mu, vmat = np.linalg.eigh(sig)
    if mu[0] <= _EXPECTATION_FLOOR * mu[n - 1] or mu[0] <= 0.0:
        return None
    ov = ud.dot(vmat)
    overlap = ov.real * ov.real + ov.imag * ov.imag
    return p, u, mu, ov, overlap, v


def _fisher_parts(theta, superop, eproj, n, p_exp):
    """Body of the matrix ratio objectives: the (ratio, fisher, entropy)
    triple, and at an included point the state and the pieces its gradient
    reuses, (state, f, g, vec A(rho)) with f the shifted eigenvalues of
    ln rho (p_exp None) or rho^(p-1), and g = U diag(f) U*."""
    state = _state_and_expectation(theta, eproj, n)
    if state is None:
        return (np.inf, 0.0, 0.0), None
    p, u, mu, _, overlap, v = state
    if p_exp is None:
        d = (overlap * mu * bregman(p[:, None] / mu)).sum() / n
    else:
        d = (overlap * bregman_power(p[:, None], mu, p_exp)).sum() / n
    if d < ENTROPY_FLOOR:
        return (np.inf, 0.0, d), None
    f = np.log(p) if p_exp is None else p ** (p_exp - 1.0)
    f -= f.sum() / n  # constant shift is traceless against A(rho)
    # tr(A(rho) g) with vec(A(rho)) = superop vec(rho): the column-stacked
    # vec against the row-major ravel pairs a_ij with g_ji.
    g = (u * f).dot(u.conj().T)
    av = superop.dot(v)
    fisher = av.dot(g.ravel()).real
    fisher = (fisher if p_exp is None else p_exp * fisher) / n
    return (fisher / d, fisher, d), (state, f, g, av)


def mlsi_terms(theta, superop, eproj, n):
    """Objective for the MLSI ratio I(rho)/D(rho || E rho).

    Returns (ratio, fisher, entropy); ratio is +inf on excluded points
    (spectral cap breach, broken expectation, entropy under the floor).
    """
    return _fisher_parts(theta, superop, eproj, n, None)[0]


def cpsi_terms(theta, superop, eproj, n, p_exp):
    """Objective for the p-ratio I^p(rho)/d^p(rho || E rho), p in (1,2)."""
    return _fisher_parts(theta, superop, eproj, n, p_exp)[0]


def _ratio_value_grad(theta, superop, eproj, n, p_exp):
    """(ratio, gradient in theta) of the matrix ratio objective; (inf, 0) at
    an excluded point.

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
    (ratio, _, d), parts = _fisher_parts(theta, superop, eproj, n, p_exp)
    if parts is None:
        return (np.inf, 0.0)
    (p, u, mu, ov, _, _), f, g, av = parts
    ud = u.conj().T
    a = ud.dot(av.reshape(n, n).T).dot(u)  # U* A(rho) U
    # pre: U* (n D grad_rho R) U without the D f(rho)[A(rho)] term
    pre = ud.dot(superop.T.dot(g.ravel()).reshape(n, n)).dot(u)
    f_sigma = np.log(mu) if p_exp is None else mu ** (p_exp - 1.0)
    pre += ratio * (ov * f_sigma).dot(ov.conj().T)
    pre[np.diag_indices(n)] -= ratio * f
    tilt = kernel_matrix(p, p, KERNEL_TILT, 0.0)
    if p_exp is None:
        t = tilt * pre + a
    else:
        pre += kernel_matrix(p, p, KERNEL_POWER_QUOTIENT, p_exp) * a
        t = tilt * (p_exp * pre)
    t[np.diag_indices(n)] -= p * (t.trace() / n)  # tr(rho G) = tr(t)
    gh = u.dot(t / (n * d)).dot(ud)
    # H.ravel() = dec theta, so d/dtheta tr(G_H dH) = vec_rowmajor(G_H^T) dec
    return (ratio, gh.T.ravel().dot(_decoder(n)).real)


def mlsi_value_grad(theta, superop, eproj, n):
    """(ratio, gradient in theta) of :func:`mlsi_terms`; the ratio is the
    one ``mlsi_terms`` returns, bit for bit."""
    return _ratio_value_grad(theta, superop, eproj, n, None)


def cpsi_value_grad(theta, superop, eproj, n, p_exp):
    """(ratio, gradient in theta) of :func:`cpsi_terms`; the ratio is the
    one ``cpsi_terms`` returns, bit for bit."""
    return _ratio_value_grad(theta, superop, eproj, n, p_exp)


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
