#!/usr/bin/env python3
"""Benchmark the hot kernels and check their values.

Times each kernel per call, the value-gradient kernels of the L-BFGS search
next to the ratio objectives, then checks every kernel value against an
independent evaluation: the ratio objectives against the ``entropy``
functionals at the witness state, the DOI kernel matrix against its closed
form.  Any relative disagreement above 1e-10 fails the run, and so does a
value-gradient ratio that is not the ratio objective's bit for bit.

Usage: python benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import sys
import time

import numpy as np

from clsibound import _kernels, entropy, estimator, lindblad
from clsibound.graphs import make_graph
from clsibound.spectral import superop_from_generators

GATE = 1e-10


def build_case(n, seed):
    """A random parameter vector, a two-generator double-commutator
    superoperator and the trace expectation at dimension n."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=n * n)
    gens = []
    for _ in range(2):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        gens.append(0.5 * (a + a.conj().T))
    return theta, superop_from_generators(gens, n), lindblad.trace_expectation(n)


def timeit(fn, repeats):
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats * 1e6  # us/call


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=2000)
    args = parser.parse_args()

    timings = {}
    pairs = {}  # name -> (kernel values, reference values)
    unequal = []  # value-gradient kernels whose ratio differs from *_terms

    x = np.linspace(0.1, 8.0, 64)
    timings["kernel_matrix(64x64)"] = timeit(
        lambda: _kernels.kernel_matrix(x, x, _kernels.KERNEL_LOG_QUOTIENT, 0.0),
        args.repeats)
    dx = x[:, None] - x[None, :]
    off = ~np.eye(len(x), dtype=bool)
    closed = np.diag(1.0 / x)
    closed[off] = np.log(x[:, None] / x[None, :])[off] / dx[off]
    pairs["kernel_matrix"] = (
        _kernels.kernel_matrix(x, x, _kernels.KERNEL_LOG_QUOTIENT, 0.0).ravel(),
        closed.ravel())

    p = 1.5
    for n in (2, 5, 8):
        theta, s, e = build_case(n, seed=n)
        eproj = e.superop_matrix()
        kernels = {
            f"mlsi_terms(n={n})": lambda: _kernels.mlsi_terms(theta, s.matrix, eproj, n),
            f"mlsi_value_grad(n={n})":
                lambda: _kernels.mlsi_value_grad(theta, s.matrix, eproj, n),
            f"cpsi_terms(n={n}, p={p})":
                lambda: _kernels.cpsi_terms(theta, s.matrix, eproj, n, p),
            f"cpsi_value_grad(n={n}, p={p})":
                lambda: _kernels.cpsi_value_grad(theta, s.matrix, eproj, n, p),
        }
        for key, fn in kernels.items():
            timings[key] = timeit(fn, args.repeats)
        values = [fn()[0] for fn in kernels.values()]
        if values[0] != values[1]:
            unequal.append(f"mlsi(n={n})")
        if values[2] != values[3]:
            unequal.append(f"cpsi(n={n})")
        rho = estimator._MatrixObjective(s, e).witness(theta)
        sigma = e(rho)
        _, fisher, d = _kernels.mlsi_terms(theta, s.matrix, eproj, n)
        pairs[f"mlsi(n={n})"] = (
            [fisher, d],
            [entropy.fisher_lindblad(s, rho), entropy.lindblad_rel_entropy(rho, sigma)])
        _, fisher, d = _kernels.cpsi_terms(theta, s.matrix, eproj, n, p)
        pairs[f"cpsi(n={n})"] = (
            [fisher, d], [entropy.p_fisher(s, rho, p), entropy.p_rel_entropy(rho, sigma, p)])

    nv = 8
    g = make_graph(nv, [(i, i + 1) for i in range(nv - 1)])
    objective = estimator._ClassicalObjective(g)
    ctheta = np.random.default_rng(9).normal(size=nv)
    timings[f"classical_terms(n={nv})"] = timeit(lambda: objective.terms(ctheta),
                                                  args.repeats)
    _, fisher, d = objective.terms(ctheta)
    f = objective.witness(ctheta)
    pairs["classical"] = ([fisher, d], [entropy.fisher_graph(g, f), entropy.entropy_graph(g, f)])

    print(f"{'kernel':32s} {'us/call':>12s}")
    for key, us in timings.items():
        print(f"{key:32s} {us:12.2f}")

    worst = 0.0
    for key, (values, reference) in pairs.items():
        for a, b in zip(values, reference):
            worst = max(worst, abs(a - b) / max(1.0, abs(b)))
    print(f"max relative disagreement with the independent evaluation: {worst:.3e}")
    failed = False
    if worst > GATE:
        print(f"ERROR: kernels disagree beyond {GATE:.0e}", file=sys.stderr)
        failed = True
    if unequal:
        print(f"ERROR: value-gradient ratio differs from the ratio objective: "
              f"{', '.join(unequal)}", file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
