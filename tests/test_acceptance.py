"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import pytest

from clsibound import batteries, graphs, serialize
from clsibound.estimator import EstimateOptions, mlsi_estimate, sandwich_check
from clsibound.graphs import certified_bound, cyclic_bound, lindblad_bound, make_graph
from clsibound.lindblad import depolarizing, pauli_system, trace_expectation


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


def test_01_pauli_window():
    start = time.monotonic()
    rep = mlsi_estimate(pauli_system(), trace_expectation(2),
                        EstimateOptions(restarts=200, seed=7), target="pauli")
    elapsed = time.monotonic() - start
    ok = (2.0 - 1e-9 <= rep.value <= 2.10) and elapsed < 30.0
    report(1, "pauli-window", ok,
           f"estimate={rep.value!r}, window=[2-1e-9, 2.10], {elapsed:.1f}s")


def test_02_depolarizing_window():
    start = time.monotonic()
    rep = mlsi_estimate(depolarizing(2), trace_expectation(2),
                        EstimateOptions(restarts=200, seed=7),
                        target="depolarizing:2")
    elapsed = time.monotonic() - start
    ok = (1.5 <= rep.value <= 2.05) and elapsed < 30.0
    report(2, "depolarizing-window", ok,
           f"estimate={rep.value!r}, window=[1.5, 2.05], {elapsed:.1f}s")


def test_03_certified_formulas():
    start = time.monotonic()
    ok = True
    details = []
    for n in range(3, 9):
        expected = 16.0 / (45.0 * n * n)
        ok &= cyclic_bound(n) == expected
    details.append("cyclic 3..8 exact")

    star = certified_bound(make_graph(4, [(0, 1), (0, 2), (0, 3)]))
    ok &= star.bounds["corollary-worst-case"] == 2.0 / 1215.0
    details.append(f"star corollary={serialize.fmt17(star.bounds['corollary-worst-case'])}")

    lam = 1.0 / 45.0
    expected = lam / (1.0 + 5.0 * math.pi ** 2 * lam)
    ok &= serialize.fmt17(lindblad_bound(lam)) == serialize.fmt17(expected)
    details.append(f"transfer(1/45)={serialize.fmt17(lindblad_bound(lam))}")

    elapsed = time.monotonic() - start
    ok &= elapsed < 1.0
    report(3, "certified-formulas", ok, "; ".join(details) + f", {elapsed:.2f}s")


SANDWICH_BATTERY = [
    ("P3", 3, [(0, 1), (1, 2)]),
    ("K3", 3, [(0, 1), (1, 2), (0, 2)]),
    ("P4", 4, [(0, 1), (1, 2), (2, 3)]),
    ("star4", 4, [(0, 1), (0, 2), (0, 3)]),
    ("C4", 4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ("paw", 4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
    ("diamond", 4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]),
    ("K4", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ("P5", 5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    ("star5", 5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
    ("C5", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    ("spider", 5, [(0, 1), (1, 2), (1, 3), (3, 4)]),
    ("broom", 5, [(0, 1), (0, 2), (0, 3), (3, 4)]),
    ("bull", 5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]),
    ("butterfly", 5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]),
    ("house", 5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 4)]),
    ("gem", 5, [(1, 2), (2, 3), (3, 4), (0, 1), (0, 2), (0, 3), (0, 4)]),
    ("K23", 5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
    ("wheel4", 5, [(1, 2), (2, 3), (3, 4), (1, 4), (0, 1), (0, 2), (0, 3), (0, 4)]),
    ("K5", 5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
]


def test_04_sandwich_battery():
    start = time.monotonic()
    opts = EstimateOptions(restarts=12, seed=3)
    failures = []
    for name, n, edges in SANDWICH_BATTERY:
        rep = sandwich_check(make_graph(n, edges), opts, label=name)
        if not rep.passed:
            failures.append(f"{name}: {rep.failed_pairs}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 600.0
    detail = f"{len(SANDWICH_BATTERY)} graphs, {elapsed:.1f}s"
    if failures:
        detail += "; " + "; ".join(failures)
    report(4, "sandwich-battery", ok, detail)


def test_05_doi_battery():
    start = time.monotonic()
    identity = batteries.battery_doi_identity(trials=100)
    quad = batteries.battery_quadrature(trials=100)
    elapsed = time.monotonic() - start
    ok = identity.passed and quad.passed and elapsed < 10.0
    report(5, "doi-battery", ok,
           f"identity residual {identity.max_residual:.2e} (<=1e-10), "
           f"quadrature {quad.max_residual:.2e} (<=1e-6), {elapsed:.1f}s")


def test_06_entropy_interpolation():
    start = time.monotonic()
    result = batteries.battery_entropy_interpolation(trials=50)
    elapsed = time.monotonic() - start
    ok = result.passed and elapsed < 10.0
    report(6, "entropy-interpolation", ok,
           f"max residual {result.max_residual:.2e} (<1e-8), {elapsed:.1f}s")


def test_07_doi_monotonicity():
    result = batteries.battery_doi_monotonicity(trials=100)
    report(7, "doi-monotonicity", result.passed,
           f"min eigenvalue residual {result.max_residual:.2e} (>=-1e-9)")


def test_08_edge_expectation_lemmas():
    product = batteries.battery_edge_product()
    entropy_cmp = batteries.battery_diagonal_entropy_comparison(trials=100)
    fisher_mono = batteries.battery_diagonal_fisher_monotone(trials=100)
    ok = product.passed and entropy_cmp.passed and fisher_mono.passed
    report(8, "edge-expectation-lemmas", ok,
           f"product exact={product.passed}, "
           f"entropy-comparison worst {entropy_cmp.max_residual:.2e}, "
           f"fisher-monotone worst {fisher_mono.max_residual:.2e}, zero violations")


def test_09_p_suite():
    pinching_p = batteries.battery_pinching_p_sobolev()
    limits = batteries.battery_p_limits()
    ok = pinching_p.passed and limits.passed
    report(9, "p-suite", ok,
           f"pinching-p residual {pinching_p.max_residual:.2e}, "
           f"p->1 limits within {limits.max_residual:.2e} (<=1e-2)")


def test_10_fisher_derivative():
    result = batteries.battery_fisher_derivative(trials=50)
    report(10, "fisher-derivative", result.passed,
           f"max relative residual {result.max_residual:.2e} (<=1e-5), 50 cases")


def test_11_gradient_estimate():
    result = batteries.battery_gradient_estimate()
    report(11, "gradient-estimate", result.passed,
           f"worst residual {result.max_residual:.2e} (<=1e-9); {result.detail}")


def test_12_appendix_constants():
    chain = graphs.verify_constant_chain()
    ok = chain.ok and abs(chain.ratio - 0.8573) < 2e-4 and chain.ratio >= 0.8
    report(12, "appendix-constants", ok,
           f"grid margin {chain.grid_margin:.3e}, ratio {chain.ratio:.5f} >= 0.8, "
           f"chain n=3..8 exact")


def test_13_ergodicity_kernels():
    result = batteries.battery_kernel_dims()
    report(13, "ergodicity-kernels", result.passed, result.detail)
