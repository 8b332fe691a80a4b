"""Multistart estimator, decay curves, amplification probe, sandwich
harness."""

import json

import numpy as np
import pytest

from clsibound import _kernels, batteries, estimator, lindblad, serialize, spectral
from clsibound.estimator import (
    ORDERING_SLACK,
    EstimateOptions,
    classical_mlsi_estimate,
    clsi_probe,
    cpsi_estimate,
    decay_curve,
    evaluate_ratio,
    lbfgs,
    mlsi_estimate,
    nelder_mead,
    ordering_holds,
    ordering_rows,
    sandwich_check,
    target_orderings,
)
from clsibound.exceptions import DegenerateStartError
from clsibound.graphs import make_graph
from clsibound.lindblad import (
    PAULI_Z,
    depolarizing,
    fixed_point_dim,
    pauli_system,
    trace_expectation,
)

FAST = EstimateOptions(restarts=25, seed=7)


class TestNelderMead:
    def test_quadratic_minimum(self):
        fn = lambda x: float((x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2)
        x, fx, nfev = nelder_mead(fn, np.array([3.0, 3.0]), tol=1e-12)
        np.testing.assert_allclose(x, [1.0, -0.5], atol=1e-4)
        assert fx < 1e-8 and nfev > 0

    def test_handles_infinite_regions(self):
        fn = lambda x: float(x[0] ** 2) if abs(x[0]) < 10 else np.inf
        x, fx, _ = nelder_mead(fn, np.array([8.0]), tol=1e-10)
        assert fx < 1e-6

    def test_monotone_best(self):
        values = []

        def fn(x):
            v = float(np.sum(x ** 2))
            values.append(v)
            return v

        nelder_mead(fn, np.array([2.0, -1.0, 0.5]), tol=1e-10, max_iters=200)
        running = np.minimum.accumulate(values)
        assert np.all(np.diff(running) <= 0)


def accepted_values(calls, x_final):
    """The f values lbfgs accepted, read off its log of (x, f) evaluations:
    a rejected trial is followed by the trial at half its step from the same
    point, and the last trial was accepted if it is the returned point."""
    base_x, accepted = calls[0][0], [calls[0][1]]
    for k, (x, f) in enumerate(calls[1:], start=1):
        if k + 1 < len(calls):
            rejected = np.allclose(calls[k + 1][0] - base_x, 0.5 * (x - base_x),
                                   rtol=1e-12, atol=1e-15)
        else:
            rejected = not np.array_equal(x, x_final)
        if not rejected:
            base_x = x
            accepted.append(f)
    return accepted


class TestLbfgs:
    def test_quadratic_minimum(self):
        fn_grad = lambda x: (float((x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2),
                             np.array([2.0 * (x[0] - 1.0), 4.0 * (x[1] + 0.5)]))
        x, fx, nfev = lbfgs(fn_grad, np.array([3.0, 3.0]))
        np.testing.assert_allclose(x, [1.0, -0.5], atol=1e-6)
        assert fx < 1e-12 and nfev > 0

    def test_handles_infinite_regions(self):
        # log cosh is nearly flat at x = 8, so the first secant step scales
        # by 1/|y| ~ 1e6 and lands far inside the excluded region |x| >= 10
        excluded = []

        def fn_grad(x):
            if abs(x[0]) >= 10:
                excluded.append(x[0])
                return np.inf, 0.0
            return float(np.logaddexp(x[0], -x[0]) - np.log(2.0)), np.tanh(x)

        x, fx, _ = lbfgs(fn_grad, np.array([8.0]))
        assert excluded
        assert np.isfinite(fx) and fx < 1e-10

    def test_accepted_values_decrease(self):
        calls = []

        def fn_grad(x):  # Rosenbrock: the line search backtracks on it
            f = float((1.0 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)
            g = np.array([-2.0 * (1.0 - x[0]) - 400.0 * x[0] * (x[1] - x[0] ** 2),
                          200.0 * (x[1] - x[0] ** 2)])
            calls.append((x.copy(), f))
            return f, g

        x, fx, nfev = lbfgs(fn_grad, np.array([-1.2, 1.0]))
        assert nfev == len(calls)
        accepted = accepted_values(calls, x)
        assert accepted[-1] == fx
        assert len(accepted) < len(calls)  # some trials were rejected
        assert np.all(np.diff(accepted) < 0)


class TestMlsiEstimate:
    def test_pauli_window(self):
        report = mlsi_estimate(pauli_system(), trace_expectation(2), FAST)
        assert 2.0 - 1e-9 <= report.value <= 2.10

    def test_depolarizing_window(self):
        report = mlsi_estimate(depolarizing(2), trace_expectation(2), FAST)
        assert 1.5 <= report.value <= 2.05

    def test_known_witness_ratio(self):
        # rho = diag(1.5, 0.5) on id - E_trace: I/D ~ 2.09961
        theta = np.array([np.log(1.5), np.log(0.5), 0.0, 0.0])
        ratio, fisher, ent = evaluate_ratio(depolarizing(2), trace_expectation(2), theta)
        assert ratio == pytest.approx(0.2746530721670274 / 0.13081203594113694, abs=1e-4)

    def test_determinism(self):
        a = mlsi_estimate(pauli_system(), trace_expectation(2), FAST)
        b = mlsi_estimate(pauli_system(), trace_expectation(2), FAST)
        assert a.value == b.value
        assert np.array_equal(a.witness_theta, b.witness_theta)
        assert a.to_json() == b.to_json()

    def test_witness_reproduces_value(self):
        report = mlsi_estimate(pauli_system(), trace_expectation(2), FAST)
        ratio, _, _ = evaluate_ratio(pauli_system(), trace_expectation(2),
                                     report.witness_theta)
        assert abs(ratio - report.value) <= 1e-12

    def test_witness_is_valid_state(self):
        report = mlsi_estimate(pauli_system(), trace_expectation(2), FAST)
        w = np.linalg.eigvalsh(report.witness)
        assert w.min() > 0
        assert np.trace(report.witness).real == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("target, p", [("pauli", None), ("depolarizing:3", None),
                                           ("pauli", 1.5)])
    def test_witness_is_gibbs_state_of_theta(self, target, p):
        s = pauli_system() if target == "pauli" else depolarizing(3)
        e_fix = trace_expectation(s.dim)
        opts = EstimateOptions(restarts=2, seed=3)
        report = (mlsi_estimate(s, e_fix, opts) if p is None
                  else cpsi_estimate(s, e_fix, p, opts))
        h = _kernels.hermitian_from_params(report.witness_theta, s.dim)
        assert np.array_equal(report.witness, spectral.gibbs_state(h))

    def test_report_json_schema(self):
        report = mlsi_estimate(pauli_system(), trace_expectation(2),
                               EstimateOptions(restarts=3, seed=1))
        doc = report.to_json_dict()
        assert doc["schema_version"] == 1
        assert doc["seed"] == 1
        assert doc["options"]["restarts"] == 3
        assert len(doc["per_restart"]) == 3

    def test_c5_restarts_converge(self):
        # the quasi-Newton search reaches one minimum from most random starts
        s = lindblad.graph_lindblad(make_graph(5, [(i, (i + 1) % 5) for i in range(5)]))
        report = mlsi_estimate(s, fixed_point_dim(s).expectation,
                               EstimateOptions(restarts=12, seed=3))
        assert report.value <= 3.9844
        agree = [abs(v - report.value) <= 1e-6 for v in report.per_restart]
        assert len(agree) == 12 and sum(agree) >= 10


class TestCpsiEstimate:
    def test_depolarizing_floor(self):
        for p in (1.1, 1.5, 1.9):
            report = cpsi_estimate(depolarizing(2), trace_expectation(2), p,
                                   EstimateOptions(restarts=15, seed=7))
            assert report.value >= p - 0.05

    def test_limit_consistency_with_mlsi(self):
        opts = EstimateOptions(restarts=15, seed=7)
        near_one = cpsi_estimate(pauli_system(), trace_expectation(2), 1.001, opts)
        base = mlsi_estimate(pauli_system(), trace_expectation(2), opts)
        assert near_one.value == pytest.approx(base.value, rel=0.05)

    def test_p_validation(self):
        with pytest.raises(ValueError):
            cpsi_estimate(pauli_system(), trace_expectation(2), 2.5, FAST)


class TestClsiProbe:
    def test_m1_coincides(self):
        opts = EstimateOptions(restarts=10, seed=3)
        probe = clsi_probe(pauli_system(), trace_expectation(2), 1, opts)
        base = mlsi_estimate(pauli_system(), trace_expectation(2), opts)
        assert probe.value == base.value

    def test_pauli_amplified_window(self):
        opts = EstimateOptions(restarts=10, seed=3)
        probe = clsi_probe(pauli_system(), trace_expectation(2), 2, opts)
        assert 2.0 - 1e-9 <= probe.value <= 2.15

    def test_monotone_in_m(self):
        opts = EstimateOptions(restarts=8, seed=3)
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        s = lindblad.graph_lindblad(g)
        e = fixed_point_dim(s).expectation
        one = clsi_probe(s, e, 1, opts)
        two = clsi_probe(s, e, 2, opts)
        assert two.value <= one.value + ORDERING_SLACK

    def test_cap(self):
        with pytest.raises(ValueError, match="cap"):
            clsi_probe(pauli_system(), trace_expectation(2), 7)


class TestDegenerateStarts:
    def test_error_when_everything_fixed(self):
        # zero superoperator: its kernel projection is the identity map, so
        # D(rho || E rho) == 0 for every start
        from clsibound.spectral import superop_from_generators
        s = superop_from_generators([], dim=2)
        e = fixed_point_dim(s).expectation
        assert fixed_point_dim(s).dim == 4
        with pytest.raises(DegenerateStartError):
            mlsi_estimate(s, e, EstimateOptions(restarts=3, seed=0))

    def test_cpsi_degenerate_path(self):
        # rho == E rho everywhere means d^p == 0: same rejection for the
        # p-ratio harness
        from clsibound.spectral import superop_from_generators
        s = superop_from_generators([], dim=2)
        e = fixed_point_dim(s).expectation
        with pytest.raises(DegenerateStartError):
            cpsi_estimate(s, e, 1.5, EstimateOptions(restarts=3, seed=0))


class TestDecayCurve:
    def test_fixed_point_rejected(self):
        s = pauli_system()
        with pytest.raises(DegenerateStartError):
            decay_curve(s, trace_expectation(2), np.eye(2, dtype=complex),
                        np.linspace(0, 2, 5))

    def test_z_witness_rate(self):
        s = pauli_system()
        rho0 = np.eye(2, dtype=complex) + 0.5 * PAULI_Z
        curve = decay_curve(s, trace_expectation(2), rho0, np.linspace(0.0, 3.0, 25))
        assert curve.fitted_rate >= 1.999
        assert np.all(np.diff(curve.values) <= 1e-10)

    def test_certified_rate_envelope(self):
        # D(t) <= e^{-lambda_cert t} D(0) with lambda_cert = 2 for this system
        s = pauli_system()
        rho0 = batteries.random_state(np.random.default_rng(0), 2)
        ts = np.linspace(0.0, 2.0, 9)
        curve = decay_curve(s, trace_expectation(2), rho0, ts)
        envelope = np.exp(-2.0 * ts) * curve.values[0]
        assert np.all(curve.values <= envelope + 1e-10)

    def test_csv_format(self):
        s = pauli_system()
        rho0 = np.eye(2, dtype=complex) + 0.5 * PAULI_Z
        curve = decay_curve(s, trace_expectation(2), rho0, np.linspace(0.0, 1.0, 5))
        lines = curve.to_csv().strip().split("\n")
        assert lines[0] == "t,D,lnD"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) > 0

    def test_grid_validation(self):
        s = pauli_system()
        rho0 = np.eye(2, dtype=complex) + 0.5 * PAULI_Z
        with pytest.raises(ValueError):
            decay_curve(s, trace_expectation(2), rho0, [0.0, 0.0, 1.0])


class TestClassicalEstimate:
    def test_triangle_below_twice_gap(self):
        g = make_graph(3, [(0, 1), (1, 2), (0, 2)])
        from clsibound.graphs import graph_laplacian
        from clsibound.spectral import spectral_gap
        report = classical_mlsi_estimate(
            g, EstimateOptions(restarts=10, seed=3),
            extra_starts=[estimator.gap_seed_classical(graph_laplacian(g))])
        assert report.value <= 2.0 * spectral_gap(graph_laplacian(g)) + 1e-6
        assert report.value > 0

    def test_witness_positive(self):
        g = make_graph(3, [(0, 1), (1, 2)])
        report = classical_mlsi_estimate(g, EstimateOptions(restarts=5, seed=1))
        assert np.all(report.witness > 0)


class TestSandwich:
    @pytest.mark.parametrize("edges,n", [
        ([(0, 1), (1, 2), (0, 2)], 3),
        ([(0, 1), (1, 2), (2, 3), (0, 3)], 4),
        ([(0, 1), (1, 2)], 3),
    ])
    def test_orderings_hold(self, edges, n):
        report = sandwich_check(make_graph(n, edges),
                                EstimateOptions(restarts=8, seed=3))
        assert report.passed, report.failed_pairs

    def test_z4_certified_below_classical(self):
        report = sandwich_check(make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
                                EstimateOptions(restarts=8, seed=3))
        assert report.certificate_best == pytest.approx(1.0 / 45.0)
        assert report.certificate_best <= report.classical.value + 1e-6

    def test_report_names_pairs(self):
        report = sandwich_check(make_graph(3, [(0, 1), (1, 2), (0, 2)]),
                                EstimateOptions(restarts=6, seed=3))
        names = {name for name, _, _, _ in report.orderings}
        assert names == {
            "lindblad-certified<=matrix-estimate",
            "matrix-estimate<=classical-estimate",
            "graph-certified<=classical-estimate",
            "classical-estimate<=2*classical-gap",
            "matrix-estimate<=2*matrix-gap",
        }


    def test_ordering_slack_absolute_to_one_then_relative(self):
        assert ordering_holds(0.5 + 1e-6, 0.5)
        assert not ordering_holds(0.5 + 2e-6, 0.5)
        assert ordering_holds(2.0000000000673076e6, 2e6)
        assert not ordering_holds(2e6 * (1 + 1e-5), 2e6)

    def test_ordering_rows_judge_each_triple_and_skip_a_missing_lhs(self):
        rows = ordering_rows([("a", np.float64(1.0), 2), ("b", None, 0.0),
                              ("c", 3.0, 1.0)])
        assert rows == [("a", 1.0, 2.0, True), ("c", 3.0, 1.0, False)]
        assert all(type(lhs) is float and type(rhs) is float
                   for _, lhs, rhs, _ in rows)

    def test_target_orderings(self):
        s = pauli_system()
        report = mlsi_estimate(s, trace_expectation(2), EstimateOptions(restarts=2, seed=1))
        assert target_orderings(report, 1.0) == [
            ("estimate<=2*gap", report.value, 2.0, True)]
        assert [row[0] for row in target_orderings(report, 1.0, 2.5)] == [
            "estimate<=2*gap", "certified<=estimate"]
        assert not target_orderings(report, 1.0, 2.5)[1][3]
        report.p = 1.5
        assert target_orderings(report, 0.1, 2.5) == []

    def test_sandwich_json_nests_the_summary_in_each_report(self):
        report = sandwich_check(make_graph(3, [(0, 1), (1, 2), (0, 2)]),
                                EstimateOptions(restarts=2, seed=3))
        doc = json.loads(report.to_json())
        summary = report.to_json_dict()
        assert list(doc) == [*summary, "schema_version", "matrix_report",
                             "classical_report"]
        for key, estimate in (("matrix_report", report.matrix),
                              ("classical_report", report.classical)):
            assert list(doc[key]) == [*estimate.to_json_dict(), "sandwich"]
            assert doc[key]["sandwich"] == json.loads(serialize.dumps(summary))


class TestScalingInvariance:
    def test_same_minimum_from_scaled_start(self):
        # the objective is scale-free in the state: theta and theta + c*id
        # parametrize the same state up to normalization
        s = pauli_system()
        e = trace_expectation(2)
        theta = np.array([0.3, -0.2, 0.1, 0.05])
        shifted = theta + np.array([1.0, 1.0, 0.0, 0.0])
        r1, _, _ = evaluate_ratio(s, e, theta)
        r2, _, _ = evaluate_ratio(s, e, shifted)
        assert r1 == pytest.approx(r2, rel=1e-12)
