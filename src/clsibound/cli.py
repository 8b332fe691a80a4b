"""Command-line interface.

Subcommands: bound, lindblad, estimate, decay, verify, cover.  Machine
output goes to stdout as key=value lines (17-significant-digit decimals);
human messages go to stderr.  Files are written atomically.

Exit codes: 0 success, 2 parse error, 3 disconnected graph, 4 sandwich
ordering violation, 5 non-monotone decay (or a fixed-point initial state),
6 verification battery failure, 7 numerical error (two computation routes
disagree, or a quadrature oracle did not converge).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import batteries, estimator, graphs, lindblad, serialize
from .exceptions import (
    ConsistencyError,
    DegenerateStartError,
    DisconnectedGraphError,
    GraphFormatError,
    NumericalIntegrityError,
    QuadratureError,
)
from .lindblad import fixed_point_dim
from .spectral import spectral_gap

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DISCONNECTED = 3
EXIT_SANDWICH = 4
EXIT_DECAY = 5
EXIT_VERIFY = 6
EXIT_NUMERICAL = 7


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(key: str, value) -> None:
    if isinstance(value, float):
        value = serialize.fmt17(value)
    print(f"{key}={value}")


def _read_graph(path: str) -> graphs.WeightedGraph:
    with open(path) as handle:
        return graphs.load_graph(handle.read())


def _build_target(name: str, graph_path):
    """Resolve a --target spec to (superoperator, fixed-point expectation,
    label).  Builtins: pauli, depolarizing:n, intspec:d0,d1,...; anything
    else requires --graph."""
    if name == "pauli":
        s = lindblad.pauli_system()
    elif name.startswith("depolarizing:"):
        s = lindblad.depolarizing(int(name.split(":", 1)[1]))
    elif name.startswith("intspec:"):
        diag = [float(x) for x in name.split(":", 1)[1].split(",")]
        s = lindblad.integer_spectrum_lindblad(np.diag(diag).astype(complex))
    elif name == "graph":
        if not graph_path:
            raise GraphFormatError("--target graph requires --graph PATH")
        g = _read_graph(graph_path)
        if not graphs.is_connected(g):
            raise DisconnectedGraphError("graph is disconnected")
        s = lindblad.graph_lindblad(g)
    else:
        raise GraphFormatError(f"unknown target {name!r}")
    return s, fixed_point_dim(s).expectation, name


def _initial_state(spec: str, s) -> np.ndarray:
    n = s.dim
    if spec == "zwitness":
        if n != 2:
            raise GraphFormatError("zwitness is a two-level state")
        return np.eye(2, dtype=complex) + 0.5 * lindblad.PAULI_Z
    if spec == "fixed":
        return np.eye(n, dtype=complex)
    if spec.startswith("random:"):
        rng = np.random.default_rng(int(spec.split(":", 1)[1]))
        return batteries.random_state(rng, n)
    with open(spec) as handle:
        import json

        return serialize.matrix_from_json(json.load(handle))


def _opts_from_args(args) -> estimator.EstimateOptions:
    return estimator.EstimateOptions(restarts=args.restarts, seed=args.seed,
                                     tol=args.tol)


def cmd_bound(args) -> int:
    g = _read_graph(args.graph)
    cert = graphs.certified_bound(g)
    _emit("best", cert.best)
    _emit("lindblad", cert.lindblad_lower)
    if args.out:
        serialize.atomic_write_text(args.out, cert.to_json())
        _err(f"certificate written to {args.out}")
    return EXIT_OK


def cmd_lindblad(args) -> int:
    g = _read_graph(args.graph)
    cert = graphs.certified_bound(g)
    _emit("lindblad", cert.lindblad_lower)
    return EXIT_OK


def cmd_estimate(args) -> int:
    opts = _opts_from_args(args)
    if args.graph and args.target == "graph":
        g = _read_graph(args.graph)
        if not graphs.is_connected(g):
            raise DisconnectedGraphError("graph is disconnected")
        report = estimator.sandwich_check(g, opts)
        _emit("classical_estimate", report.classical.value)
        _emit("matrix_estimate", report.matrix.value)
        _emit("certified", report.certificate_best)
        _emit("lindblad_certified", report.lindblad_certified)
        _emit("gap_classical", report.gap_classical)
        _emit("gap_matrix", report.gap_matrix)
        _emit("sandwich", "pass" if report.passed else "fail")
        if args.out:
            doc = report.to_json_dict()
            doc["schema_version"] = 1
            doc["matrix_report"] = report.matrix.to_json_dict()
            doc["classical_report"] = report.classical.to_json_dict()
            serialize.atomic_write_text(args.out, serialize.dumps(doc, indent=2) + "\n")
            _err(f"report written to {args.out}")
        if not report.passed:
            _err("sandwich ordering violated: " + ", ".join(report.failed_pairs))
            return EXIT_SANDWICH
        return EXIT_OK

    s, e_fix, label = _build_target(args.target, args.graph)
    if args.p is not None:
        report = estimator.cpsi_estimate(s, e_fix, args.p, opts, target=label)
    elif args.m > 1:
        report = estimator.clsi_probe(s, e_fix, args.m, opts, target=label)
    else:
        report = estimator.mlsi_estimate(s, e_fix, opts, target=label)
    gap = spectral_gap(s)
    _emit("estimate", report.value)
    _emit("gap", gap)
    if args.out:
        serialize.atomic_write_text(args.out, report.to_json())
        _err(f"report written to {args.out}")
    slack = estimator.SANDWICH_BASE_SLACK + opts.tol
    if report.value > 2.0 * gap + slack and args.m <= 1 and args.p is None:
        _err(f"ordering violated: estimate<=2*gap "
             f"({report.value!r} > {2.0 * gap!r} + slack)")
        return EXIT_SANDWICH
    return EXIT_OK


def cmd_decay(args) -> int:
    s, e_fix, label = _build_target(args.target, args.graph)
    rho0 = _initial_state(args.state, s)
    grid = np.linspace(args.t_start, args.t_stop, args.t_count)
    curve = estimator.decay_curve(s, e_fix, rho0, grid)
    if args.out:
        serialize.atomic_write_text(args.out, curve.to_csv())
        _err(f"decay table written to {args.out}")
    _emit("fitted_rate", curve.fitted_rate)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = batteries.run_batteries(only=args.only, trials=args.trials,
                                      dims=args.dims)
    failed = 0
    for result in results:
        print(result.line())
        failed += not result.passed
    return EXIT_VERIFY if failed else EXIT_OK


def cmd_cover(args) -> int:
    g = _read_graph(args.graph)
    mst = graphs.kruskal_mst(g)
    cover = graphs.traversal_cover(mst)
    check = graphs.verify_cover(cover, cover.induced_tree_graph())
    doc = {
        "schema_version": 1,
        "tree_edges": [[u, v] for u, v in cover.tree_edges],
        "sequence": list(cover.sequence),
        "mu_prime": serialize.vector_to_json(cover.mu_prime),
        "w_prime": [[u, v, cover.w_prime[(u, v)]] for u, v in cover.tree_edges],
        "vertex_multiplicity": [int(m) for m in cover.m_vertex],
        "verified": check.ok,
    }
    text = serialize.dumps(doc, indent=2) + "\n"
    if args.out:
        serialize.atomic_write_text(args.out, text)
        _err(f"cover written to {args.out}")
    else:
        print(text, end="")
    _emit("verified", "true" if check.ok else "false")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clsibound",
        description="Certified log-Sobolev lower bounds for graphs and their "
                    "matrix generators, with numeric verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph_required=False):
        p.add_argument("--graph", help="graph JSON file", required=graph_required)
        p.add_argument("--out", help="output file path")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=200)
        p.add_argument("--tol", type=float, default=1e-8,
                       help="classical Nelder-Mead tolerance and the slack of "
                            "the ordering checks; the matrix L-BFGS search "
                            "uses fixed stopping constants")

    p_bound = sub.add_parser("bound", help="certified bounds for a graph")
    common(p_bound, graph_required=True)
    p_bound.set_defaults(fn=cmd_bound)

    p_lind = sub.add_parser("lindblad", help="transferred matrix-generator bound")
    common(p_lind, graph_required=True)
    p_lind.set_defaults(fn=cmd_lindblad)

    p_est = sub.add_parser("estimate", help="numeric MLSI/CpSI estimate")
    common(p_est)
    p_est.add_argument("--target", default="graph",
                       help="pauli | depolarizing:n | intspec:d0,d1,... | graph")
    p_est.add_argument("--p", type=float, default=None,
                       help="p in (1,2) for the p-Sobolev estimate")
    p_est.add_argument("--m", type=int, default=1,
                       help="matrix amplification for the complete-constant probe")
    p_est.set_defaults(fn=cmd_estimate)

    p_dec = sub.add_parser("decay", help="entropy decay curve")
    common(p_dec)
    p_dec.add_argument("--target", default="graph")
    p_dec.add_argument("--state", default="random:0",
                       help="random:SEED | zwitness | fixed | path to matrix JSON")
    p_dec.add_argument("--t-start", type=float, default=0.0, dest="t_start")
    p_dec.add_argument("--t-stop", type=float, default=3.0, dest="t_stop")
    p_dec.add_argument("--t-count", type=int, default=25, dest="t_count")
    p_dec.set_defaults(fn=cmd_decay)

    p_ver = sub.add_parser("verify", help="run the property batteries")
    p_ver.add_argument("--only", help="run one named battery")
    p_ver.add_argument("--dims", type=int, default=None,
                       help="cap matrix dimension for dimension-aware batteries")
    p_ver.add_argument("--trials", type=int, default=None,
                       help="override per-battery trial counts")
    p_ver.set_defaults(fn=cmd_verify)

    p_cov = sub.add_parser("cover", help="traversal cover of the MST")
    common(p_cov, graph_required=True)
    p_cov.set_defaults(fn=cmd_cover)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphFormatError, FileNotFoundError, ValueError, KeyError) as exc:
        if isinstance(exc, DisconnectedGraphError):
            _err("graph is disconnected")
            return EXIT_DISCONNECTED
        _err(f"error: {exc}")
        return EXIT_PARSE
    except (NumericalIntegrityError, DegenerateStartError) as exc:
        _err(f"decay error: {exc}")
        return EXIT_DECAY
    except (ConsistencyError, QuadratureError) as exc:
        _err(f"numerical error: {exc}")
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
