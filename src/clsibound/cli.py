"""Command-line interface.

Subcommands: bound, estimate, decay, verify; each takes only the options
it reads.  ``bound`` prints the best certified graph bound and its
transfer to the matrix generator; ``--out`` writes the full certificate,
MST and traversal cover included.  ``estimate`` and ``decay`` take exactly
one of ``--target`` (a row of ``lindblad.TARGETS``) and ``--graph PATH``,
of dimension at most MAX_TARGET_DIM; ``estimate`` reports the orderings
``estimator`` finds violated.  Machine output goes to stdout as key=value
lines (17-significant-digit decimals); human messages go to stderr.  Files
are written atomically.

Exit codes (``ERRORS`` maps exceptions to them and to one stderr line):
  0  success
  2  usage or input error: argparse, unreadable or malformed input
  3  disconnected graph
  4  ordering violation: the sandwich, or estimate --target's own orderings
  5  non-monotone decay, or a degenerate start on the fixed-point manifold
  6  verification battery failure
  7  numerical error: two computation routes disagree, or a quadrature
     oracle did not converge
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial

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

# Largest dimension n of a target, whose superoperator is n^2 x n^2.
MAX_TARGET_DIM = 32
# Most points of a decay grid, each one propagation and one entropy.
MAX_DECAY_POINTS = 10_000

# (exception types, exit code, stderr line): the first matching row wins.
ERRORS = (
    ((DisconnectedGraphError,), EXIT_DISCONNECTED, "graph is disconnected"),
    ((ValueError, KeyError, OSError), EXIT_PARSE, "error: {}"),
    ((NumericalIntegrityError,), EXIT_DECAY, "decay error: {}"),
    ((DegenerateStartError,), EXIT_DECAY, "degenerate start: {}"),
    ((ConsistencyError, QuadratureError), EXIT_NUMERICAL, "numerical error: {}"),
)


def _err(message: str) -> None:
    print(message, file=sys.stderr)


def _emit(key: str, value) -> None:
    if isinstance(value, float):
        value = serialize.fmt17(value)
    print(f"{key}={value}")


def _read_graph(path: str) -> graphs.WeightedGraph:
    with open(path) as handle:
        return graphs.load_graph(handle.read())


def _build_target(args):
    """(superoperator, fixed-point expectation, certified lower bound or None)
    of --target or --graph PATH; the dimension is checked before building."""
    spec = args.target
    if spec is None:
        g = _read_graph(args.graph)
        if not graphs.is_connected(g):
            raise DisconnectedGraphError("graph is disconnected")
        n, build, certified = g.n, partial(lindblad.graph_lindblad, g), None
    else:
        prefix = spec.partition(":")[:2]
        row = next((row for row in lindblad.TARGETS
                    if row[0].partition(":")[:2] == prefix), None)
        if row is None:
            raise GraphFormatError(f"unknown target {spec!r}")
        _, dimension, build_spec, certify = row
        n, build = dimension(spec), partial(build_spec, spec)
        certified = None if certify is None else certify(spec)
    if n > MAX_TARGET_DIM:
        raise ValueError(f"target dimension {n} exceeds MAX_TARGET_DIM = {MAX_TARGET_DIM}")
    s = build()
    return s, fixed_point_dim(s).expectation, certified


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
        return serialize.matrix_from_json(json.load(handle))


def cmd_bound(args) -> int:
    g = _read_graph(args.graph)
    cert = graphs.certified_bound(g)
    _emit("best", cert.best)
    _emit("lindblad", cert.lindblad_lower)
    if args.out:
        serialize.atomic_write_text(args.out, cert.to_json())
        _err(f"certificate written to {args.out}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    opts = estimator.EstimateOptions(restarts=args.restarts, seed=args.seed)
    if args.graph:
        if args.p is not None or args.m is not None:
            raise ValueError("--graph runs the sandwich check, without --p or --m")
        report = estimator.sandwich_check(_read_graph(args.graph), opts)
        _emit("classical_estimate", report.classical.value)
        _emit("matrix_estimate", report.matrix.value)
        _emit("certified", report.certificate_best)
        _emit("lindblad_certified", report.lindblad_certified)
        _emit("gap_classical", report.gap_classical)
        _emit("gap_matrix", report.gap_matrix)
        _emit("sandwich", "pass" if report.passed else "fail")
        if args.out:
            serialize.atomic_write_text(args.out, report.to_json())
            _err(f"report written to {args.out}")
        if not report.passed:
            _err("sandwich ordering violated: " + ", ".join(report.failed_pairs))
            return EXIT_SANDWICH
        return EXIT_OK

    s, e_fix, certified = _build_target(args)
    if args.p is not None:
        report = estimator.cpsi_estimate(s, e_fix, args.p, opts, target=args.target)
    elif (args.m or 1) > 1:
        report = estimator.clsi_probe(s, e_fix, args.m, opts, target=args.target)
    else:
        report = estimator.mlsi_estimate(s, e_fix, opts, target=args.target)
    gap = spectral_gap(s)
    _emit("estimate", report.value)
    _emit("gap", gap)
    if args.out:
        serialize.atomic_write_text(args.out, report.to_json())
        _err(f"report written to {args.out}")
    for name, lhs, rhs, ok in estimator.target_orderings(report, gap, certified):
        if not ok:
            _err(f"ordering violated: {name} ({lhs!r} > {rhs!r} + slack)")
            return EXIT_SANDWICH
    return EXIT_OK


def cmd_decay(args) -> int:
    s, e_fix, _ = _build_target(args)
    rho0 = _initial_state(args.state, s)
    grid = np.linspace(args.t_start, args.t_stop, args.t_count)
    curve = estimator.decay_curve(s, e_fix, rho0, grid)
    if args.out:
        serialize.atomic_write_text(args.out, curve.to_csv())
        _err(f"decay table written to {args.out}")
    _emit("fitted_rate", curve.fitted_rate)
    return EXIT_OK


def cmd_verify(args) -> int:
    results = batteries.run_batteries(only=args.only, trials=args.trials)
    failed = 0
    for result in results:
        print(result.line())
        failed += not result.passed
    return EXIT_VERIFY if failed else EXIT_OK


def _int_in(low: int, high: float = math.inf):
    """An argparse type: an integer in [low, high)."""
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(
                f"{text} is not an integer in [{low}, {high})")
        return value
    return parse


def _time(text: str) -> float:
    """An argparse type: a finite time t >= 0."""
    value = float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"{text} is not a finite time >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clsibound",
        description="Certified log-Sobolev lower bounds for graphs and their "
                    "matrix generators, with numeric verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _int_in(1)

    def add(name, fn, summary, *options):
        """A subcommand parser with the named shared options: "target"
        (exactly one of --target and --graph) and "out"."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        if "target" in options:
            choice = p.add_mutually_exclusive_group(required=True)
            choice.add_argument("--target", help=" | ".join(
                form for form, *_ in lindblad.TARGETS))
            choice.add_argument("--graph", help="graph JSON file")
        if "out" in options:
            p.add_argument("--out", help="output file path")
        return p

    p_bound = add("bound", cmd_bound, "certified bounds for a graph", "out")
    p_bound.add_argument("--graph", required=True, help="graph JSON file")

    p_est = add("estimate", cmd_estimate, "numeric MLSI/CpSI estimate", "target", "out")
    p_est.add_argument("--seed", type=_int_in(0, 2 ** 64), default=0)
    p_est.add_argument("--restarts", type=positive, default=200)
    variant = p_est.add_mutually_exclusive_group()
    variant.add_argument("--p", type=float, default=None,
                         help="p in (1,2) for the p-Sobolev estimate")
    variant.add_argument("--m", type=positive, default=None,
                         help="matrix amplification for the complete-constant probe")

    p_dec = add("decay", cmd_decay, "entropy decay curve", "target", "out")
    p_dec.add_argument("--state", default="random:0",
                       help="random:SEED | zwitness | fixed | path to matrix JSON")
    p_dec.add_argument("--t-start", type=_time, default=0.0)
    p_dec.add_argument("--t-stop", type=_time, default=3.0)
    p_dec.add_argument("--t-count", type=_int_in(2, MAX_DECAY_POINTS + 1), default=25)

    p_ver = add("verify", cmd_verify, "run the property batteries")
    p_ver.add_argument("--only", help="run one named battery")
    p_ver.add_argument("--trials", type=positive, default=None,
                       help="override per-battery trial counts")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Exception as exc:
        for types, code, line in ERRORS:
            if isinstance(exc, types):
                _err(line.format(exc))
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
