"""Command-line interface.

Subcommands: bound, estimate, decay, verify; each takes only the options
it reads.  ``bound`` prints the best certified graph bound and its
transfer to the matrix generator; ``--out`` writes the full certificate,
MST and traversal cover included.  ``estimate`` and ``decay`` take exactly
one of ``--target`` (a builtin system) and ``--graph PATH``; every
ordering ``estimate`` checks has the fixed ``estimator.ORDERING_SLACK``.
Machine output goes to stdout as key=value lines (17-significant-digit
decimals); human messages go to stderr.  Files are written atomically.

Exit codes (``ERRORS`` maps exceptions to them and to one stderr line):
  0  success
  2  usage or input error: argparse, unreadable or malformed input
  3  disconnected graph
  4  sandwich ordering violation
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

# Largest |d_i| of an intspec:d0,d1,... target: keeps the generator's rates
# (d_i - d_j)^2 <= 4e12, far from overflow, and its eigenvalues' rounding
# far below the integer-spectrum tolerance.
INTSPEC_MAX = 1e6

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
    """Resolve --target (pauli | depolarizing:n | intspec:d0,d1,...) or
    --graph PATH to (superoperator, fixed-point expectation)."""
    name = args.target
    if name is None:
        g = _read_graph(args.graph)
        if not graphs.is_connected(g):
            raise DisconnectedGraphError("graph is disconnected")
        s = lindblad.graph_lindblad(g)
    elif name == "pauli":
        s = lindblad.pauli_system()
    elif name.startswith("depolarizing:"):
        s = lindblad.depolarizing(int(name.split(":", 1)[1]))
    elif name.startswith("intspec:"):
        s = lindblad.integer_spectrum_lindblad(np.diag(_intspec(name)).astype(complex))
    else:
        raise GraphFormatError(f"unknown target {name!r}")
    return s, fixed_point_dim(s).expectation


def _intspec(name: str) -> list:
    """The diagonal d0, d1, ... of ``intspec:d0,d1,...`` as finite floats of
    magnitude at most INTSPEC_MAX."""
    try:
        diag = [float(x) for x in name.split(":", 1)[1].split(",")]
    except ValueError:
        diag = None
    if diag is None or not all(math.isfinite(d) and abs(d) <= INTSPEC_MAX
                               for d in diag):
        raise ValueError(f"{name}: entries must be finite numbers of magnitude "
                         f"at most {INTSPEC_MAX:g}")
    return diag


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

    s, e_fix = _build_target(args)
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
    if args.p is None and not estimator.ordering_holds(report.value, 2.0 * gap):
        _err(f"ordering violated: estimate<=2*gap "
             f"({report.value!r} > {2.0 * gap!r} + slack)")
        return EXIT_SANDWICH
    return EXIT_OK


def cmd_decay(args) -> int:
    s, e_fix = _build_target(args)
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
            choice.add_argument("--target", help="pauli | depolarizing:n | intspec:d0,d1,...")
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
    p_dec.add_argument("--t-start", type=float, default=0.0, dest="t_start")
    p_dec.add_argument("--t-stop", type=float, default=3.0, dest="t_stop")
    p_dec.add_argument("--t-count", type=int, default=25, dest="t_count")

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
