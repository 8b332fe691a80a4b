"""Spans recorded from outside the program, and the per-layer metrics derived
from them.

The benchmark replaces each layer's public function, at the module attribute
its caller looks up, with a wrapper that records a span (name, start, end,
parent span, run id).  Spans stay in memory and are written to a JSON-lines
file when the run ends.  The wrappers are installed for a traced pass only,
and record only while ``Tracer.recording`` is on, so the correctness gate
runs unrecorded.

A self time is a span's duration minus the durations of its direct children.
A layer's inclusive time counts only its outermost spans, so a functional
that calls another functional of the same layer is not counted twice.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

# Public entropy functionals, traced as one layer.
ENTROPY_FUNCTIONALS = (
    "lindblad_rel_entropy", "rel_entropy", "entropy_to_expectation",
    "p_rel_entropy", "fisher_lindblad", "p_fisher", "fisher_graph",
    "entropy_graph", "entropy_interpolation_check",
)

# Span names of the objective kernels; their calls are the "objective calls".
OBJECTIVE_SPANS = ("kernels.mlsi", "kernels.cpsi", "kernels.classical")
ESTIMATE_SPAN = "estimator.estimate"
SEARCH_SPAN = "estimator.search"
OP_SPAN = "bench.op"


def _instrument_table(modules):
    """(module, attribute, span name) for every wrapped call site.

    A function imported by name into another module is looked up there by
    its caller, so it is wrapped at both places under one span name.
    """
    k, est, gr, lb, sp, en, ser = (modules[name] for name in (
        "_kernels", "estimator", "graphs", "lindblad", "spectral", "entropy",
        "serialize"))
    table = [
        (k, "mlsi_terms", "kernels.mlsi"),
        (k, "cpsi_terms", "kernels.cpsi"),
        (k, "classical_terms", "kernels.classical"),
        (k, "kernel_matrix", "kernels.kernel_matrix"),
        (est, "nelder_mead", SEARCH_SPAN),
        (est, "mlsi_estimate", ESTIMATE_SPAN),
        (est, "cpsi_estimate", ESTIMATE_SPAN),
        (est, "classical_mlsi_estimate", ESTIMATE_SPAN),
        (est, "sandwich_check", "estimator.sandwich"),
        (est, "decay_curve", "estimator.decay_curve"),
        (est, "certified_bound", "graphs.certified_bound"),
        (gr, "certified_bound", "graphs.certified_bound"),
        (gr, "traversal_cover", "graphs.traversal_cover"),
        (gr, "verify_cover", "graphs.verify_cover"),
        (est, "graph_lindblad", "lindblad.graph_lindblad"),
        (lb, "graph_lindblad", "lindblad.graph_lindblad"),
        (est, "fixed_point_dim", "lindblad.fixed_point_dim"),
        (lb, "fixed_point_dim", "lindblad.fixed_point_dim"),
        (est, "spectral_gap", "spectral.spectral_gap"),
        (sp, "spectral_gap", "spectral.spectral_gap"),
        (est, "semigroup_apply", "spectral.semigroup_apply"),
        (sp, "semigroup_apply", "spectral.semigroup_apply"),
        (lb, "semigroup_apply", "spectral.semigroup_apply"),
        (sp, "doi_apply", "spectral.doi_apply"),
        (en, "doi_apply", "spectral.doi_apply"),
        (lb, "doi_apply", "spectral.doi_apply"),
        (sp, "quadrature_oracle_resolvent", "spectral.quadrature"),
        (sp, "quadrature_oracle_tilt", "spectral.quadrature"),
        (ser, "dumps", "serialize.dumps"),
    ]
    table += [(en, name, "entropy") for name in ENTROPY_FUNCTIONALS]
    return table


class Tracer:
    """In-memory span recorder for one run.

    A span is ``[name, start, end, parent index, run id]``; the parent index
    is -1 for a root span.  ``counters`` holds per-run-id tallies that the
    wrappers read off results (finite ratios, evaluations, computed bytes).
    """

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(Counter)
        self.absent: set = set()    # wrapped names the program lacks
        self._wrapped_spans: set = set()
        self._listed_spans: set = set()
        self.recording = False
        self.run_id = ""
        self._stack: list = []
        self._restore: list = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def record(self, run_id: str):
        """Record spans for the calls made inside the block under ``run_id``."""
        self.recording, self.run_id = True, run_id
        try:
            yield
        finally:
            self.recording = False

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        entry = [name, 0.0, 0.0, parent, self.run_id]
        self.spans.append(entry)
        self._stack.append(index)
        entry[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            result = tracer.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(tracer.counters[tracer.run_id], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installing wrappers -----------------------------------------------

    @contextlib.contextmanager
    def installed(self, modules, registry: dict):
        """Wrap the program's call sites for the duration of the block."""
        self.install(modules, registry)
        try:
            yield
        finally:
            self.uninstall()

    def install(self, modules, registry: dict) -> None:
        """Wrap every call site in the table and every registered battery.

        A name the program no longer has is listed in ``absent``.  A span
        none of whose names exist is absent, and so are its metrics.
        """
        observers = {
            "kernels.mlsi": _observe_mlsi,
            "kernels.cpsi": _observe_objective,
            "kernels.classical": _observe_objective,
            SEARCH_SPAN: _observe_search,
        }
        wrapped = {}
        for module, attr, name in _instrument_table(modules):
            self._listed_spans.add(name)
            if not hasattr(module, attr):
                self.absent.add(f"{module.__name__}.{attr}")
                continue
            fn = getattr(module, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self.wrap(name, fn, observers.get(name))
            self._wrapped_spans.add(name)
            self._restore.append((module, attr, fn))
            setattr(module, attr, wrapped[id(fn)])
        for key, fn in list(registry.items()):
            self._restore.append((registry, key, fn))
            registry[key] = self.wrap(f"batteries.{key}", fn)

    def absent_spans(self) -> set:
        return self._listed_spans - self._wrapped_spans

    def uninstall(self) -> None:
        for target, key, fn in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = fn
            else:
                setattr(target, key, fn)
        self._restore.clear()

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: id, name, start, end, parent, run."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for index, (name, start, end, parent, run_id) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent,
                                         "run": run_id}) + "\n")


def _observe_objective(counter: Counter, args, result) -> None:
    counter["objective_calls"] += 1
    if math.isfinite(result[0]):
        counter["objective_finite"] += 1


def _observe_mlsi(counter: Counter, args, result) -> None:
    # mlsi_terms(theta, superop, eproj, n): the superoperator matvec reads an
    # n^2 x n^2 complex matrix, 16 n^4 bytes.
    _observe_objective(counter, args, result)
    counter["mlsi_bytes"] += 16 * int(args[3]) ** 4


def _observe_search(counter: Counter, args, result) -> None:
    counter["search_evals"] += int(result[2])


# -- per-layer metrics -------------------------------------------------------


def span_table(spans, run_id: str) -> dict:
    """name -> {"calls", "incl_s", "self_s"} for the spans of one run id."""
    chosen = [i for i, s in enumerate(spans) if s[4] == run_id]
    child_time = Counter()
    for i in chosen:
        name, start, end, parent, _ = spans[i]
        if parent >= 0:
            child_time[parent] += end - start
    table: dict = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
    for i in chosen:
        name, start, end, parent, _ = spans[i]
        row = table[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            row["incl_s"] += end - start
    return table


def layer_metrics(tracer: Tracer, run_id: str, battery_names) -> dict:
    """Per-layer metrics of one traced pass: name -> (value, unit).

    A metric is left out when a span it is derived from is absent, that is,
    when the program no longer has any of the names wrapped for that span.
    """
    table = span_table(tracer.spans, run_id)
    counter = tracer.counters[run_id]

    def row(name):
        return table.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})

    def ratio(a, b):
        return a / b if b else 0.0

    rows = []  # (metric, value, unit, spans it is derived from)
    for short, span in (("mlsi", "kernels.mlsi"), ("cpsi", "kernels.cpsi"),
                        ("classical", "kernels.classical"),
                        ("kernel_matrix", "kernels.kernel_matrix")):
        r = row(span)
        rows.append((f"kernels.{short}.calls", r["calls"], "count", (span,)))
        rows.append((f"kernels.{short}.us_per_call",
                     ratio(r["incl_s"], r["calls"]) * 1e6, "us", (span,)))
    rows.append(("kernels.mlsi.self_s", row("kernels.mlsi")["self_s"], "s",
                 ("kernels.mlsi",)))
    rows.append(("kernels.finite_frac",
                 ratio(counter["objective_finite"], counter["objective_calls"]),
                 "ratio", OBJECTIVE_SPANS))
    rows.append(("kernels.mlsi.bytes_computed", counter["mlsi_bytes"], "B",
                 ("kernels.mlsi",)))

    search = row(SEARCH_SPAN)
    rows.append(("estimator.search.calls", search["calls"], "count", (SEARCH_SPAN,)))
    rows.append(("estimator.search.evals", counter["search_evals"], "count",
                 (SEARCH_SPAN,)))
    rows.append(("estimator.evals_per_search",
                 ratio(counter["search_evals"], search["calls"]), "count",
                 (SEARCH_SPAN,)))
    rows.append(("estimator.search.self_s", search["self_s"], "s", (SEARCH_SPAN,)))
    # Objective calls made by the multistart itself, outside any local
    # search, less the one re-evaluation at the witness per estimate.
    direct = sum(1 for s in tracer.spans
                 if s[4] == run_id and s[0] in OBJECTIVE_SPANS and s[3] >= 0
                 and tracer.spans[s[3]][0] == ESTIMATE_SPAN)
    rows.append(("estimator.start_evals", direct - row(ESTIMATE_SPAN)["calls"],
                 "count", (ESTIMATE_SPAN, SEARCH_SPAN) + OBJECTIVE_SPANS))
    rows.append(("estimator.sandwich.self_s", row("estimator.sandwich")["self_s"],
                 "s", ("estimator.sandwich",)))

    rows.append(("graphs.certified_bound.calls", row("graphs.certified_bound")["calls"],
                 "count", ("graphs.certified_bound",)))
    for name in ("spectral.semigroup_apply", "spectral.doi_apply"):
        rows.append((f"{name}.calls", row(name)["calls"], "count", (name,)))
    rows.append(("entropy.calls", row("entropy")["calls"], "count", ("entropy",)))
    timed = ["estimator.decay_curve", "graphs.certified_bound",
             "graphs.traversal_cover", "graphs.verify_cover",
             "lindblad.graph_lindblad", "lindblad.fixed_point_dim",
             "spectral.spectral_gap", "spectral.semigroup_apply",
             "spectral.doi_apply", "spectral.quadrature", "serialize.dumps"]
    timed += [f"batteries.{key}" for key in battery_names]
    for name in timed:
        rows.append((f"{name}.s", row(name)["incl_s"], "s", (name,)))
    rows.append(("entropy.s", row("entropy")["incl_s"], "s", ("entropy",)))

    absent = tracer.absent_spans()
    return {metric: (value, unit) for metric, value, unit, needs in rows
            if not absent.intersection(needs)}


def self_time_shares(tracer: Tracer, run_ids) -> list:
    """(span name, self seconds, share of all self time), largest first."""
    totals = Counter()
    for run_id in run_ids:
        for name, row in span_table(tracer.spans, run_id).items():
            totals[name] += row["self_s"]
    whole = sum(totals.values()) or 1.0
    return [(name, t, t / whole) for name, t in totals.most_common()]


# -- kernel microbench -------------------------------------------------------


def build_case(n: int, seed: int):
    """Fixed objective inputs at dimension n: a random Hermitian parameter
    vector, a two-generator double-commutator superoperator and the trace
    expectation (the inputs of benchmarks/bench_kernels.py)."""
    rng = np.random.default_rng(seed)
    theta = rng.normal(size=n * n)
    total = np.zeros((n * n, n * n), dtype=complex)
    for _ in range(2):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = 0.5 * (a + a.conj().T)
        c = np.kron(np.eye(n), a) - np.kron(a.T, np.eye(n))
        total += c @ c
    v = np.eye(n, dtype=complex).T.reshape(-1)
    eproj = np.ascontiguousarray(np.outer(v, v.conj()) / n)
    return theta, np.ascontiguousarray(total), eproj


def mlsi_microbench(kernel, dims=(2, 5, 8), blocks: int = 7,
                    block_s: float = 0.05) -> dict:
    """Median microseconds per ``kernel`` call at each dimension.

    Each block times a fixed number of calls, sized from a calibration call
    so that a block lasts about ``block_s``; the median over blocks is kept.
    """
    out = {}
    for n in dims:
        theta, superop, eproj = build_case(n, seed=n)
        start = time.perf_counter()
        kernel(theta, superop, eproj, n)
        calls = max(1, int(block_s / max(time.perf_counter() - start, 1e-7)))
        per_call = []
        for _ in range(blocks):
            start = time.perf_counter()
            for _ in range(calls):
                kernel(theta, superop, eproj, n)
            per_call.append((time.perf_counter() - start) / calls * 1e6)
        out[n] = statistics.median(per_call)
    return out
