"""Run one workload: set up, warm up, repeat its pass until the time is up,
gate every output, and derive the metrics.

With tracing off the run reports the end-to-end metrics.  With tracing on it
alternates untraced and traced passes, reports the per-layer metrics of the
traced ones, the tracing overhead (traced minus untraced pass time), and the
kernel microbench, and writes the spans to a JSON-lines file.
"""

from __future__ import annotations

import contextlib
import importlib.metadata
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import clsibound
import tracing
import workloads
from clsibound import _kernels, batteries, entropy, estimator, graphs, lindblad, serialize, spectral

BUILD_REPEATS = 5
IMPORT_PROBES = 15

_PROBE = ("import time\n"
          "start = time.perf_counter()\n"
          "import clsibound\n"
          "print(time.perf_counter() - start, clsibound.__file__)\n")


class SourceError(RuntimeError):
    """The package imported is not the checkout's source tree."""


def check_source(src: Path, module_file: str) -> None:
    if not Path(module_file).resolve().is_relative_to(src.resolve()):
        raise SourceError(f"clsibound imported from {module_file}, not from {src}")


def import_seconds(src: Path, probes: int = IMPORT_PROBES) -> list:
    """Seconds to import clsibound in fresh interpreters, one per probe, after
    one unmeasured probe that leaves the bytecode cache warm."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    for _ in range(probes + 1):
        done = subprocess.run([sys.executable, "-c", _PROBE], env=env, cwd=src.parent,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, module_file = done.stdout.split(maxsplit=1)
        check_source(src, module_file.strip())
        times.append(float(seconds))
    return times[1:]


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "threads": ",".join(f"{var}={value}" for var, value in sorted(os.environ.items())
                            if var.endswith(("_NUM_THREADS", "_MAXIMUM_THREADS"))) or "unset",
        "backend": getattr(_kernels, "BACKEND", "absent"),
    }


class Ledger:
    """Runs operations, gates their outputs and counts the failures.

    An operation fails when it raises, when its output breaks the gate, or
    when its serialized output differs from the one an earlier run of the
    same operation gave.
    """

    def __init__(self):
        self.attempted = 0
        self.failures: list = []
        self.fingerprints: dict = {}

    def warm(self, op) -> None:
        """Run an operation untimed and ungated; only raising fails it."""
        self.attempted += 1
        try:
            op.run()
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")

    def execute(self, op, around=contextlib.nullcontext):
        """(seconds, Outcome) of one operation; either is None on failure."""
        self.attempted += 1
        try:
            with around():
                start = time.perf_counter()
                result = op.run()
                seconds = time.perf_counter() - start
        except Exception as exc:  # a failed operation is counted, the run goes on
            self.failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
            return None, None
        try:
            outcome = op.inspect(result)
        except Exception as exc:  # the gate itself raising is a failure too
            self.failures.append(f"{op.name}: gate raised {type(exc).__name__}: {exc}")
            return seconds, None
        problems = list(outcome.problems)
        first = self.fingerprints.setdefault(op.name, outcome.fingerprint)
        if first != outcome.fingerprint:
            problems.append(f"{op.name}: output differs from an earlier run of it")
        if problems:
            self.failures.append("; ".join(problems))
        return seconds, outcome


def _modules() -> dict:
    return {"_kernels": _kernels, "estimator": estimator, "graphs": graphs,
            "lindblad": lindblad, "spectral": spectral, "entropy": entropy,
            "serialize": serialize}


def _agreeing(reports) -> tuple:
    agree = total = 0
    for rep in reports:
        values = np.asarray(rep.per_restart, dtype=float)
        best = float(np.min(values))
        agree += int(np.sum(np.abs(values - best) <= workloads.AGREE_REL * abs(best)))
        total += len(values)
    return agree, total


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: workloads.Size = workloads.FULL, src: Path = None,
                 trace_dir: Path = None, during_op=contextlib.nullcontext):
    """Run one workload and return ``(summary, lines)``: the result object the
    benchmark prints last, and the human-readable lines before it.

    ``during_op`` is entered around every operation; tests use it to inject
    a defect into the program.
    """
    workload = workloads.WORKLOADS[name]
    src = Path(src or Path(clsibound.__file__).parent.parent)
    check_source(src, clsibound.__file__)
    machine = machine_record()
    import_s = import_seconds(src)

    build_s = []
    for _ in range(BUILD_REPEATS):
        start = time.perf_counter()
        ops = workload.build(seed, size)
        build_s.append(time.perf_counter() - start)

    ledger = Ledger()
    pass_names = {op.name for op in ops}
    for op in workload.warmup(seed, size, ops):
        # A warm-up that repeats one of the pass's own operations is gated, so
        # its output is compared with the timed passes' even when only one
        # timed pass fits in the run.
        if op.name in pass_names:
            ledger.execute(op, during_op)
        else:
            ledger.warm(op)

    tracer = tracing.Tracer() if trace else None
    passes = {False: 0, True: 0}
    op_s = {False: {}, True: {}}  # traced? -> operation name -> seconds per pass
    outcomes = {}   # run id -> Outcomes of that pass
    traced_ids = []
    # Never start a unit that, at the median length so far, would end after
    # the deadline.  A unit is one pass, or an untraced and a traced pass.
    deadline = time.perf_counter() + seconds
    unit_s = []
    while True:
        unit_start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            run_id = f"{name}/seed{seed}/pass{len(outcomes)}"
            if traced:
                traced_ids.append(run_id)
                with tracer.installed(_modules(), batteries.REGISTRY):
                    with tracer.record(run_id):
                        ops = tracer.span("bench.build", workload.build, seed, size)
                    times, outcomes[run_id] = _run_pass(ops, ledger, during_op,
                                                        tracer, run_id)
            else:
                times, outcomes[run_id] = _run_pass(ops, ledger, during_op, None, run_id)
            passes[traced] += 1
            for op_name, op_seconds in times.items():
                op_s[traced].setdefault(op_name, []).append(op_seconds)
        unit_s.append(time.perf_counter() - unit_start)
        if time.perf_counter() + statistics.median(unit_s) > deadline:
            break

    lines = [f"perfbench workload={name} seed={seed} seconds={seconds} "
             f"trace={int(trace)}",
             "machine " + " ".join(f"{k}={v}" for k, v in machine.items())]
    first_pass = outcomes[traced_ids[0]] if trace else next(iter(outcomes.values()))
    if trace:
        metrics = _layer_metrics(tracer, traced_ids, op_s, first_pass, size,
                                 ledger, lines)
        if trace_dir is not None:
            path = Path(trace_dir) / f"trace-{name}-seed{seed}.jsonl"
            tracer.write(path)
            lines.append(f"spans {len(tracer.spans)} written to {path}")
    else:
        ratios = [r for o in first_pass for r in o.gap_ratios]
        samples = [t for times in op_s[False].values() for t in times]
        metrics = {
            "setup_s": (statistics.median(import_s) + statistics.median(build_s), "s"),
            "wall_s": (pass_seconds(op_s[False]), "s"),
            "op_p50_s": (statistics.median(samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "estimate_gap_ratio": (float(np.mean(ratios)) if ratios else float("nan"), "ratio"),
        }
        counts = {"setup_s": f"{IMPORT_PROBES} imports + {BUILD_REPEATS} builds",
                  "wall_s": f"{passes[False]} passes",
                  "op_p50_s": f"{len(samples)} operations",
                  "peak_rss_mb": "1 process",
                  "estimate_gap_ratio": f"{len(ratios)} estimates"}
        for key, (value, unit) in metrics.items():
            lines.append(f"{key} {value!r} {unit} (n={counts[key]})")

    failed = len(ledger.failures)
    lines.append(f"fail_frac {failed / max(ledger.attempted, 1)!r} "
                 f"({failed} of {ledger.attempted} operations)")
    lines += [f"FAILED {failure}" for failure in ledger.failures]
    summary = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return summary, lines


def _run_pass(ops, ledger, during_op, tracer, run_id):
    """Run every operation once; returns the seconds of those that completed,
    by name, and the Outcomes of those the gate could inspect."""
    around = during_op
    if tracer is not None:
        @contextlib.contextmanager
        def around():
            with during_op(), tracer.record(run_id):
                yield
    times, outcomes = {}, []
    for op in ops:
        if tracer is not None:
            op = workloads.Op(op.name, _in_span(tracer, op.run), op.inspect)
        seconds, outcome = ledger.execute(op, around)
        if seconds is not None:
            times[op.name] = seconds
        if outcome is not None:
            outcomes.append(outcome)
    return times, outcomes


def _in_span(tracer, run):
    return lambda: tracer.span(tracing.OP_SPAN, run)


def pass_seconds(op_seconds: dict) -> float:
    """The time of one pass, as the sum of each operation's median time, so a
    burst of machine noise during one operation of one pass is dropped."""
    return sum(statistics.median(times) for times in op_seconds.values())


def _layer_metrics(tracer, traced_ids, op_s, first_pass, size, ledger, lines) -> dict:
    per_pass = [tracing.layer_metrics(tracer, run_id, list(batteries.REGISTRY))
                for run_id in traced_ids]
    metrics = {}
    for key, (value, unit) in per_pass[0].items():
        values = [m[key][0] for m in per_pass]
        if unit in ("count", "B") and len(set(values)) > 1:
            ledger.failures.append(f"layer count {key} differs between traced passes: {values}")
        metrics[key] = (values[0] if len(set(values)) == 1 else float(np.mean(values)), unit)
    agree, total = _agreeing([rep for o in first_pass for rep in o.reports])
    metrics["estimator.best_agree_frac"] = (agree / total if total else 0.0, "ratio")
    if hasattr(_kernels, "mlsi_terms"):
        micro = tracing.mlsi_microbench(_kernels.mlsi_terms, blocks=size.microbench_blocks)
        for n, us in micro.items():
            metrics[f"kernels.mlsi.us.n{n}"] = (us, "us")
    metrics["trace.overhead_s"] = (pass_seconds(op_s[True]) - pass_seconds(op_s[False]), "s")

    for key, (value, unit) in metrics.items():
        lines.append(f"{key} {value!r} {unit} (n={len(traced_ids)} traced passes)")
    if tracer.absent:
        lines.append("absent " + " ".join(sorted(tracer.absent)))
    shares = tracing.self_time_shares(tracer, traced_ids)
    lines.append("self time " + ", ".join(
        f"{name} {share:.1%}" for name, _, share in shares[:6]))
    return metrics
