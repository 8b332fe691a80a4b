"""Tests of the benchmark's own code, at the smoke size.

Run from the root of a checkout:

    python3 -m pytest perfbench -q
"""

import ast
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from clsibound import _kernels, estimator, serialize  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text())


def declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in CONFIG[kind]}


def units(summary: dict) -> dict:
    return {name: metric["unit"] for name, metric in summary["metrics"].items()}


def test_declared_workloads_are_the_ones_defined():
    declared_names = [w["name"] for w in CONFIG["workloads"]]
    assert declared_names == list(workloads.WORKLOADS) == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    summary, lines = harness.run_workload(workload, seed=3, seconds=0.1, trace=False,
                                          size=workloads.SMOKE)
    assert summary["correct"] and summary["failed"] == 0, lines
    assert units(summary) == declared("end_to_end")
    for name, metric in summary["metrics"].items():
        assert metric["value"] > 0
        assert any(line.startswith(f"{name} ") and f" {metric['unit']} (n=" in line
                   for line in lines)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_traced_run_prints_every_layer_metric(workload, tmp_path):
    summary, lines = harness.run_workload(workload, seed=3, seconds=0.1, trace=True,
                                          size=workloads.SMOKE, trace_dir=tmp_path)
    assert summary["correct"], lines
    assert units(summary) == declared("per_layer")
    spans = (tmp_path / f"trace-{workload}-seed3.jsonl").read_text().splitlines()
    assert spans
    assert set(json.loads(spans[0])) == {"id", "name", "start", "end", "parent", "run"}


@contextlib.contextmanager
def objective_one_ulp_high():
    true_terms = _kernels.mlsi_terms

    def perturbed(*args):
        ratio, fisher, entropy = true_terms(*args)
        return np.nextafter(ratio, np.inf), fisher, entropy

    _kernels.mlsi_terms = perturbed
    try:
        yield
    finally:
        _kernels.mlsi_terms = true_terms


@pytest.mark.parametrize("workload", ["estimate-small", "sandwich"])
def test_objective_off_by_one_ulp_fails_the_gate(workload):
    summary, lines = harness.run_workload(workload, seed=3, seconds=0.1, trace=False,
                                          size=workloads.SMOKE,
                                          during_op=objective_one_ulp_high)
    assert not summary["correct"]
    assert summary["failed"] > 0
    assert any("is not the objective at its witness" in line for line in lines)


def test_sandwich_compares_its_one_timed_pass_with_the_warm_up():
    entries = []

    @contextlib.contextmanager
    def reformat_after_first_op():
        entries.append(None)
        true_dumps = serialize.dumps
        if len(entries) > 1:
            serialize.dumps = lambda *args, **kwargs: true_dumps(*args, **kwargs) + " "
        try:
            yield
        finally:
            serialize.dumps = true_dumps

    summary, lines = harness.run_workload("sandwich", seed=3, seconds=0.1, trace=False,
                                          size=workloads.SMOKE,
                                          during_op=reformat_after_first_op)
    assert summary["failed"] == 1
    assert any("output differs from an earlier run" in line for line in lines)


def test_neighbouring_seeds_share_no_starts():
    restarts = max(workloads.FULL.restarts + (workloads.FULL.sandwich_restarts,))
    owner = {}
    for seed in range(32):
        for op in (0, 1, 2, 3, 128, 131):
            base = workloads.estimate_seed(seed, op)
            for r in range(restarts):
                assert owner.setdefault(base ^ r, (seed, op)) == (seed, op)


def test_self_time_subtracts_direct_children_only():
    spans = [["a", 0.0, 10.0, -1, "r"], ["b", 1.0, 4.0, 0, "r"],
             ["c", 2.0, 3.0, 1, "r"], ["a", 5.0, 6.0, 0, "r"], ["a", 0.0, 1.0, -1, "x"]]
    table = tracing.span_table(spans, "r")
    assert table["a"] == {"calls": 2, "incl_s": 10.0, "self_s": 7.0}
    assert table["b"] == {"calls": 1, "incl_s": 3.0, "self_s": 2.0}
    assert table["c"] == {"calls": 1, "incl_s": 1.0, "self_s": 1.0}


def test_missing_wrapped_name_leaves_its_metrics_absent(monkeypatch):
    monkeypatch.delattr(estimator, "nelder_mead")
    tracer = tracing.Tracer()
    tracer.install(harness._modules(), {})
    try:
        metrics = tracing.layer_metrics(tracer, "none", [])
    finally:
        tracer.uninstall()
    assert "clsibound.estimator.nelder_mead" in tracer.absent
    assert not any(name.startswith("estimator.search") for name in metrics)
    assert "estimator.start_evals" not in metrics
    assert "kernels.mlsi.calls" in metrics
    assert not hasattr(_kernels.mlsi_terms, "__wrapped__")


def test_every_by_name_import_of_a_wrapped_function_is_wrapped():
    # A module that does ``from .spectral import doi_apply`` calls its own
    # binding, so the wrapper must sit there too, or those calls go untraced.
    modules = harness._modules()
    wrapped = {(module.__name__.rsplit(".", 1)[-1], attr)
               for module, attr, _ in tracing._instrument_table(modules)}
    missed = []
    for path in sorted((ROOT / "src" / "clsibound").glob("*.py")):
        if path.stem in ("__init__", "cli"):  # re-exports; argument parsing only
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.ImportFrom) and node.level == 1):
                continue
            for alias in node.names:
                binding = (path.stem, alias.asname or alias.name)
                if (node.module, alias.name) in wrapped and binding not in wrapped:
                    missed.append(binding)
    assert not missed


def run_cli(cwd: Path) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
               "--seconds", "0.1", "--trace", "0"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_cli_prints_the_result_object_last():
    done = run_cli(ROOT)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1


def test_cli_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_cli(tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
