"""The benchmark's workloads: inputs made from the workload seed, the
operations of one pass, and the correctness gate for each operation's output.

Each workload is a closed loop: one caller runs the operations of a pass one
after another, and the harness repeats the pass.  The program receives only
the generated inputs (superoperators, expectations, graphs, states, options).

* ``estimate-small``: ``mlsi_estimate`` on the builtin targets ``pauli``,
  ``depolarizing:2`` and ``intspec:0,1,2`` and ``cpsi_estimate`` on ``pauli``
  at p = 1.5, the ``estimate --target`` traffic.  At 4 to 9 parameters the
  objective's fixed cost per call and the search's Python loop dominate.
* ``sandwich``: ``sandwich_check`` at the acceptance options (12 restarts) on
  one seeded connected 4-vertex and one 5-vertex graph, unit weights and
  uniform measure, each report serialized as ``estimate --out`` writes it.
  The matrix objective at 16 to 25 parameters takes most of the time.
* ``verify``: every registered battery at its pinned seeds, decay curves of
  seeded states on the builtin targets, and certified bounds and traversal
  covers of seeded weighted, measured graphs of tens to hundreds of
  vertices.  It runs no ratio minimization, so a change to the objectives or
  the search should leave it unchanged, while it still runs the DOI kernels
  and the entropy code those changes touch.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from clsibound import batteries, entropy, estimator, graphs, lindblad, serialize, spectral

# An estimate must match the independent entropy and Fisher functionals at
# its witness within this relative distance.  The two paths disagree by at
# most ~1e-11 at the witnesses these workloads reach.
INDEPENDENT_REL_TOL = 1e-8

# Acceptance windows of the builtin targets (README, tests/test_acceptance).
WINDOWS = {"pauli": (2.0 - 1e-9, 2.10), "depolarizing:2": (1.5, 2.05)}

# A restart agrees with the best value of its estimate within this distance.
AGREE_REL = 1e-6

# Estimate seeds: restart r of an estimate draws its start from a generator
# seeded with ``seed XOR r``.  With the low RESTART_BITS bits of the seed zero
# that is ``seed + r``, so the starts of different (workload seed, operation)
# pairs never coincide; neighbouring workload seeds would otherwise share
# almost all starts.
RESTART_BITS = 16
OP_BITS = 8
SEED_BITS = 40

DECAY_TIMES = np.linspace(0.0, 6.0, 25)
ESTIMATE_TARGETS = (("pauli", None), ("depolarizing:2", None),
                    ("intspec:0,1,2", None), ("pauli", 1.5))
DECAY_TARGETS = ("pauli", "depolarizing:2", "intspec:0,1,2")


@dataclass(frozen=True)
class Size:
    """How much work one pass does."""

    restarts: tuple            # per ESTIMATE_TARGETS entry
    sandwich_restarts: int
    sandwich_vertices: tuple   # one graph per entry
    decay_states: int          # seeded initial states per decay target
    bound_vertices: tuple      # one weighted, measured graph per entry
    battery_trials: Optional[int]
    microbench_blocks: int


FULL = Size(restarts=(32, 48, 6, 24), sandwich_restarts=12,
            sandwich_vertices=(4, 5), decay_states=4,
            bound_vertices=(24, 60, 150, 300), battery_trials=None,
            microbench_blocks=7)
SMOKE = Size(restarts=(2, 2, 1, 2), sandwich_restarts=1, sandwich_vertices=(3,),
             decay_states=1, bound_vertices=(12,), battery_trials=2,
             microbench_blocks=1)


@dataclass
class Outcome:
    """What the gate found in one operation's output."""

    problems: list
    fingerprint: str        # digest of the serialized output
    gap_ratios: list        # estimate / (2 * gap of its own generator)
    reports: list           # EstimateReports, for restart agreement


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    inspect: Callable[[object], Outcome]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int, Size], list]
    warmup: Callable[[int, Size, list], list]


def estimate_seed(seed: int, op_index: int) -> int:
    """``EstimateOptions.seed`` of operation ``op_index`` under a workload
    seed; workload seeds that differ modulo 2**40 share no start."""
    if not 0 <= op_index < 1 << OP_BITS:
        raise ValueError(f"operation index {op_index} out of range")
    return (((seed % (1 << SEED_BITS)) << OP_BITS) | op_index) << RESTART_BITS


def _options(restarts: int, seed: int) -> estimator.EstimateOptions:
    if not 1 <= restarts < 1 << RESTART_BITS:
        raise ValueError(f"restarts {restarts} out of range")
    return estimator.EstimateOptions(restarts=restarts, seed=seed)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << SEED_BITS), stream])


def builtin_target(name: str):
    """(superoperator, fixed-point expectation) of a builtin target, as the
    ``--target`` option resolves it."""
    if name == "pauli":
        s = lindblad.pauli_system()
    elif name.startswith("depolarizing:"):
        s = lindblad.depolarizing(int(name.split(":", 1)[1]))
    elif name.startswith("intspec:"):
        diag = [float(x) for x in name.split(":", 1)[1].split(",")]
        s = lindblad.integer_spectrum_lindblad(np.diag(diag).astype(complex))
    else:
        raise ValueError(f"unknown target {name!r}")
    return s, lindblad.fixed_point_dim(s).expectation


def random_state(rng, n: int) -> np.ndarray:
    """n e^H / tr e^H for a Gaussian Hermitian H (the ``random:SEED`` state)."""
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    w, u = np.linalg.eigh(0.5 * (h + h.conj().T))
    p = np.exp(w)
    return (u * (n * p / p.sum())) @ u.conj().T


def random_connected_graph(rng, n: int, extra_edges: int, weighted: bool = False,
                           measured: bool = False) -> graphs.WeightedGraph:
    """A random spanning tree on shuffled labels plus ``extra_edges`` more
    edges; weights in [0.5, 2] and a random measure when asked."""
    label = rng.permutation(n)
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add(tuple(sorted((int(label[u]), int(label[v])))))
    target = min(len(edges) + extra_edges, n * (n - 1) // 2)
    while len(edges) < target:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((u, v))
    edges = sorted(edges)
    weights = rng.uniform(0.5, 2.0, size=len(edges)) if weighted else np.ones(len(edges))
    measure = None
    if measured:
        m = rng.uniform(0.5, 2.0, size=n)
        measure = m / m.sum()
    return graphs.make_graph(n, [(u, v, float(w)) for (u, v), w in zip(edges, weights)],
                             measure)


# -- the gate ----------------------------------------------------------------


def _close(value: float, reference: float) -> bool:
    return abs(value - reference) <= INDEPENDENT_REL_TOL * abs(reference)


def matrix_estimate_problems(rep, s, e_fix, p, label: str) -> list:
    """A matrix estimate must be, bit for bit, the objective re-evaluated at
    its witness, and must agree with the independent functionals there."""
    problems = []
    again = float(estimator.evaluate_ratio(s, e_fix, rep.witness_theta, p=p)[0])
    if again.hex() != float(rep.value).hex():
        problems.append(f"{label}: estimate {rep.value!r} is not the objective "
                        f"at its witness ({again!r})")
    rho = rep.witness
    if p is None:
        reference = (entropy.fisher_lindblad(s, rho)
                     / entropy.entropy_to_expectation(rho, e_fix))
    else:
        sigma = e_fix(rho)
        sigma = 0.5 * (sigma + sigma.conj().T)
        sigma *= rho.shape[0] / np.trace(sigma).real
        reference = entropy.p_fisher(s, rho, p) / entropy.p_rel_entropy(rho, sigma, p)
    if not _close(rep.value, reference):
        problems.append(f"{label}: estimate {rep.value!r} disagrees with the "
                        f"functionals at its witness ({reference!r})")
    return problems


# -- estimate-small ----------------------------------------------------------


def _estimate_op(name, target, s, e_fix, opts, p) -> Op:
    def run():
        if p is None:
            return estimator.mlsi_estimate(s, e_fix, opts, target=target)
        return estimator.cpsi_estimate(s, e_fix, p, opts, target=target)

    def inspect(rep) -> Outcome:
        problems = matrix_estimate_problems(rep, s, e_fix, p, name)
        if p is None and target in WINDOWS:
            lo, hi = WINDOWS[target]
            if not lo <= rep.value <= hi:
                problems.append(f"{name}: estimate {rep.value!r} outside [{lo!r}, {hi!r}]")
        gap = spectral.spectral_gap(s)
        return Outcome(problems, _digest(rep.to_json()), [rep.value / (2.0 * gap)], [rep])

    return Op(name, run, inspect)


def _estimate_ops(seed: int, restarts, prefix: str, first_index: int) -> list:
    ops = []
    for index, ((target, p), count) in enumerate(zip(ESTIMATE_TARGETS, restarts)):
        s, e_fix = builtin_target(target)
        kind = "mlsi" if p is None else f"cpsi:p={p}"
        opts = _options(count, estimate_seed(seed, first_index + index))
        ops.append(_estimate_op(f"{prefix}{kind}:{target}", target, s, e_fix, opts, p))
    return ops


def build_estimate_small(seed: int, size: Size) -> list:
    return _estimate_ops(seed, size.restarts, "", 0)


def warmup_estimate_small(seed: int, size: Size, ops: list) -> list:
    return _estimate_ops(seed, (1,) * len(ESTIMATE_TARGETS), "warmup:", 128)


# -- sandwich ----------------------------------------------------------------


def _sandwich_op(name: str, g, opts) -> Op:
    def run():
        rep = estimator.sandwich_check(g, opts, label=name)
        doc = rep.to_json_dict()
        doc["schema_version"] = 1
        doc["matrix_report"] = rep.matrix.to_json_dict()
        doc["classical_report"] = rep.classical.to_json_dict()
        return rep, serialize.dumps(doc, indent=2) + "\n"

    def inspect(result) -> Outcome:
        rep, text = result
        problems = [f"{name}: ordering {pair} fails" for pair in rep.failed_pairs]
        s = lindblad.graph_lindblad(g)
        e_fix = lindblad.fixed_point_dim(s).expectation
        problems += matrix_estimate_problems(rep.matrix, s, e_fix, None, f"{name}:matrix")
        f = rep.classical.witness
        reference = entropy.fisher_graph(g, f) / entropy.entropy_graph(g, f)
        if not _close(rep.classical.value, reference):
            problems.append(f"{name}:classical: estimate {rep.classical.value!r} "
                            f"disagrees with the functionals at its witness ({reference!r})")
        gap_c = spectral.spectral_gap(graphs.graph_laplacian(g))
        gap_m = spectral.spectral_gap(s)
        ratios = [rep.classical.value / (2.0 * gap_c), rep.matrix.value / (2.0 * gap_m)]
        return Outcome(problems, _digest(text), ratios, [rep.classical, rep.matrix])

    return Op(name, run, inspect)


def build_sandwich(seed: int, size: Size) -> list:
    rng = _rng(seed, 1)
    ops = []
    for index, n in enumerate(size.sandwich_vertices):
        g = random_connected_graph(rng, n, extra_edges=int(rng.integers(0, 3)))
        opts = _options(size.sandwich_restarts, estimate_seed(seed, index))
        ops.append(_sandwich_op(f"sandwich:n{n}:{index}", g, opts))
    return ops


def warmup_sandwich(seed: int, size: Size, ops: list) -> list:
    # The smallest check of the pass: one pass takes most of a run, so this
    # is the earlier output its first timed repeat is compared with.
    return ops[:1]


# -- verify ------------------------------------------------------------------


def _battery_op(key: str, trials: Optional[int]) -> Op:
    def run():
        return batteries.run_batteries(only=key, trials=trials)[0]

    def inspect(result) -> Outcome:
        problems = [] if result.passed else [f"battery {result.line()}"]
        return Outcome(problems, _digest(result.line()), [], [])

    return Op(f"battery:{key}", run, inspect)


def _decay_op(name: str, s, e_fix, rho0) -> Op:
    def run():
        return estimator.decay_curve(s, e_fix, rho0, DECAY_TIMES)

    def inspect(curve) -> Outcome:
        rate = curve.fitted_rate
        problems = [] if rate > 0 else [f"{name}: fitted rate {rate!r} is not positive"]
        ratio = rate / (2.0 * spectral.spectral_gap(s))
        return Outcome(problems, _digest(curve.to_csv()), [ratio], [])

    return Op(name, run, inspect)


def _bound_op(name: str, g) -> Op:
    def run():
        return graphs.certified_bound(g).to_json()

    def inspect(text) -> Outcome:
        again = graphs.certified_bound(graphs.load_graph(graphs.save_graph(g))).to_json()
        problems = [] if again == text else [
            f"{name}: certificate of the reloaded graph differs"]
        return Outcome(problems, _digest(text), [], [])

    return Op(name, run, inspect)


def _cover_op(name: str, g) -> Op:
    def run():
        cover = graphs.traversal_cover(graphs.kruskal_mst(g))
        return cover, graphs.verify_cover(cover, cover.induced_tree_graph())

    def inspect(result) -> Outcome:
        cover, check = result
        problems = [] if check.ok else [f"{name}: verify_cover rejects: {check.reasons}"]
        return Outcome(problems, _digest(repr(cover.sequence)), [], [])

    return Op(name, run, inspect)


def build_verify(seed: int, size: Size) -> list:
    ops = [_battery_op(key, size.battery_trials) for key in batteries.REGISTRY]
    rng = _rng(seed, 2)
    for target in DECAY_TARGETS:
        s, e_fix = builtin_target(target)
        for k in range(size.decay_states):
            ops.append(_decay_op(f"decay:{target}:{k}", s, e_fix, random_state(rng, s.dim)))
    for n in size.bound_vertices:
        g = random_connected_graph(rng, n, extra_edges=n // 2, weighted=True, measured=True)
        ops.append(_bound_op(f"bound:n{n}", g))
        ops.append(_cover_op(f"cover:n{n}", g))
    return ops


def warmup_verify(seed: int, size: Size, ops: list) -> list:
    return ops


WORKLOADS = {
    w.name: w for w in (
        Workload("estimate-small", build_estimate_small, warmup_estimate_small),
        Workload("sandwich", build_sandwich, warmup_sandwich),
        Workload("verify", build_verify, warmup_verify),
    )
}
