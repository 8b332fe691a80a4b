"""Weighted graphs, spanning trees, traversal covers, and assembly of the
certified combinatorial lower bounds on the complete modified log-Sobolev
constant.

The certificate chain is: minimum spanning tree -> closed preorder-traversal
cover by a cycle of length 2l -> measure/weight comparison ratios -> numeric
lower bounds, one per applicable row of ``BOUND_SOURCES`` -> transfer of the
best to the matrix generator.  A spanning tree is a ``WeightedGraph`` that
carries its host graph's weights and measure.  A ``BoundCertificate`` keeps
the graph, the tree (``cert.tree``) and the cover (``cert.cover``) it was
built on and derives the rest; ``CyclicCover.to_json_dict`` alone
serializes a cover.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import serialize
from .exceptions import DisconnectedGraphError, GraphFormatError

MEASURE_TOL = 1e-12
# Caps the default uniform measure, the one array whose length a graph
# document sets without spelling it out.
MAX_VERTICES = 1_000_000
COVER_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with positive edge weights and a strictly positive
    probability measure on vertices.  Edges are stored as (u, v, w) with
    u < v in ascending order; no self-loops or duplicates."""

    n: int
    edges: tuple
    measure: np.ndarray

    def __post_init__(self):
        self.measure.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list:
        nbrs = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            nbrs[u].append((v, w))
            nbrs[v].append((u, w))
        return nbrs

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for u, v, _ in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg

    def is_uniform(self) -> bool:
        return bool(np.allclose(self.measure, 1.0 / self.n, rtol=0, atol=MEASURE_TOL))

    def has_unit_weights(self) -> bool:
        return all(abs(w - 1.0) <= MEASURE_TOL for _, _, w in self.edges)

    def is_single_cycle(self) -> bool:
        return (self.n >= 3 and self.edge_count == self.n
                and bool(np.all(self.degrees() == 2)) and is_connected(self))


def make_graph(n: int, edges, measure=None) -> WeightedGraph:
    """Validate and build a WeightedGraph; any malformed input raises
    GraphFormatError.

    ``edges`` items are (u, v) or (u, v, w); missing weights default to 1,
    missing measure defaults to uniform.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise GraphFormatError(f"vertex count must be an integer >= 2, got {n!r}")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds {MAX_VERTICES}")
    n = int(n)
    if not isinstance(edges, (list, tuple)):
        raise GraphFormatError(f"edges must be a list, got {type(edges).__name__}")
    seen = set()
    norm = []
    for idx, item in enumerate(edges):
        if not isinstance(item, (list, tuple)):
            raise GraphFormatError(f"edges[{idx}]: expected [u, v] or [u, v, w]")
        if len(item) == 2:
            u, v = item
            w = 1.0
        elif len(item) == 3:
            u, v, w = item
        else:
            raise GraphFormatError(f"edges[{idx}]: expected [u, v] or [u, v, w]")
        if not (isinstance(u, (int, np.integer)) and isinstance(v, (int, np.integer))):
            raise GraphFormatError(f"edges[{idx}]: endpoints must be integers")
        u, v = int(u), int(v)
        if u == v:
            raise GraphFormatError(f"edges[{idx}]: self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"edges[{idx}]: endpoint out of range [0, {n})")
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            raise GraphFormatError(f"edges[{idx}]: duplicate edge ({u},{v})")
        seen.add((u, v))
        w = _real(w, f"edges[{idx}]: weight")
        if not (w > 0 and math.isfinite(w)):
            raise GraphFormatError(f"edges[{idx}]: weight must be positive, got {w}")
        norm.append((u, v, w))
    if measure is None:
        mu = np.full(n, 1.0 / n)
    else:
        if not isinstance(measure, (list, tuple, np.ndarray)):
            raise GraphFormatError("measure must be a list of numbers")
        mu = np.array([_real(x, "measure entry") for x in measure])
        if mu.shape != (n,):
            raise GraphFormatError(f"measure must have length {n}, got shape {mu.shape}")
        if not np.all(mu > 0):
            raise GraphFormatError("measure entries must be strictly positive")
        if abs(mu.sum() - 1.0) > MEASURE_TOL:
            raise GraphFormatError(
                f"measure must sum to 1 within {MEASURE_TOL:.0e}, got {mu.sum()!r}")
    return WeightedGraph(n=n, edges=tuple(sorted(norm)), measure=mu)


def _real(x, what: str) -> float:
    """A JSON number (not a bool or string) as a float."""
    if not serialize.is_number(x):
        raise GraphFormatError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:
        raise GraphFormatError(f"{what} {x} is out of range") from None


def load_graph(text: str) -> WeightedGraph:
    """Parse the graph JSON document {"n", "edges", "measure"?}."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise GraphFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise GraphFormatError("top-level document must be an object")
    unknown = set(doc) - {"n", "edges", "measure"}
    if unknown:
        raise GraphFormatError(f"unknown keys: {sorted(unknown)}")
    if "n" not in doc or "edges" not in doc:
        raise GraphFormatError('document requires "n" and "edges"')
    return make_graph(doc["n"], doc["edges"], doc.get("measure"))


def save_graph(g: WeightedGraph) -> str:
    doc = {
        "n": g.n,
        "edges": [[u, v, w] for u, v, w in g.edges],
        "measure": serialize.vector_to_json(g.measure),
    }
    return serialize.dumps(doc, indent=2) + "\n"


def is_connected(g: WeightedGraph) -> bool:
    """Breadth-first reachability of every vertex from vertex 0."""
    nbrs = g.adjacency()
    seen = [False] * g.n
    seen[0] = True
    queue = [0]
    while queue:
        x = queue.pop()
        for y, _ in nbrs[x]:
            if not seen[y]:
                seen[y] = True
                queue.append(y)
    return all(seen)


def kruskal_mst(g: WeightedGraph) -> WeightedGraph:
    """Minimum spanning tree on g's vertices, with g's weights and measure;
    ties broken by (weight, u, v) lexicographic edge order so certificates
    are reproducible."""
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chosen = []
    for w, u, v in sorted((w, u, v) for u, v, w in g.edges):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v, w))
            if len(chosen) == g.n - 1:
                break
    if len(chosen) < g.n - 1:
        raise DisconnectedGraphError("graph is disconnected")
    return WeightedGraph(n=g.n, edges=tuple(sorted(chosen)), measure=g.measure)


@dataclass(frozen=True)
class CyclicCover:
    """Closed traversal of a tree: a cycle of length 2l whose positions map
    onto tree vertices.

    ``sequence[i]`` is the tree vertex at cycle position i (the covering map
    phi); consecutive positions, including the wraparound, map to tree
    edges.  ``m_vertex`` and ``m_edge`` count how often the cycle visits
    each tree vertex and edge; the transported measure and edge weights on
    the tree are ``mu_prime`` = m(x)/(2l) and ``w_prime`` = m(x,y) (= 2).
    """

    tree: WeightedGraph
    sequence: tuple
    m_vertex: np.ndarray
    m_edge: dict

    def __post_init__(self):
        self.m_vertex.setflags(write=False)

    @property
    def cycle_length(self) -> int:
        return len(self.sequence)

    @property
    def mu_prime(self) -> np.ndarray:
        return self.m_vertex / self.cycle_length

    @property
    def w_prime(self) -> dict:
        return {e: float(m) for e, m in self.m_edge.items()}

    def cycle_edges(self):
        seq = self.sequence
        for i in range(len(seq)):
            yield seq[i], seq[(i + 1) % len(seq)]

    def induced_tree_graph(self) -> WeightedGraph:
        """The tree re-equipped with (mu_prime, w_prime) -- the object the
        uniform unit-weight cycle covers."""
        edges = [(u, v, w) for (u, v), w in self.w_prime.items()]
        return make_graph(self.tree.n, edges, self.mu_prime)

    def to_json_dict(self) -> dict:
        """The cover as its one writer, the ``"cover"`` key of
        ``certified_bound``'s certificate, records it."""
        return {
            "sequence": list(self.sequence),
            "mu_prime": serialize.vector_to_json(self.mu_prime),
            "w_prime": [[u, v, w] for (u, v), w in self.w_prime.items()],
            "vertex_multiplicity": [int(m) for m in self.m_vertex],
        }


def traversal_cover(tree: WeightedGraph, root: Optional[int] = None) -> CyclicCover:
    """Closed preorder walk of a spanning tree: step to the smallest
    unvisited child, else back to the parent, recording every step; the walk
    closes at the root after exactly 2l steps.

    ``root=None`` picks the smallest-index degree-one vertex.  Raises
    ValueError unless ``tree`` is connected with n - 1 edges, n >= 2.
    """
    if tree.n < 2 or tree.edge_count != tree.n - 1 or not is_connected(tree):
        raise ValueError("traversal cover needs a spanning tree on >= 2 vertices")
    nbrs = tree.adjacency()
    if root is None:
        root = next(x for x in range(tree.n) if len(nbrs[x]) == 1)
    elif not (0 <= root < tree.n):
        raise ValueError(f"root {root} not in tree")

    # Each stack entry is (vertex, its parent, iterator over its ascending
    # neighbours); a vertex is recorded on entry and again after each child.
    seq = [root]
    stack = [(root, -1, iter(nbrs[root]))]
    while stack:
        x, parent, children = stack[-1]
        for child, _ in children:
            if child != parent:
                seq.append(child)
                stack.append((child, x, iter(nbrs[child])))
                break
        else:
            stack.pop()
            if stack:
                seq.append(stack[-1][0])
    seq.pop()  # the return to the root is the cycle wraparound

    m_vertex = np.bincount(seq, minlength=tree.n)
    m_edge: dict = {(u, v): 0 for u, v, _ in tree.edges}
    for a, b in zip(seq, seq[1:] + seq[:1]):
        m_edge[(a, b) if a < b else (b, a)] += 1
    return CyclicCover(tree=tree, sequence=tuple(seq), m_vertex=m_vertex,
                       m_edge=m_edge)


@dataclass(frozen=True)
class CoverCheck:
    ok: bool
    reasons: tuple


def verify_cover(cover: CyclicCover, target: WeightedGraph) -> CoverCheck:
    """Check the three cover conditions of the uniform unit-weight cycle over
    ``target`` numerically (tolerance 1e-12): edge preserving, measure
    preserving, weight preserving.  Returns ok + the violated condition
    names."""
    reasons = []
    target_edges = {(u, v): w for u, v, w in target.edges}
    keys = [(a, b) if a < b else (b, a) for a, b in cover.cycle_edges()]
    edge_ok = all(key in target_edges for key in keys)
    if not edge_ok:
        reasons.append("edge preserving")

    counts = np.zeros(target.n)
    for x in cover.sequence:
        if 0 <= x < target.n:
            counts[x] += 1.0 / cover.cycle_length
    if not np.all(np.abs(target.measure - counts) <= COVER_TOL):
        reasons.append("measure preserving")

    # The cycle's weight is 1, so each target weight over its multiplicity
    # must equal 1.
    multiplicity = Counter(keys)
    if edge_ok and (set(multiplicity) != set(target_edges) or any(
            abs(target_edges[key] / m - 1.0) > COVER_TOL
            for key, m in multiplicity.items())):
        reasons.append("weight preserving")
    return CoverCheck(ok=not reasons, reasons=tuple(reasons))


def cyclic_bound(n: int) -> float:
    """Lower bound 16/(45 n^2) for the uniform unit-weight cycle on n >= 3
    vertices."""
    if n < 3:
        raise ValueError(f"cyclic bound requires n >= 3, got {n}")
    return 16.0 / (45.0 * n * n)


def lindblad_bound(lambda_graph: float) -> float:
    """Transfer a classical lower bound to the matrix generator:
    lambda -> lambda / (1 + 5 pi^2 lambda)."""
    if not lambda_graph > 0:
        raise ValueError(f"bound to transfer must be positive, got {lambda_graph}")
    return lambda_graph / (1.0 + 5.0 * math.pi ** 2 * lambda_graph)


@dataclass(frozen=True, eq=False)
class BoundCertificate:
    """Full provenance chain from the spanning tree to the final bounds:
    every applicable bound (name -> value), one provenance line each."""

    graph: WeightedGraph
    tree: WeightedGraph
    cover: CyclicCover
    ratios: dict
    bounds: dict
    provenance: tuple

    @property
    def best_source(self) -> str:  # the first largest, in BOUND_SOURCES order
        return max(self.bounds, key=self.bounds.__getitem__)

    @property
    def best(self) -> float:
        return self.bounds[self.best_source]

    @property
    def lindblad_lower(self) -> float:
        return lindblad_bound(self.best)

    def to_json_dict(self) -> dict:
        g, tree = self.graph, self.tree
        return {
            "schema_version": 1,
            "graph": {
                "n": g.n,
                "edge_count": g.edge_count,
                "uniform_measure": g.is_uniform(),
                "unit_weights": g.has_unit_weights(),
                "edges": [[u, v, w] for u, v, w in g.edges],
                "measure": serialize.vector_to_json(g.measure),
            },
            "mst": {
                "l": tree.edge_count,
                "max_degree": int(tree.degrees().max()),
                "edges": [[u, v] for u, v, _ in tree.edges],
                "total_weight": sum(w for _, _, w in tree.edges),
            },
            "cover": self.cover.to_json_dict(),
            "ratios": self.ratios,
            "bounds": self.bounds,
            "best": self.best,
            "best_source": self.best_source,
            "lindblad_lower": self.lindblad_lower,
            "provenance": list(self.provenance),
        }

    def to_json(self) -> str:
        return serialize.dumps(self.to_json_dict(), indent=2) + "\n"


def _tree_general(g, tree, cover, ratios):
    """4 / (45 l^2 ||dmu/dmu'|| ||dmu'/dmu|| ||w'/w^s||), for every graph."""
    l = tree.edge_count
    ratio_mu, ratio_mu_inv, ratio_w = ratios.values()  # certified_bound's order
    denominator = 45.0 * l * l * ratio_mu * ratio_mu_inv * ratio_w
    # An overflowed product would make the bound 0; dividing in turn keeps a
    # bound below the normal float range positive.
    value = (4.0 / denominator if math.isfinite(denominator) else
             4.0 / (45.0 * l * l) / ratio_mu / ratio_mu_inv / ratio_w)
    return ("tree-general", value,
            "tree-general: MST -> closed preorder traversal cover (cycle length "
            f"{2*l}) -> 4/(45*l^2 * {ratio_mu:.6g} * {ratio_mu_inv:.6g} * {ratio_w:.6g})")


def _corollary_worst_case(g, tree, cover, ratios):
    """2/(45 l^2 d), d the MST's max degree, for uniform unit-weight graphs."""
    if g.is_uniform() and g.has_unit_weights():
        l, d = tree.edge_count, int(tree.degrees().max())
        return ("corollary-worst-case", 2.0 / (45.0 * l * l * d),
                f"corollary-worst-case: 2/(45*l^2*d) with l={l}, d={d}; d is the "
                "max degree of the MST itself, not of the host graph (the "
                "tree-degree reading is the sharper one consistent with the "
                "cover construction)")


def _cyclic_special(g, tree, cover, ratios):
    """16/(45 n^2) for a single uniform unit-weight cycle."""
    if g.is_uniform() and g.has_unit_weights() and g.is_single_cycle():
        return ("cyclic-special", cyclic_bound(g.n),
                f"cyclic-special: single cycle, 16/(45*n^2) with n={g.n}")


# Each source maps (graph, MST, its traversal cover, ratios) to (name,
# value, provenance line), or to None where it does not apply.
BOUND_SOURCES = (_tree_general, _corollary_worst_case, _cyclic_special)


def certified_bound(g: WeightedGraph) -> BoundCertificate:
    """Every applicable row of BOUND_SOURCES, from one MST and its
    self-verified traversal cover.

    The certified value need not grow when edges are added (extra edges can
    reshape the MST); only positivity and determinism are guaranteed.
    """
    tree = kruskal_mst(g)
    cover = traversal_cover(tree)
    check = verify_cover(cover, cover.induced_tree_graph())
    assert check.ok, f"traversal cover failed self-verification: {check.reasons}"

    mu_prime, w_prime = cover.mu_prime, cover.w_prime
    ratios = {
        "dmu_over_dmu_prime": float(np.max(g.measure / mu_prime)),
        "dmu_prime_over_dmu": float(np.max(mu_prime / g.measure)),
        "w_prime_over_w": max(w_prime[(u, v)] / w for u, v, w in tree.edges),
    }
    rows = [row for source in BOUND_SOURCES
            if (row := source(g, tree, cover, ratios)) is not None]
    return BoundCertificate(
        graph=g, tree=tree, cover=cover, ratios=ratios,
        bounds={name: value for name, value, _ in rows},
        provenance=tuple(line for _, _, line in rows))


def graph_laplacian(g: WeightedGraph) -> np.ndarray:
    """Graph generator A(f)(x) = 2 sum_y w_xy (f(x) - f(y)) as an n x n
    matrix (the diagonal restriction of the matrix generator)."""
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, u] += 2.0 * w
        a[v, v] += 2.0 * w
        a[u, v] -= 2.0 * w
        a[v, u] -= 2.0 * w
    return a


# Constants of the interval-measure comparison backing the cycle bound.
WRAPPED_GAUSSIAN_LOWER = (2.0 * math.exp(-0.5) + 2.0 * math.exp(-2.0)
                          + 2.0 * math.exp(-4.5) + (48.0 / 125.0) * math.exp(-12.5))
WRAPPED_GAUSSIAN_UPPER = (2.0 + 2.0 * math.exp(-0.5) + 2.0 * math.exp(-2.0)
                          + (8.0 / 3.0) * math.exp(-4.5))


@dataclass(frozen=True)
class ConstantChainReport:
    grid_ok: bool
    grid_margin: float
    ratio: float
    ratio_ok: bool
    chain_ok: bool
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.grid_ok and self.ratio_ok and self.chain_ok


def verify_constant_chain() -> ConstantChainReport:
    """Check the constant chain behind the cycle bound.

    (a) the wrapped Gaussian sum sqrt(2 pi) g(x), truncated to |k| <= 20,
        stays inside the analytic envelope on a 10^4-point grid of [0, 1];
    (b) twice the envelope ratio is at least 4/5 (the unit-interval
        constant);
    (c) the arithmetic chain 3 * (5/4) * (3 n^2 / 4) = 45 n^2 / 16 holds.
    """
    failures = []
    xs = np.linspace(0.0, 1.0, 10_000)
    ks = np.arange(-20, 21)
    sums = np.exp(-0.5 * (xs[:, None] - ks[None, :]) ** 2).sum(axis=1)
    lower_margin = float((sums - WRAPPED_GAUSSIAN_LOWER).min())
    upper_margin = float((WRAPPED_GAUSSIAN_UPPER - sums).min())
    grid_margin = min(lower_margin, upper_margin)
    grid_ok = grid_margin >= 0.0
    if not grid_ok:
        failures.append("wrapped-gaussian envelope violated on grid")

    ratio = 2.0 * WRAPPED_GAUSSIAN_LOWER / WRAPPED_GAUSSIAN_UPPER
    ratio_ok = ratio >= 0.8
    if not ratio_ok:
        failures.append("2*(lower/upper) < 4/5")

    chain_ok = all(
        3.0 * (5.0 / 4.0) * (3.0 * n * n / 4.0) == 45.0 * n * n / 16.0
        for n in range(3, 9))
    if not chain_ok:
        failures.append("45 n^2/16 arithmetic chain broken")

    return ConstantChainReport(grid_ok=grid_ok, grid_margin=grid_margin,
                               ratio=ratio, ratio_ok=ratio_ok,
                               chain_ok=chain_ok, failures=tuple(failures))
