"""Weighted graphs, spanning trees, traversal covers, and assembly of the
certified combinatorial lower bounds on the complete modified log-Sobolev
constant.

The certificate chain is: minimum spanning tree -> closed preorder-traversal
cover by a cycle of length 2l -> measure/weight comparison ratios -> numeric
lower bound -> transfer to the matrix generator.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import serialize
from .exceptions import DisconnectedGraphError, GraphFormatError

MEASURE_TOL = 1e-12
COVER_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with positive edge weights and a strictly positive
    probability measure on vertices.  Edges are stored as (u, v, w) with
    u < v; no self-loops or duplicates."""

    n: int
    edges: tuple
    measure: np.ndarray

    def __post_init__(self):
        self.measure.setflags(write=False)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def weight(self, u: int, v: int) -> float:
        if u > v:
            u, v = v, u
        for a, b, w in self.edges:
            if (a, b) == (u, v):
                return w
        raise KeyError(f"({u},{v}) is not an edge")

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
    """Validate and build a WeightedGraph.

    ``edges`` items are (u, v) or (u, v, w); missing weights default to 1,
    missing measure defaults to uniform.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise GraphFormatError(f"vertex count must be an integer >= 2, got {n!r}")
    n = int(n)
    seen = set()
    norm = []
    for idx, item in enumerate(edges):
        item = tuple(item)
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
        w = float(w)
        if not (w > 0 and math.isfinite(w)):
            raise GraphFormatError(f"edges[{idx}]: weight must be positive, got {w}")
        norm.append((u, v, w))
    if measure is None:
        mu = np.full(n, 1.0 / n)
    else:
        mu = np.asarray(measure, dtype=float)
        if mu.shape != (n,):
            raise GraphFormatError(f"measure must have length {n}, got shape {mu.shape}")
        if not np.all(mu > 0):
            raise GraphFormatError("measure entries must be strictly positive")
        if abs(mu.sum() - 1.0) > MEASURE_TOL:
            raise GraphFormatError(
                f"measure must sum to 1 within {MEASURE_TOL:.0e}, got {mu.sum()!r}")
    return WeightedGraph(n=n, edges=tuple(sorted(norm)), measure=mu.copy())


def load_graph(text: str) -> WeightedGraph:
    """Parse the graph JSON document {"n", "edges", "measure"?}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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


@dataclass(frozen=True)
class SpanningTree:
    """Spanning tree of a parent graph; weights are the parent's."""

    graph: WeightedGraph
    edges: tuple  # (u, v) pairs, u < v

    @property
    def n(self) -> int:
        return self.graph.n

    # number of edges l and max in-tree degree d of the certificate
    @property
    def l(self) -> int:  # noqa: E743 - matches the certificate field name
        return len(self.edges)

    @property
    def max_degree(self) -> int:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return max(deg)

    def adjacency(self) -> list:
        nbrs = [[] for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        for lst in nbrs:
            lst.sort()
        return nbrs

    def total_weight(self) -> float:
        return sum(self.graph.weight(u, v) for u, v in self.edges)


def kruskal_mst(g: WeightedGraph) -> SpanningTree:
    """Minimum spanning tree; ties broken by (weight, u, v) lexicographic
    edge order so certificates are reproducible."""
    if not is_connected(g):
        raise DisconnectedGraphError("graph is disconnected")
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
            chosen.append((u, v))
            if len(chosen) == g.n - 1:
                break
    return SpanningTree(graph=g, edges=tuple(sorted(chosen)))


@dataclass(frozen=True)
class CyclicCover:
    """Closed traversal of a tree: a cycle of length 2l whose positions map
    onto tree vertices.

    ``sequence[i]`` is the tree vertex at cycle position i (the covering map
    phi); consecutive positions, including the wraparound, map to tree
    edges.  ``mu_prime`` and ``w_prime`` are the transported measure
    m(x)/(2l) and edge weights m(x,y) (= 2) on the tree.
    """

    n: int
    tree_edges: tuple
    sequence: tuple
    mu_prime: np.ndarray
    w_prime: dict
    m_vertex: np.ndarray
    m_edge: dict

    def __post_init__(self):
        self.mu_prime.setflags(write=False)
        self.m_vertex.setflags(write=False)

    @property
    def cycle_length(self) -> int:
        return len(self.sequence)

    def cycle_edges(self):
        seq = self.sequence
        for i in range(len(seq)):
            yield seq[i], seq[(i + 1) % len(seq)]

    def induced_tree_graph(self) -> WeightedGraph:
        """The tree re-equipped with (mu_prime, w_prime) -- the object the
        uniform unit-weight cycle covers."""
        edges = [(u, v, self.w_prime[(u, v)]) for u, v in self.tree_edges]
        return make_graph(self.n, edges, self.mu_prime)


def traversal_cover(tree: SpanningTree, root: Optional[int] = None) -> CyclicCover:
    """Closed preorder walk of the tree: step to the smallest unvisited
    child, else back to the parent, recording every step; the walk closes
    at the root after exactly 2l steps.

    ``root=None`` picks the smallest-index degree-one vertex.
    """
    if tree.n < 2:
        raise ValueError("traversal cover needs a tree with at least 2 vertices")
    nbrs = tree.adjacency()
    if root is None:
        root = next(x for x in range(tree.n) if len(nbrs[x]) == 1)
    elif not (0 <= root < tree.n):
        raise ValueError(f"root {root} not in tree")

    seq: list = []

    def walk(x: int, parent: int) -> None:
        seq.append(x)
        for child in nbrs[x]:
            if child != parent:
                walk(child, x)
                seq.append(x)

    walk(root, -1)
    assert seq[-1] == root
    seq = seq[:-1]  # the return to the root is the cycle wraparound
    two_l = 2 * tree.l
    assert len(seq) == two_l

    m_vertex = np.zeros(tree.n, dtype=int)
    for x in seq:
        m_vertex[x] += 1
    m_edge: dict = {e: 0 for e in tree.edges}
    for i in range(two_l):
        a, b = seq[i], seq[(i + 1) % two_l]
        key = (a, b) if a < b else (b, a)
        m_edge[key] += 1
    mu_prime = m_vertex / two_l
    w_prime = {e: float(m_edge[e]) for e in tree.edges}
    return CyclicCover(n=tree.n, tree_edges=tree.edges, sequence=tuple(seq),
                       mu_prime=mu_prime, w_prime=w_prime,
                       m_vertex=m_vertex, m_edge=m_edge)


@dataclass(frozen=True)
class CoverCheck:
    ok: bool
    reasons: tuple

    def __bool__(self) -> bool:
        return self.ok


def verify_cover(cover: CyclicCover, target: WeightedGraph) -> CoverCheck:
    """Check the three cover conditions of the uniform unit-weight cycle over
    ``target`` numerically (tolerance 1e-12): edge preserving, measure
    preserving, weight preserving.  Returns ok + the violated condition
    names."""
    reasons = []
    two_l = cover.cycle_length
    target_edges = {(u, v): w for u, v, w in target.edges}

    edge_ok = True
    for a, b in cover.cycle_edges():
        key = (a, b) if a < b else (b, a)
        if key not in target_edges:
            edge_ok = False
            break
    if not edge_ok:
        reasons.append("edge preserving")

    counts = np.zeros(target.n)
    for x in cover.sequence:
        if 0 <= x < target.n:
            counts[x] += 1.0 / two_l
    if not np.all(np.abs(target.measure - counts) <= COVER_TOL):
        reasons.append("measure preserving")

    if edge_ok:
        multiplicity: dict = {}
        for a, b in cover.cycle_edges():
            key = (a, b) if a < b else (b, a)
            multiplicity[key] = multiplicity.get(key, 0) + 1
        weight_ok = set(multiplicity) == set(target_edges)
        if weight_ok:
            for key, m in multiplicity.items():
                # cycle weight is 1, so w_target / m must equal 1
                if abs(target_edges[key] / m - 1.0) > COVER_TOL:
                    weight_ok = False
                    break
        if not weight_ok:
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


@dataclass(frozen=True)
class BoundCertificate:
    """Full provenance chain from the spanning tree to the final bounds."""

    graph_summary: dict
    mst: dict
    cover: dict
    ratios: dict
    bounds: dict           # name -> value for every applicable bound
    best: float
    best_source: str
    lindblad_lower: float
    provenance: tuple

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "graph": self.graph_summary,
            "mst": self.mst,
            "cover": self.cover,
            "ratios": self.ratios,
            "bounds": self.bounds,
            "best": self.best,
            "best_source": self.best_source,
            "lindblad_lower": self.lindblad_lower,
            "provenance": list(self.provenance),
        }

    def to_json(self) -> str:
        return serialize.dumps(self.to_json_dict(), indent=2) + "\n"


def certified_bound(g: WeightedGraph) -> BoundCertificate:
    """Compute every applicable certified lower bound for the graph and keep
    the largest.

    Always emitted: the tree-general bound
    4 / (45 l^2 ||dmu/dmu'|| ||dmu'/dmu|| ||w'/w^s||) from the MST cover.
    For uniform measure and unit weights also 2/(45 l^2 d) with d the max
    degree of the MST itself; for a single uniform unit-weight cycle also
    16/(45 n^2).

    The certified value need not grow when edges are added (extra edges can
    reshape the MST); only positivity and determinism are guaranteed.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("graph is disconnected")
    mst = kruskal_mst(g)
    cover = traversal_cover(mst)
    check = verify_cover(cover, cover.induced_tree_graph())
    assert check.ok, f"traversal cover failed self-verification: {check.reasons}"

    l = mst.l
    d = mst.max_degree
    ratio_mu = float(np.max(g.measure / cover.mu_prime))
    ratio_mu_inv = float(np.max(cover.mu_prime / g.measure))
    ratio_w = max(cover.w_prime[(u, v)] / g.weight(u, v) for u, v in mst.edges)

    bounds = {}
    provenance = []
    tree_general = 4.0 / (45.0 * l * l * ratio_mu * ratio_mu_inv * ratio_w)
    bounds["tree-general"] = tree_general
    provenance.append(
        "tree-general: MST -> closed preorder traversal cover (cycle length "
        f"{2*l}) -> 4/(45*l^2 * {ratio_mu:.6g} * {ratio_mu_inv:.6g} * {ratio_w:.6g})")

    uniform_unit = g.is_uniform() and g.has_unit_weights()
    if uniform_unit:
        bounds["corollary-worst-case"] = 2.0 / (45.0 * l * l * d)
        provenance.append(
            f"corollary-worst-case: 2/(45*l^2*d) with l={l}, d={d}; d is the "
            "max degree of the MST itself, not of the host graph (the "
            "tree-degree reading is the sharper one consistent with the "
            "cover construction)")
    if uniform_unit and g.is_single_cycle():
        bounds["cyclic-special"] = cyclic_bound(g.n)
        provenance.append(f"cyclic-special: single cycle, 16/(45*n^2) with n={g.n}")

    best_source = max(bounds, key=lambda k: bounds[k])
    best = bounds[best_source]
    assert all(best >= v for v in bounds.values())

    return BoundCertificate(
        graph_summary={
            "n": g.n,
            "edge_count": g.edge_count,
            "uniform_measure": g.is_uniform(),
            "unit_weights": g.has_unit_weights(),
            "edges": [[u, v, w] for u, v, w in g.edges],
            "measure": serialize.vector_to_json(g.measure),
        },
        mst={
            "l": l,
            "max_degree": d,
            "edges": [[u, v] for u, v in mst.edges],
            "total_weight": mst.total_weight(),
        },
        cover={
            "sequence": list(cover.sequence),
            "mu_prime": serialize.vector_to_json(cover.mu_prime),
            "w_prime": [[u, v, cover.w_prime[(u, v)]] for u, v in mst.edges],
            "vertex_multiplicity": [int(m) for m in cover.m_vertex],
        },
        ratios={
            "dmu_over_dmu_prime": ratio_mu,
            "dmu_prime_over_dmu": ratio_mu_inv,
            "w_prime_over_w": ratio_w,
        },
        bounds=bounds,
        best=best,
        best_source=best_source,
        lindblad_lower=lindblad_bound(best),
        provenance=tuple(provenance),
    )


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


def verify_constant_chain(grid_points: int = 10_000, k_max: int = 20) -> ConstantChainReport:
    """Check the constant chain behind the cycle bound.

    (a) the wrapped Gaussian sum sqrt(2 pi) g(x) stays inside the analytic
        envelope on a fine grid of [0, 1];
    (b) twice the envelope ratio is at least 4/5 (the unit-interval
        constant);
    (c) the arithmetic chain 3 * (5/4) * (3 n^2 / 4) = 45 n^2 / 16 holds.
    """
    failures = []
    xs = np.linspace(0.0, 1.0, grid_points)
    ks = np.arange(-k_max, k_max + 1)
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
