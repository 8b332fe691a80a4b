"""Graph ingestion, spanning trees, traversal covers, certified bounds."""

import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from clsibound import graphs, serialize
from clsibound.exceptions import DisconnectedGraphError, GraphFormatError
from clsibound.graphs import (
    certified_bound,
    cyclic_bound,
    is_connected,
    kruskal_mst,
    lindblad_bound,
    load_graph,
    make_graph,
    save_graph,
    traversal_cover,
    verify_constant_chain,
    verify_cover,
)


class TestLoadGraph:
    def test_triangle_defaults(self):
        g = load_graph('{"n":3,"edges":[[0,1],[1,2],[0,2]]}')
        assert g.n == 3 and g.edge_count == 3
        assert g.is_uniform() and g.has_unit_weights()

    def test_single_edge(self):
        g = load_graph('{"n":2,"edges":[[0,1]]}')
        assert g.n == 2 and g.edges == ((0, 1, 1.0),)

    def test_round_trip_bit_exact(self):
        g = make_graph(3, [(0, 1, 0.75), (1, 2, 1.25)], [0.5, 0.25, 0.25])
        text = save_graph(g)
        g2 = load_graph(text)
        assert g2.edges == g.edges
        assert np.array_equal(g2.measure, g.measure)
        assert save_graph(g2) == text

    @pytest.mark.parametrize("doc,fragment", [
        ('{"n":3,"edges":[[0,1],[0,1]]}', "duplicate"),
        ('{"n":3,"edges":[[0,0]]}', "self-loop"),
        ('{"n":3,"edges":[[0,5]]}', "out of range"),
        ('{"n":3,"edges":[[0,1,-2.0]]}', "positive"),
        ('{"n":3,"edges":[[0,1]],"measure":[0.5,0.5,0.5]}', "sum to 1"),
        ('{"n":3,"edges":[[0,1]],"measure":[1.0,0.0,0.0]}', "strictly positive"),
        ('{"n":1,"edges":[]}', ">= 2"),
        ('not json', "invalid JSON"),
        ('{"edges":[[0,1]]}', 'requires "n"'),
        ('{"n":3,"edges":5}', "edges must be a list"),
        ('{"n":3,"edges":[5]}', "expected \\[u, v\\]"),
        ('{"n":3,"edges":[[0,1,[2]]]}', "weight must be a number"),
        ('{"n":3,"edges":[[0,1,"2"]]}', "weight must be a number"),
        pytest.param('{"n":3,"edges":[[0,1,1' + "0" * 400 + ']]}', "out of range",
                     id="weight-1e400"),
        ('{"n":3,"edges":[[0,1]],"measure":"ab"}', "measure must be a list"),
        ('{"n":3,"edges":[[0,1]],"measure":[0.5,0.25,"x"]}', "must be a number"),
        pytest.param("1" * 5000, "invalid JSON", id="5000-digit-integer"),
        ('{"n":1000001,"edges":[]}', "exceeds 1000000"),
    ])
    def test_rejects_malformed(self, doc, fragment):
        with pytest.raises(GraphFormatError, match=fragment):
            load_graph(doc)

    def test_disconnected_parses(self):
        g = load_graph('{"n":4,"edges":[[0,1],[2,3]]}')
        assert not is_connected(g)


class TestConnectivity:
    def test_triangle(self):
        assert is_connected(make_graph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_two_isolated_edges(self):
        assert not is_connected(make_graph(4, [(0, 1), (2, 3)]))

    def test_path(self):
        assert is_connected(make_graph(5, [(i, i + 1) for i in range(4)]))


class TestKruskal:
    def test_unit_triangle_tie_break(self):
        mst = kruskal_mst(make_graph(3, [(0, 1), (1, 2), (0, 2)]))
        assert mst.edges == ((0, 1, 1.0), (0, 2, 1.0))
        assert mst.edge_count == 2 and mst.degrees().max() == 2

    def test_star_unique_tree(self):
        mst = kruskal_mst(make_graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert mst.edges == ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0))
        assert mst.edge_count == 3 and mst.degrees().max() == 3

    def test_weighted_triangle(self):
        g = make_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)])
        assert kruskal_mst(g).edges == ((0, 1, 1.0), (1, 2, 1.0))

    def test_carries_host_measure_and_weights(self):
        g = make_graph(4, [(0, 1, 0.5), (1, 2, 2.5), (2, 3, 0.75), (0, 3, 4.0),
                           (0, 2, 1.5)], [0.1, 0.2, 0.3, 0.4])
        mst = kruskal_mst(g)
        assert mst.n == g.n and mst.measure is g.measure
        assert not mst.measure.flags.writeable
        assert mst.edges == ((0, 1, 0.5), (0, 2, 1.5), (2, 3, 0.75))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            kruskal_mst(make_graph(4, [(0, 1), (2, 3)]))

    def test_minimal_against_enumeration(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            n = int(rng.integers(4, 8))
            edges = {}
            for v in range(1, n):
                edges[(int(rng.integers(0, v)), v)] = float(rng.uniform(0.5, 3.0))
            while len(edges) < min(n + 2, n * (n - 1) // 2):
                u, v = sorted(rng.choice(n, 2, replace=False).tolist())
                edges.setdefault((u, v), float(rng.uniform(0.5, 3.0)))
            g = make_graph(n, [(u, v, w) for (u, v), w in edges.items()])
            best = min(
                sum(w for _, _, w in sub)
                for sub in itertools.combinations(g.edges, n - 1)
                if is_connected(graphs.WeightedGraph(n=n, edges=tuple(sub),
                                                     measure=g.measure.copy())))
            total = sum(w for _, _, w in kruskal_mst(g).edges)
            assert total == pytest.approx(best, abs=1e-12)


class TestTraversalCover:
    def test_path_three(self):
        mst = kruskal_mst(make_graph(3, [(0, 1), (1, 2)]))
        cover = traversal_cover(mst, root=0)
        assert cover.sequence == (0, 1, 2, 1)
        np.testing.assert_allclose(cover.mu_prime, [0.25, 0.5, 0.25])
        assert cover.w_prime == {(0, 1): 2.0, (1, 2): 2.0}

    def test_single_edge(self):
        cover = traversal_cover(kruskal_mst(make_graph(2, [(0, 1)])))
        assert cover.sequence == (0, 1)
        np.testing.assert_allclose(cover.mu_prime, [0.5, 0.5])
        assert cover.m_edge[(0, 1)] == 2

    def test_star_rooted_at_leaf(self):
        cover = traversal_cover(kruskal_mst(make_graph(4, [(0, 1), (0, 2), (0, 3)])))
        assert cover.cycle_length == 6
        assert cover.m_vertex[0] == 3           # center multiplicity
        assert cover.sequence[0] == 1           # auto root: smallest leaf
        assert int(cover.m_vertex.sum()) == 6

    def test_root_validation(self):
        mst = kruskal_mst(make_graph(2, [(0, 1)]))
        with pytest.raises(ValueError):
            traversal_cover(mst, root=5)

    @pytest.mark.parametrize("n,edges", [
        (3, [(0, 1), (1, 2), (0, 2)]),
        (4, [(0, 1), (1, 2), (0, 2)]),
        (4, [(0, 1), (2, 3)]),
    ], ids=["cycle", "cycle-with-n-1-edges", "forest"])
    def test_rejects_non_tree(self, n, edges):
        with pytest.raises(ValueError, match="spanning tree"):
            traversal_cover(make_graph(n, edges))

    def test_long_path_without_recursion(self):
        n = 3000
        cover = traversal_cover(kruskal_mst(make_graph(n, [(i, i + 1) for i in range(n - 1)])))
        assert cover.sequence == tuple(range(n)) + tuple(range(n - 2, 0, -1))
        assert verify_cover(cover, cover.induced_tree_graph()).ok


class TestVerifyCover:
    def make_cover(self):
        mst = kruskal_mst(make_graph(4, [(0, 1), (1, 2), (2, 3)]))
        return traversal_cover(mst)

    def test_self_verification(self):
        cover = self.make_cover()
        assert verify_cover(cover, cover.induced_tree_graph()).ok

    def test_broken_edge_reported(self):
        cover = self.make_cover()
        bad = dataclasses.replace(
            cover, sequence=cover.sequence[:-1] + (cover.sequence[0],))
        check = verify_cover(bad, cover.induced_tree_graph())
        assert not check.ok and "edge preserving" in check.reasons

    def test_perturbed_measure_reported(self):
        cover = self.make_cover()
        mu = cover.mu_prime.copy()
        mu[0] += 1e-6
        mu[1] -= 1e-6
        target = graphs.WeightedGraph(
            n=cover.tree.n,
            edges=tuple((u, v, w) for (u, v), w in cover.w_prime.items()),
            measure=mu)
        check = verify_cover(cover, target)
        assert not check.ok and check.reasons == ("measure preserving",)

    def test_perturbed_weight_reported(self):
        cover = self.make_cover()
        edges = tuple((u, v, 3.0) for u, v, _ in cover.tree.edges)
        target = graphs.WeightedGraph(n=cover.tree.n, edges=edges,
                                      measure=cover.mu_prime.copy())
        check = verify_cover(cover, target)
        assert not check.ok and "weight preserving" in check.reasons


class TestBounds:
    def test_cyclic_bound_values(self):
        assert cyclic_bound(4) == pytest.approx(1.0 / 45.0)
        assert cyclic_bound(3) == pytest.approx(16.0 / 405.0)
        assert cyclic_bound(8) == pytest.approx(16.0 / 2880.0)
        with pytest.raises(ValueError):
            cyclic_bound(2)

    def test_cycle_four(self):
        cert = certified_bound(make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert cert.best == cyclic_bound(4)
        assert cert.best_source == "cyclic-special"
        # the MST path bound is strictly smaller
        assert cert.bounds["corollary-worst-case"] == pytest.approx(2.0 / 810.0)

    def test_star(self):
        cert = certified_bound(make_graph(4, [(0, 1), (0, 2), (0, 3)]))
        assert cert.bounds["corollary-worst-case"] == 2.0 / 1215.0
        assert cert.best == pytest.approx(2.0 / 1215.0)
        # tree-general ties the corollary, and the first largest source wins
        assert cert.best_source == "tree-general"

    def test_single_edge_exact_ratios(self):
        cert = certified_bound(make_graph(2, [(0, 1)]))
        assert cert.tree.edge_count == 1
        assert cert.ratios["dmu_over_dmu_prime"] == pytest.approx(1.0)
        assert cert.ratios["dmu_prime_over_dmu"] == pytest.approx(1.0)
        assert cert.ratios["w_prime_over_w"] == pytest.approx(2.0)
        assert cert.bounds["tree-general"] == pytest.approx(2.0 / 45.0)
        assert cert.best == pytest.approx(2.0 / 45.0)

    def test_best_dominates_components(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(2, 10))
            edges = {(int(rng.integers(0, v)), v): 1.0 for v in range(1, n)}
            g = make_graph(n, [(u, v, w) for (u, v), w in edges.items()])
            cert = certified_bound(g)
            assert cert.best > 0
            assert all(cert.best >= v for v in cert.bounds.values())

    def test_overflowing_denominator_stays_positive(self):
        g = make_graph(4, [(0, 1), (0, 2), (0, 3, 1e-300)],
                       [1e-5, 0.007, 0.007, 0.98599])
        cert = certified_bound(g)
        r = cert.ratios
        assert math.isinf(45.0 * 9 * r["dmu_over_dmu_prime"]
                          * r["dmu_prime_over_dmu"] * r["w_prime_over_w"])
        assert cert.best == cert.bounds["tree-general"] > 0
        assert cert.lindblad_lower > 0

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            certified_bound(make_graph(4, [(0, 1), (2, 3)]))

    def test_certificate_json_deterministic(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert certified_bound(g).to_json() == certified_bound(g).to_json()
        doc = certified_bound(g).to_json()
        assert '"schema_version": 1' in doc


def seeded_measured_graph(n: int, seed: int):
    """A seeded random spanning tree plus n // 3 extra edges, weights in
    [0.5, 2] and a random measure."""
    rng = np.random.default_rng(seed)
    edges = {(int(rng.integers(0, v)), v) for v in range(1, n)}
    while len(edges) < n - 1 + n // 3:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((u, v))
    weights = rng.uniform(0.5, 2.0, size=len(edges))
    m = rng.uniform(0.5, 2.0, size=n)
    return make_graph(n, [(u, v, float(w)) for (u, v), w in zip(sorted(edges), weights)],
                      m / m.sum())


GOLDEN_GRAPHS = {
    "C4": lambda: make_graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "C5": lambda: make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "star4": lambda: make_graph(4, [(0, 1), (0, 2), (0, 3)]),
    "K2": lambda: make_graph(2, [(0, 1)]),
    "weighted-measured-6": lambda: make_graph(
        6, [(0, 1, 0.5), (1, 2, 2.0), (2, 3, 1.5), (3, 4, 0.7), (4, 5, 1.25),
            (0, 5, 0.9), (1, 4, 1.1)], [0.1, 0.25, 0.15, 0.2, 0.05, 0.25]),
    "seeded-measured-300": lambda: seeded_measured_graph(300, 300),
}

# sha256 of each golden graph's certificate JSON.  A change that moves a
# certified number or the certificate's layout updates these on purpose.
CERTIFICATE_SHA256 = {
    "C4": "fae71171fef0acaa19ea18d738fa4fd52ad1aa9d3aa5081e983b006beb20ef16",
    "C5": "ee3e1d82d6fb7f97b47fc3911dd4ef16d8a9ebce7e5df62c109b0ffeb3187f00",
    "star4": "075ac859edb5614c1393008ca17a7a224d7ef0cdc2b98a31ab0a949f20b247c3",
    "K2": "f03c70860abca04ca0745fd7fe22f204bba50ccbf840a7d614e83a42aaff1105",
    "weighted-measured-6": "8dc170d6e72ee753a83c4250096b473491001b45cebe47a823568726f55b8a1f",
    "seeded-measured-300": "adf63f64259cb3cb40c5c84c44c182b503947876de6756107dd51af4060e5be6",
}


@pytest.mark.parametrize("name", list(GOLDEN_GRAPHS))
def test_certificate_is_byte_identical_to_its_golden_digest(name):
    text = certified_bound(GOLDEN_GRAPHS[name]()).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256[name]


class TestLindbladBound:
    def test_scalar_value(self):
        assert lindblad_bound(0.1) == pytest.approx(0.1 / (1 + 0.5 * math.pi ** 2))

    def test_small_lambda_limit(self):
        lam = 1e-8
        assert lindblad_bound(lam) / lam == pytest.approx(1.0, abs=1e-6)

    def test_two_over_fortyfive(self):
        lam = 2.0 / 45.0
        assert lindblad_bound(lam) == pytest.approx(
            lam / (1.0 + 5.0 * math.pi ** 2 * lam))

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            lindblad_bound(0.0)


class TestConstantChain:
    def test_report(self):
        report = verify_constant_chain()
        assert report.ok
        assert report.grid_margin >= 0.0
        assert report.ratio >= 0.8
        assert report.ratio == pytest.approx(0.8573, abs=2e-4)

    def test_chain_identity_for_n5(self):
        assert 3.0 * 1.25 * 18.75 == 70.3125 == 45.0 * 25.0 / 16.0


class TestGraphLaplacian:
    def test_matches_edge_sum(self):
        g = make_graph(3, [(0, 1, 2.0), (1, 2, 1.0)])
        a = graphs.graph_laplacian(g)
        f = np.array([1.0, 3.0, -2.0])
        expected0 = 2 * 2.0 * (f[0] - f[1])
        assert a[0] @ f == pytest.approx(expected0)
        assert np.allclose(a, a.T)
        assert np.abs(a @ np.ones(3)).max() < 1e-12


def test_fmt17_round_trip():
    for x in (2.0 / 1215.0, 1.0 / 45.0, math.pi, 1e-300, -3.25):
        assert float(serialize.fmt17(x)) == x
    assert serialize.fmt17(1.0 / 45.0) == "2.2222222222222223e-2"
