"""Property tests: the document readers raise only their own error type on
any input, ``bound`` exits only with a documented code, the graph and float
formats round-trip exactly, and certificates are positive, deterministic and
rest on a cover that verifies."""

import contextlib
import io
import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clsibound import cli, serialize
from clsibound.exceptions import GraphFormatError
from clsibound.graphs import (
    certified_bound,
    kruskal_mst,
    load_graph,
    make_graph,
    save_graph,
    traversal_cover,
    verify_cover,
)

# Repeatable runs that write no example database into the repository.
fixed = settings(database=None, derandomize=True, deadline=None)
fuzz = settings(fixed, max_examples=300)

small_ints = st.integers(-3, 12)  # vertex ids, mostly in range
huge_ints = st.integers(10 ** 309, 10 ** 400)  # beyond float range
scalars = (st.none() | st.booleans() | small_ints | st.integers() | st.floats()
           | st.text(max_size=3))
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=3), children, max_size=3)),
    max_leaves=12)
numbers = small_ints | huge_ints | st.floats()

graph_docs = st.fixed_dictionaries(
    {"n": st.integers(2, 6) | st.integers(2, 2 * 10 ** 6) | json_values,
     "edges": st.lists(st.lists(numbers | json_values, max_size=4) | json_values,
                       max_size=6) | json_values},
    optional={"measure": st.lists(numbers | json_values, max_size=6) | json_values,
              "extra": json_values})
graph_texts = (graph_docs | json_values).map(json.dumps) | st.text(max_size=20)


@fuzz
@given(graph_texts)
def test_load_graph_raises_only_graph_format_error(text):
    try:
        load_graph(text)
    except GraphFormatError:
        pass


@st.composite
def graphs(draw, connected=False):
    """A graph on 2..6 vertices; a connected one joins each vertex to an
    earlier one before drawing the other edges."""
    n = draw(st.integers(2, 6))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)] if connected else []
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    weights = st.floats(min_value=1e-300, max_value=1e300)
    edges = [(u, v, draw(weights)) for u, v in tree + [p for p in chosen if p not in tree]]
    measure = None
    if draw(st.booleans()):
        raw = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n)))
        measure = raw / raw.sum()
    return make_graph(n, edges, measure)


@fixed
@given(graphs())
def test_save_load_graph_round_trip(g):
    text = save_graph(g)
    back = load_graph(text)
    assert back.n == g.n and back.edges == g.edges
    assert np.array_equal(back.measure, g.measure)
    assert save_graph(back) == text


EXIT_CODES = {cli.EXIT_OK} | {code for _, code, _ in cli.ERRORS}


@fuzz
@given(text=graph_texts | graphs().map(save_graph))
def test_bound_exits_with_a_documented_code(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzzed-graph.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["bound", "--graph", str(path)])
    assert code in EXIT_CODES
    if code == cli.EXIT_OK:
        assert [line.split("=")[0] for line in out.getvalue().splitlines()] == [
            "best", "lindblad"]
    else:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1


@fixed
@given(graphs(connected=True))
def test_certified_bound_is_positive(g):
    cert = certified_bound(g)
    assert cert.best > 0 and cert.lindblad_lower > 0


@fixed
@given(graphs(connected=True))
def test_certified_bound_is_deterministic(g):
    assert certified_bound(g).to_json() == certified_bound(g).to_json()


@fixed
@given(graphs(connected=True))
def test_mst_traversal_cover_self_verifies(g):
    cover = traversal_cover(kruskal_mst(g))
    assert verify_cover(cover, cover.induced_tree_graph()).ok


@fixed
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt17_round_trips_every_finite_float(x):
    y = float(serialize.fmt17(x))
    assert y == x and math.copysign(1.0, y) == math.copysign(1.0, x)


pairs = st.lists(numbers | json_values, min_size=0, max_size=3)
matrix_docs = (st.lists(st.lists(pairs | json_values, max_size=3), max_size=3)
               | json_values)


@fuzz
@given(matrix_docs)
def test_matrix_from_json_raises_only_value_error(doc):
    try:
        a = serialize.matrix_from_json(doc)
    except ValueError:
        return
    assert a.dtype == complex and a.ndim == 2 and a.shape[0] == a.shape[1]


@fixed
@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    min_size=n * n, max_size=n * n)))
def test_matrix_json_round_trip(entries):
    n = math.isqrt(len(entries))
    a = np.array(entries, dtype=complex).reshape(n, n)
    back = serialize.matrix_from_json(json.loads(json.dumps(serialize.matrix_to_json(a))))
    assert np.array_equal(back.view(float), a.view(float))
