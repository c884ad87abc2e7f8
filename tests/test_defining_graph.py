import time
from itertools import product

import pytest
from hypothesis import given, strategies as st
from oracles import brute_two_dimensional, two_twos_plan

from cubartin import defining_graph as dg


def G(text):
    return dg.parse_graph(text)


def renamed(g, mapping):
    return dg.DefiningGraph(
        tuple(mapping[v] for v in g.vertices),
        {frozenset(mapping[x] for x in p): m for p, m in g.edges.items()},
    )


TRIANGLE_332 = "vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\nedge a c 2\n"


class TestParse:
    def test_single_edge(self):
        g = G("vertex a\nvertex b\nedge a b 3\n")
        assert g.vertices == ("a", "b")
        assert g.label("a", "b") == 3

    def test_comments_and_blank_lines(self):
        g = G("# heading\n\nvertex a\nvertex b  # trailing\nedge a b 5\n")
        assert g.label("a", "b") == 5

    def test_braid4_triangle(self):
        g = G(TRIANGLE_332)
        assert g.label("a", "b") == 3
        assert g.label("a", "c") == 2

    def test_label_below_two(self):
        with pytest.raises(dg.GraphParseError, match="line 1"):
            G("edge a b 1")

    def test_duplicate_edge(self):
        with pytest.raises(dg.GraphParseError, match="line 4.*duplicate"):
            G("vertex a\nvertex b\nedge a b 2\nedge b a 3\n")

    def test_duplicate_vertex(self):
        with pytest.raises(dg.GraphParseError, match="duplicate vertex"):
            G("vertex a\nvertex a\n")

    def test_loop_edge(self):
        with pytest.raises(dg.GraphParseError, match="loop"):
            G("vertex a\nedge a a 2\n")

    def test_unknown_vertex(self):
        with pytest.raises(dg.GraphParseError, match="unknown vertex"):
            G("vertex a\nedge a b 2\n")

    def test_bad_record(self):
        with pytest.raises(dg.GraphParseError, match="line 1"):
            G("node a\n")

    def test_dot_in_vertex_name(self):
        with pytest.raises(dg.GraphParseError, match="line 2.*'a.b' contains '.'"):
            G("vertex a\nvertex a.b\n")

    def test_round_trip(self):
        g = G(TRIANGLE_332)
        assert dg.parse_graph(dg.graph_text(g)) == g


class TestEdgeClasses:
    def test_path_both_leaves(self):
        g = G("vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 3\n")
        tags = dg.classify_edges(g)
        assert set(tags.values()) == {dg.LEAF}

    def test_triangle_all_interior(self):
        tags = dg.classify_edges(G(TRIANGLE_332))
        assert set(tags.values()) == {dg.INTERIOR}

    def test_star_all_leaves(self):
        g = G(
            "vertex c\nvertex x\nvertex y\nvertex z\n"
            "edge c x 2\nedge c y 2\nedge c z 2\n"
        )
        assert set(dg.classify_edges(g).values()) == {dg.LEAF}


class TestConditionIII:
    def test_single_odd_edge(self):
        ok, witness = dg.satisfies_condition_iii(G("vertex a\nvertex b\nedge a b 3\n"))
        assert ok and witness is None

    def test_star_even(self):
        g = G(
            "vertex a\nvertex b\nvertex c\nvertex d\n"
            "edge a b 4\nedge a c 6\nedge a d 8\n"
        )
        assert dg.satisfies_condition_iii(g) == (True, None)

    def test_triangle_322_fails_on_interior_three(self):
        g = G("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 2\nedge a c 2\n")
        ok, witness = dg.satisfies_condition_iii(g)
        assert not ok
        assert witness == ("a", "b", 3)

    def test_odd_leaf_fails(self):
        g = G("vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 3\n")
        ok, witness = dg.satisfies_condition_iii(g)
        assert not ok
        assert witness == ("b", "c", 3)


class TestTwoDimensional:
    def test_triangle_333(self):
        g = G("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\nedge a c 3\n")
        assert dg.is_two_dimensional(g)

    def test_triangle_235(self):
        g = G("vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 3\nedge a c 5\n")
        assert not dg.is_two_dimensional(g)

    def test_edgeless(self):
        assert not dg.is_two_dimensional(G("vertex a\nvertex b\n"))


class TestVerdict:
    def test_braid4_negative(self):
        v = dg.verdict(G(TRIANGLE_332))
        assert v.kind == dg.NOT_COCOMPACTLY_CUBULATED
        assert v.witness is not None

    def test_triangle_322_k_times_circle(self):
        v = dg.verdict(G("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 2\nedge a c 2\n"))
        assert v.kind == dg.COCOMPACTLY_CUBULATED
        assert v.plan.times_circle == "c"
        assert v.plan.pieces == (dg.OddEdge("a", "b", 3),)

    def test_gap_graph(self):
        g = G(
            "vertex a\nvertex b\nvertex c\nvertex d\n"
            "edge a b 2\nedge b c 3\nedge a c 4\nedge a d 3\n"
        )
        assert dg.verdict(g).kind == dg.OUTSIDE_CLASSIFICATION

    def test_amalgam_plan_shape(self):
        g = G("vertex a\nvertex b\nvertex c\nedge a b 4\nedge b c 6\n")
        v = dg.verdict(g)
        (piece,) = v.plan.pieces
        assert isinstance(piece, dg.Amalgam)
        assert piece.interior.vertices == ("b",)
        assert piece.leaves == (("b", "a", 4), ("b", "c", 6))


LABELS = (2, 3, 4, 5, 6, 7, 8, None)  # None = no edge


def three_vertex_graphs():
    for lab, lbc, lac in product(LABELS, repeat=3):
        edges = {}
        if lab:
            edges[frozenset(("a", "b"))] = lab
        if lbc:
            edges[frozenset(("b", "c"))] = lbc
        if lac:
            edges[frozenset(("a", "c"))] = lac
        yield dg.DefiningGraph(("a", "b", "c"), edges)


def test_three_vertex_enumeration_never_outside():
    for g in three_vertex_graphs():
        assert dg.verdict(g).kind != dg.OUTSIDE_CLASSIFICATION
        assert dg._two_twos_plan(g) == two_twos_plan(g)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    names = [f"v{i}" for i in range(n)]
    edges = {}
    for i in range(n):
        for j in range(i + 1, n):
            label = draw(st.sampled_from((None, 2, 3, 4, 5, 6)))
            if label:
                edges[frozenset((names[i], names[j]))] = label
    return dg.DefiningGraph(tuple(names), edges)


@given(small_graphs())
def test_condition_iii_renaming_invariant(g):
    mapping = {v: f"w{v}" for v in g.vertices}
    assert dg.satisfies_condition_iii(g)[0] == dg.satisfies_condition_iii(renamed(g, mapping))[0]


@given(small_graphs())
def test_isolated_vertex_keeps_condition_iii_verdict(g):
    # condition (iii) is componentwise, so adding an isolated vertex keeps
    # the amalgam route positive (the K x S^1 route is 3-generator only)
    bigger = dg.DefiningGraph(g.vertices + ("isolated",), dict(g.edges))
    if dg.satisfies_condition_iii(g)[0]:
        assert dg.verdict(bigger).kind == dg.COCOMPACTLY_CUBULATED


@given(small_graphs())
def test_component_plans_partition(g):
    assert dg.is_two_dimensional(g) == brute_two_dimensional(g)
    v = dg.verdict(g)
    if v.plan is None or v.plan.times_circle is not None:
        return
    assert len(v.plan.pieces) == len(g.components())


def as_text(vertices, edges):
    return "".join(f"vertex {v}\n" for v in vertices) + "".join(f"edge {u} {v} {m}\n" for u, v, m in edges)


def path_with_a_three(n):
    names = [f"v{i}" for i in range(n)]
    return names, [(names[i], names[i + 1], 3 if i == n // 2 else 2) for i in range(n - 1)]


def even_star(leaves):
    return ["c"] + [f"l{i}" for i in range(leaves)], [("c", f"l{i}", 4) for i in range(leaves)]


def single_edges(k):
    return [x for i in range(k) for x in (f"a{i}", f"b{i}")], [(f"a{i}", f"b{i}", 3) for i in range(k)]


@pytest.mark.parametrize(
    "shape, kind",
    [
        (path_with_a_three(400), dg.NOT_COCOMPACTLY_CUBULATED),
        (even_star(4000), dg.COCOMPACTLY_CUBULATED),
        (single_edges(4000), dg.COCOMPACTLY_CUBULATED),
    ],
    ids=["path-400", "star-4000", "edges-4000"],
)
def test_graph_layer_scales(shape, kind):
    """Parsing and the verdict read the neighbour sets: no shape pays for a
    scan of every edge per vertex or of every vertex triple."""
    text = as_text(*shape)
    start = time.perf_counter()
    v = dg.verdict(dg.parse_graph(text))
    elapsed = time.perf_counter() - start
    assert v.kind == kind
    assert elapsed < 1
