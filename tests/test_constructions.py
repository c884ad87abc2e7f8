from itertools import combinations
from unittest import mock

import networkx as nx
import pytest
from conftest import link_graph
from oracles import check_local_convexity
from hypothesis import given, settings
from hypothesis import strategies as st

from cubartin import cli
from cubartin import constructions as cons
from cubartin import cube_model as cm
from cubartin import defining_graph as dg
from cubartin.artin_algebra import DihedralContext
from cubartin.snf import abelian_invariants
from cubartin.words import free_reduce, concat, invert


def G(text):
    return dg.parse_graph(text)


def relator_matches_artin(relator, n):
    """The composite relator must hold in the dihedral Artin group A_n.

    Odd pieces present on the standard generators a, b; even pieces present
    on a and x = ab, so x is expanded before deciding triviality.
    """
    from cubartin.words import substitute, parse_word

    ctx = DihedralContext(n)
    gens = sorted({g for g, _ in relator})
    assert len(gens) == 2
    if set(gens) == {"a", "b"}:
        word = relator
    else:
        (x,) = set(gens) - {"a"}
        word = substitute(relator, {x: parse_word("ab")})
    return ctx.equal(word, ())


class TestKOdd:
    def test_counts_and_links(self):
        c = cons.build_K_odd(3)
        assert (len(c.vertices), len(c.edges), len(c.squares)) == (2, 5, 3)
        for v in c.vertices:
            g = link_graph(cm.vertex_link(c, v))
            assert nx.is_isomorphic(g, nx.complete_bipartite_graph(2, 3))

    def test_n5_edge_count(self):
        c = cons.build_K_odd(5)
        assert len(c.edges) == 7
        assert cm.euler_characteristic(c) == 0

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            cons.build_K_odd(4)
        with pytest.raises(ValueError):
            cons.build_K_odd(1)


class TestKEven:
    def test_torus_case(self):
        c = cons.build_K_even(2, "a")
        assert nx.is_isomorphic(
            link_graph(cm.vertex_link(c, c.vertices[0])), nx.cycle_graph(4)
        )

    def test_n6_cells(self):
        c = cons.build_K_even(6, "g", prefix="")
        assert {e.eid for e in c.edges} == {"g", "x", "y1", "y2"}
        assert len(c.squares) == 3

    def test_g_circle_locally_convex(self):
        for n in (2, 4, 8):
            c = cons.build_K_even(n, "a")
            assert check_local_convexity(c, [("a", 1)])

    def test_rejects_odd(self):
        with pytest.raises(ValueError):
            cons.build_K_even(3, "a")


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_K_odd_family(n):
    c = cons.build_K_odd(n)
    assert cm.check_npc(c) == []
    assert cm.euler_characteristic(c) == 0
    for v in c.vertices:
        assert nx.is_isomorphic(
            link_graph(cm.vertex_link(c, v)), nx.complete_bipartite_graph(2, n)
        )
    p = cons.extracted_presentation(c)
    (rel,) = p.relators
    assert relator_matches_artin(rel, n)


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_K_even_family(n):
    c = cons.build_K_even(n, "a")
    assert cm.check_npc(c) == []
    assert cm.euler_characteristic(c) == 0
    assert nx.is_isomorphic(
        link_graph(cm.vertex_link(c, c.vertices[0])), nx.complete_bipartite_graph(2, n)
    )
    p = cons.extracted_presentation(c)
    (rel,) = p.relators
    assert relator_matches_artin(rel, n)


class TestSalvetti:
    def test_labels_must_be_two(self):
        with pytest.raises(ValueError, match="labels 2"):
            cons.build_salvetti(G("vertex a\nvertex b\nedge a b 3\n"))

    def test_triangle_three_torus(self):
        c = cons.build_salvetti(
            G("vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 2\nedge a c 2\n")
        )
        assert len(c.salvetti_cubes) == 1
        assert cm.check_npc(c) == []
        assert cm.euler_characteristic(c) == 0

    def test_single_vertex_circle(self):
        c = cons.build_salvetti(G("vertex a\n"))
        assert len(c.edges) == 1 and not c.squares


class TestBuildForGraph:
    def test_path_4_6(self):
        c = cons.build_for_graph(G("vertex a\nvertex b\nvertex c\nedge a b 4\nedge b c 6\n"))
        assert (len(c.vertices), len(c.edges), len(c.squares)) == (1, 6, 5)
        assert cm.euler_characteristic(c) == 0
        assert cm.check_npc(c) == []

    def test_star_4_4_4(self):
        c = cons.build_for_graph(
            G(
                "vertex c\nvertex x\nvertex y\nvertex z\n"
                "edge c x 4\nedge c y 4\nedge c z 4\n"
            )
        )
        assert cm.check_npc(c) == []

    def test_single_odd_edge_delegates(self):
        c = cons.build_for_graph(G("vertex a\nvertex b\nedge a b 3\n"))
        assert len(c.vertices) == 2 and len(c.squares) == 3

    def test_refuses_non_iii(self):
        with pytest.raises(ValueError, match="condition"):
            cons.build_for_graph(
                G("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\nedge a c 2\n")
            )

    def test_glued_circle_locally_convex(self):
        g = G("vertex a\nvertex b\nvertex c\nedge a b 4\nedge b c 6\n")
        c = cons.build_for_graph(g)
        # the shared b-circle stays locally convex in the amalgam
        assert check_local_convexity(c, [("b", 1)])

    def test_abelianization_matches_artin(self):
        for text in (
            "vertex a\nvertex b\nvertex c\nedge a b 4\nedge b c 6\n",
            "vertex a\nvertex b\nedge a b 7\n",
            "vertex a\nvertex b\nvertex c\nvertex d\nedge a b 4\nedge a c 6\nedge a d 8\n",
            "vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 2\nedge a c 2\n",
        ):
            g = G(text)
            c = cons.build_for_graph(g)
            p = cons.extracted_presentation(c)
            artin = cons.artin_presentation(g)
            assert abelian_invariants(
                p.exponent_matrix(), len(p.generators)
            ) == abelian_invariants(artin.exponent_matrix(), len(artin.generators))


class TestProductWithCircle:
    def test_circle_times_circle_is_torus(self):
        circle = cm.make_complex(["v"], [cm.Edge("a", "v", "v")], [])
        c = cons.build_product_with_circle(circle)
        assert len(c.edges) == 2 and len(c.squares) == 1
        assert cm.check_npc(c) == []

    def test_K3_times_circle_npc(self):
        c = cons.build_product_with_circle(cons.build_K_odd(3))
        assert cm.check_npc(c) == []
        assert len(c.prisms) == 3

    def test_torus_times_circle_gets_cube(self):
        torus = cm.make_complex(
            ["v"],
            [cm.Edge("a", "v", "v"), cm.Edge("b", "v", "v")],
            [("s", (("a", 1), ("b", 1), ("a", -1), ("b", -1)))],
            base_vertex="v",
        )
        c = cons.build_product_with_circle(torus)
        assert c.salvetti_cubes == frozenset({frozenset({"a", "b", "z"})})
        assert cm.check_npc(c) == []

    def test_rejects_non_npc(self):
        bad = cm.make_complex(
            ["v"],
            [cm.Edge("a", "v", "v")],
            [("s", (("a", 1), ("a", 1), ("a", -1), ("a", -1)))],
        )
        with pytest.raises(ValueError, match="link condition"):
            cons.build_product_with_circle(bad)

    def test_322_plan_abelianization(self):
        g = G("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 2\nedge a c 2\n")
        plan = dg.verdict(g).plan
        c = cons.build_from_plan(plan)
        assert cm.check_npc(c) == []
        p = cons.extracted_presentation(c)
        assert abelian_invariants(p.exponent_matrix(), len(p.generators)) == ((), 2)

    def test_product_adds_z_to_abelianization(self):
        for base in (cons.build_K_odd(3), cons.build_K_even(4, "a")):
            c = cons.build_product_with_circle(base)
            p0 = cons.extracted_presentation(base)
            p1 = cons.extracted_presentation(c)
            t0, r0 = abelian_invariants(p0.exponent_matrix(), len(p0.generators))
            t1, r1 = abelian_invariants(p1.exponent_matrix(), len(p1.generators))
            assert (t1, r1) == (t0, r0 + 1)


def same_abelianization(g, c):
    p = cons.extracted_presentation(c)
    artin = cons.artin_presentation(g)
    return abelian_invariants(p.exponent_matrix(), len(p.generators)) == abelian_invariants(
        artin.exponent_matrix(), len(artin.generators)
    )


# the vertex c.l.x once shared its name with the chain edge of the c-l leaf piece
COLLIDING = (
    "vertex c\nvertex l\nvertex k\nvertex {x}\n"
    "edge c l 4\nedge c k 2\nedge k {x} 2\nedge c {x} 2\n"
)


class TestGeneratedIdsCannotCollide:
    def test_parser_refuses_a_dotted_name(self):
        with pytest.raises(dg.GraphParseError, match="'c.l.x' contains '.'"):
            G(COLLIDING.format(x="c.l.x"))

    def test_merge_refuses_a_reused_edge_id(self):
        g = dg.DefiningGraph(
            ("c", "l", "k", "c.l.x"),
            {
                frozenset(("c", "l")): 4,
                frozenset(("c", "k")): 2,
                frozenset(("k", "c.l.x")): 2,
                frozenset(("c", "c.l.x")): 2,
            },
        )
        with pytest.raises(ValueError, match="edge id c.l.x names two different edges"):
            cons.build_for_graph(g)

    def test_dot_free_name_builds(self):
        g = G(COLLIDING.format(x="clx"))
        c = cons.build_for_graph(g)
        assert cm.check_npc(c) == []
        assert same_abelianization(g, c)


# names that generated ids use without their dotted prefixes
ADVERSARIAL = (
    "a", "b", "c", "g", "t", "x", "z", "v0", "v1", "sq", "zs", "s1", "s2",
    "e1", "e2", "y1", "y2", "vertex", "edge",
)


@st.composite
def condition_iii_graphs(draw):
    n = draw(st.integers(1, 6))
    name = st.sampled_from(ADVERSARIAL) | st.from_regex(r"[A-Za-z0-9_-]{1,4}", fullmatch=True)
    names = draw(st.lists(name, min_size=n, max_size=n, unique=True))
    pairs = [frozenset(p) for p in combinations(names, 2) if draw(st.booleans())]
    shape = dg.DefiningGraph(tuple(names), {p: 2 for p in pairs})
    edges = {}
    for comp in shape.components():
        tags = dg.classify_edges(comp)
        for pair in comp.edges:
            if len(comp.edges) == 1:
                edges[pair] = draw(st.integers(2, 9))
            elif tags[pair] == dg.LEAF:
                edges[pair] = draw(st.sampled_from((2, 4, 6, 8)))
            else:
                edges[pair] = 2
    return dg.DefiningGraph(tuple(names), edges)


@settings(max_examples=60, deadline=None)
@given(condition_iii_graphs())
def test_condition_iii_graphs_build_under_any_dot_free_names(g):
    g = dg.parse_graph(dg.graph_text(g))
    assert dg.satisfies_condition_iii(g)[0]
    c = cons.build_for_graph(g)
    assert cm.check_npc(c) == []
    assert same_abelianization(g, c)


def test_wedge_of_components():
    g = G(
        "vertex a\nvertex b\nvertex c\nvertex d\nvertex e\n"
        "edge a b 3\nedge c d 4\n"
    )
    c = cons.build_for_graph(g)
    assert cm.check_npc(c) == []
    p = cons.extracted_presentation(c)
    artin = cons.artin_presentation(g)
    assert abelian_invariants(p.exponent_matrix(), len(p.generators)) == abelian_invariants(
        artin.exponent_matrix(), len(artin.generators)
    )


def test_fallback_spanning_tree_on_foreign_complex():
    """No t-edges: the tree is a BFS from the least vertex, neighbours taken in
    order of first insertion, the last edge id of a parallel pair standing for
    it and loops ignored."""
    c = cm.make_complex(
        ["c", "a", "d", "b"],
        [
            ("e1", "a", "b"),
            ("e2", "b", "a"),
            ("e3", "b", "c"),
            ("e4", "a", "c"),
            ("l", "a", "a"),
            ("e5", "c", "d"),
            ("e6", "d", "c"),
            ("e7", "b", "d"),
        ],
        [
            ("s1", (("e1", 1), ("e3", 1), ("e4", -1), ("l", 1))),
            ("s2", (("e7", 1), ("e6", 1), ("e4", -1), ("e1", 1))),
        ],
    )
    assert cons.canonical_spanning_tree(c) == frozenset({"e2", "e4", "e7"})
    p = cons.extracted_presentation(c)
    assert p.generators == ("e1", "e3", "l", "e5", "e6")
    assert p.relators == (
        (("e1", 1), ("e3", 1), ("l", 1)),
        (("e6", 1), ("e1", 1)),
    )


def z_sides_flipped(signs):
    """_product_cells with the z sides of the first chain edge's z-square
    given the signs (z_dst, z_src): (1, -1) as built."""
    real = cons._product_cells

    def cells(k, z_name):
        out = real(k, z_name)
        e = min(out["internal_edges"])
        squares = []
        for sid, ts in out["squares"]:
            if sid == f"zs.{e}":
                (_, _), (z_dst, _), (_, _), (z_src, _) = ts
                ts = ((e, 1), (z_dst, signs[0]), (e, -1), (z_src, signs[1]))
            squares.append((sid, ts))
        return {**out, "squares": squares}

    return cells


@pytest.mark.parametrize("m", [5, 6])
@pytest.mark.parametrize(
    "signs, builds",
    # e z e^-1 z is another relation; e z^-1 e^-1 z is the built one inverted
    [((1, 1), False), ((-1, 1), True)],
    ids=["one-side-reversed", "both-sides-reversed"],
)
def test_z_rule_sets_aside_only_the_exact_z_square(m, signs, builds, tmp_path, capsys):
    graph = tmp_path / "graph.txt"
    graph.write_text(f"vertex c\nvertex u\nvertex v\nedge c u 2\nedge c v 2\nedge u v {m}\n")
    out = tmp_path / "out.complex"
    with mock.patch.object(cons, "_product_cells", z_sides_flipped(signs)):
        code = cli.main(["build", "--graph", str(graph), "-o", str(out)])
    err = capsys.readouterr().err
    if builds:
        assert (code, err) == (0, "")
        assert out.exists()
    else:
        assert code == 2
        assert not out.exists()
        assert "error: the relators of chain edges u.v." in err and "do not form a disc" in err
