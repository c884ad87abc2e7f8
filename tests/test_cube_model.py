from itertools import combinations

import networkx as nx
import pytest
from conftest import link_graph
from oracles import check_local_convexity

from cubartin import cube_model as cm
from cubartin import constructions as cons
from cubartin.cube_model import Edge, make_complex
from cubartin.presentations import extract_presentation
from cubartin.snf import abelian_invariants
from cubartin.words import parse_word, invert


def rotations(w):
    return [w[i:] + w[:i] for i in range(max(len(w), 1))]


def torus():
    return make_complex(
        ["v"],
        [Edge("a", "v", "v"), Edge("b", "v", "v")],
        [("s", (("a", 1), ("b", 1), ("a", -1), ("b", -1)))],
    )


def folded_square():
    # boundary word a a a^-1 a^-1 at one vertex: fails the link condition
    return make_complex(
        ["v"],
        [Edge("a", "v", "v")],
        [("s", (("a", 1), ("a", 1), ("a", -1), ("a", -1)))],
    )


def single_square():
    return make_complex(
        ["p", "q", "r", "s"],
        [Edge("e1", "p", "q"), Edge("e2", "q", "r"), Edge("e3", "r", "s"), Edge("e4", "s", "p")],
        [("s", (("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1)))],
    )


class TestValidation:
    def test_open_boundary_rejected(self):
        with pytest.raises(ValueError, match="does not close"):
            make_complex(
                ["p", "q"],
                [Edge("e", "p", "q")],
                [("s", (("e", 1), ("e", 1), ("e", 1), ("e", 1)))],
            )

    def test_salvetti_cube_needs_faces(self):
        with pytest.raises(ValueError, match="misses 2-face"):
            make_complex(
                ["v"],
                [Edge(x, "v", "v") for x in "abc"],
                [("s", (("a", 1), ("b", 1), ("a", -1), ("b", -1)))],
                salvetti_cubes=[{"a", "b", "c"}],
                base_vertex="v",
            )

    def test_salvetti_cubes_closed_under_subsets(self):
        # every 2-face of the 4-cube is a square, but its 3-face abc is missing
        with pytest.raises(ValueError, match="salvetti cubes not closed under subsets"):
            make_complex(
                ["v"],
                [Edge(x, "v", "v") for x in "abcd"],
                [(f"s{x}{y}", ((x, 1), (y, 1), (x, -1), (y, -1))) for x, y in combinations("abcd", 2)],
                salvetti_cubes=[set("abcd"), set("abd"), set("acd"), set("bcd")],
                base_vertex="v",
            )

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            make_complex(["v"], [Edge("e", "v", "w")], [])

    def test_duplicate_square_id(self):
        with pytest.raises(ValueError, match="duplicate square ids"):
            make_complex(
                ["v"],
                [Edge("a", "v", "v"), Edge("b", "v", "v")],
                [
                    ("s", (("a", 1), ("b", 1), ("a", -1), ("b", -1))),
                    ("s", (("b", 1), ("a", 1), ("b", -1), ("a", -1))),
                ],
            )


class TestLinks:
    def test_torus_link_is_4_cycle(self):
        link = cm.vertex_link(torus(), "v")
        g = link_graph(link)
        assert sorted(g.nodes) == [("a", -1), ("a", 1), ("b", -1), ("b", 1)]
        assert nx.is_isomorphic(g, nx.cycle_graph(4))

    def test_single_square_corner(self):
        link = cm.vertex_link(single_square(), "q")
        assert len(link.link_edges) == 1
        (cell, pair) = link.link_edges[0]
        assert pair == frozenset({("e1", -1), ("e2", 1)})

    def test_K3_links_are_K23(self):
        c = cons.build_K_odd(3)
        for v in c.vertices:
            g = link_graph(cm.vertex_link(c, v))
            assert nx.is_isomorphic(g, nx.complete_bipartite_graph(2, 3))

    def test_unknown_vertex(self):
        with pytest.raises(ValueError, match="unknown vertex"):
            cm.vertex_link(torus(), "nope")

    def test_end_count_is_twice_edges(self):
        for c in (torus(), single_square(), cons.build_K_odd(5), cons.build_K_even(6, "a")):
            total = sum(len(cm.vertex_link(c, v).link_vertices) for v in c.vertices)
            assert total == 2 * len(c.edges)


class TestNpc:
    def test_K5_ok(self):
        assert cm.check_npc(cons.build_K_odd(5)) == []

    def test_folded_square_fails(self):
        violations = cm.check_npc(folded_square())
        assert violations
        assert {v.kind for v in violations} <= {"loop", "bigon"}

    def test_doubled_square_bigon(self):
        c = make_complex(
            ["v"],
            [Edge("a", "v", "v"), Edge("b", "v", "v")],
            [
                ("s1", (("a", 1), ("b", 1), ("a", -1), ("b", -1))),
                ("s2", (("a", 1), ("b", 1), ("a", -1), ("b", -1))),
            ],
        )
        assert any(v.kind == "bigon" for v in cm.check_npc(c))

    def test_salvetti_triangle_ok(self):
        import cubartin.defining_graph as dg

        g = dg.parse_graph(
            "vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 2\nedge a c 2\n"
        )
        assert cm.check_npc(cons.build_salvetti(g)) == []

    def test_missing_3_cube_fails_flag(self):
        # 3-torus 2-skeleton without the solid cube has an empty triangle
        c = make_complex(
            ["v"],
            [Edge(x, "v", "v") for x in "abc"],
            [
                ("sab", (("a", 1), ("b", 1), ("a", -1), ("b", -1))),
                ("sbc", (("b", 1), ("c", 1), ("b", -1), ("c", -1))),
                ("sac", (("a", 1), ("c", 1), ("a", -1), ("c", -1))),
            ],
        )
        assert any(v.kind == "non-flag" for v in cm.check_npc(c))


class TestEuler:
    def test_K_pieces_are_flat(self):
        assert cm.euler_characteristic(cons.build_K_odd(3)) == 0
        assert cm.euler_characteristic(cons.build_K_odd(5)) == 0
        assert cm.euler_characteristic(cons.build_K_even(8, "a")) == 0

    def test_disc(self):
        assert cm.euler_characteristic(single_square()) == 1


class TestExtraction:
    def test_circle(self):
        c = make_complex(["v"], [Edge("a", "v", "v")], [])
        p = extract_presentation(c, frozenset())
        assert p.generators == ("a",)
        assert p.relators == ()

    def test_K3_composite_relator(self):
        c = cons.build_K_odd(3)
        p = extract_presentation(c, frozenset({"t"}))
        assert set(p.generators) == {"a", "b"}
        (rel,) = p.relators
        expected = parse_word("abaBAB")
        variants = set(rotations(expected)) | set(rotations(invert(expected)))
        assert rel in variants

    def test_K6_composite_relator(self):
        c = cons.build_K_even(6, "a")
        p = extract_presentation(c, frozenset())
        (rel,) = p.relators
        expected = parse_word("axxxAXXX")
        variants = set(rotations(expected)) | set(rotations(invert(expected)))
        assert rel in variants

    def test_not_a_spanning_tree(self):
        with pytest.raises(ValueError, match="spanning tree"):
            extract_presentation(cons.build_K_odd(3), frozenset({"a", "b"}))

    def test_abelianization_tree_independent(self):
        c = cons.build_K_odd(5)
        non_loops = [e.eid for e in c.edges if not e.is_loop]
        results = set()
        for eid in non_loops:
            p = extract_presentation(c, frozenset({eid}))
            results.add(abelian_invariants(p.exponent_matrix(), len(p.generators)))
        assert len(results) == 1


class TestLocalConvexity:
    def test_a_circle_in_K4_even(self):
        c = cons.build_K_even(4, "a")
        assert check_local_convexity(c, [("a", 1)])

    def test_a_circle_in_torus(self):
        assert check_local_convexity(torus(), [("a", 1)])

    def test_corner_joined_circle(self):
        c = make_complex(
            ["v"],
            [Edge("a", "v", "v"), Edge("x", "v", "v")],
            [("s", (("a", 1), ("a", 1), ("x", 1), ("x", -1)))],
        )
        assert not check_local_convexity(c, [("a", 1)])

    def test_open_path_rejected(self):
        with pytest.raises(ValueError, match="not closed"):
            check_local_convexity(cons.build_K_odd(3), [("a", 1)])


class TestSerialization:
    @pytest.mark.parametrize(
        "c",
        [
            torus(),
            single_square(),
            cons.build_K_odd(5),
            cons.build_K_even(6, "a"),
        ],
        ids=["torus", "square", "K5", "K6a"],
    )
    def test_round_trip(self, c):
        text = cm.complex_text(c)
        again = cm.parse_complex(text)
        assert cm.complex_text(again) == text
        assert again == c

    def test_round_trip_with_cubes_and_prisms(self):
        import cubartin.defining_graph as dg

        g = dg.parse_graph(
            "vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 2\nedge a c 2\n"
        )
        c = cons.build_salvetti(g)
        assert cm.parse_complex(cm.complex_text(c)) == c
        k = cons.build_product_with_circle(cons.build_K_odd(3))
        assert cm.parse_complex(cm.complex_text(k)) == k

    def test_missing_header(self):
        with pytest.raises(cm.ComplexParseError, match="header"):
            cm.parse_complex("vertex v\n")

    def test_bad_traversal(self):
        with pytest.raises(cm.ComplexParseError):
            cm.parse_complex("cubecomplex 1\nvertex v\nedge e v v\nsquare s e e e e\n")
