"""The one-pass vertex links, the corner-screened curvature check, the
one-search median certificate, the mask hull and the mask hyperplane queries
against their direct oracles (tests/oracles.py) on Sageev duals, grids,
cubes, hypercube subgraphs with some or all squares, random multigraphs with
random squares, and the complexes of the constructive route, whole and
damaged."""

from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from factories import grid_complex, hypercube_complex, tree_complex
from oracles import (
    brute_crossing,
    brute_facing_triple,
    brute_gate_edge_duality,
    brute_product,
    distance_gates,
    halfspace_hull,
    hamming_isometric,
    head,
    link_walk_npc,
    rescan_vertex_link,
    triple_loop_median,
    union_find_split,
)

from cubartin import constructions as cons
from cubartin import graphs
from cubartin import cube_model as cm
from cubartin import defining_graph as dg
from cubartin import toolkit as tk
from cubartin.cube_model import Edge, make_complex


@st.composite
def duals(draw):
    n = draw(st.integers(2, 7))
    masks = draw(st.lists(st.integers(1, 2 ** (n - 1) - 1), max_size=6, unique=True))
    walls = tuple(frozenset(i + 1 for i in range(n - 1) if m >> i & 1) for m in masks)
    return tk.sageev_dual(tk.Wallspace(n, walls))


grids = st.builds(grid_complex, st.integers(0, 6), st.integers(0, 6))
cubes = st.builds(hypercube_complex, st.integers(0, 5))


def cube_subgraph(k, keep, fill=lambda corners: True):
    """The subgraph of the k-cube induced on the bitmasks in keep, with the
    squares whose four corners are kept and that `fill` accepts."""
    vid = lambda b: f"c{b}"
    edges = [
        Edge(f"e{b}.{i}", vid(b), vid(b | 1 << i))
        for b in sorted(keep) for i in range(k) if not b >> i & 1 and b | 1 << i in keep
    ]
    squares = []
    for b in sorted(keep):
        for i, j in combinations(range(k), 2):
            bi, bj = b | 1 << i, b | 1 << j
            if b >> i & 1 or b >> j & 1 or not {bi, bj, bi | bj} <= keep:
                continue
            if fill((b, i, j)):
                ts = ((f"e{b}.{i}", 1), (f"e{bi}.{j}", 1), (f"e{bj}.{i}", -1), (f"e{b}.{j}", -1))
                squares.append((f"s{b}.{i}.{j}", ts))
    return make_complex([vid(b) for b in sorted(keep)], edges, squares)


@st.composite
def cube_subgraphs(draw):
    k = draw(st.integers(1, 4))
    keep = draw(st.sets(st.integers(0, 2**k - 1), min_size=1))
    if draw(st.booleans()):
        return cube_subgraph(k, keep)
    return cube_subgraph(k, keep, lambda _: draw(st.booleans()))


@st.composite
def multigraphs(draw):
    """Loops and parallel edges allowed; squares are closed walks of four
    edge traversals drawn one step at a time."""
    n = draw(st.integers(1, 5))
    vs = [f"x{i}" for i in range(n)]
    pick = st.integers(0, n - 1)
    edges = [Edge(f"e{i}", vs[draw(pick)], vs[draw(pick)]) for i in range(draw(st.integers(0, 8)))]
    ends = {}
    for e in edges:
        ends[(e.eid, 1)] = (e.src, e.dst)
        ends[(e.eid, -1)] = (e.dst, e.src)
    squares = []
    for s in range(draw(st.integers(0, 6)) if edges else 0):
        walk = [draw(st.sampled_from(sorted(ends)))]
        for step in range(3):
            last = step == 2
            options = [
                t for t in sorted(ends)
                if ends[t][0] == ends[walk[-1]][1] and (not last or ends[t][1] == ends[walk[0]][0])
            ]
            if not options:
                break
            walk.append(draw(st.sampled_from(options)))
        if len(walk) == 4:
            squares.append((f"s{s}", tuple(walk)))
    return make_complex(vs, edges, squares)


@st.composite
def built(draw):
    """Complexes of the constructive route, optionally times a circle."""
    n = draw(st.integers(1, 4))
    vs = "abcd"[:n]
    lines = [f"vertex {v}" for v in vs]
    for u, v in combinations(vs, 2):
        label = draw(st.sampled_from((None, 2, 3, 4, 5, 6)))
        if label is not None:
            lines.append(f"edge {u} {v} {label}")
    plan = dg.verdict(dg.parse_graph("\n".join(lines) + "\n")).plan
    assume(plan is not None)
    return cons.build_from_plan(plan)


def without_prism(c, sid):
    return replace(c, prisms=tuple(p for p in c.prisms if p != sid))


def add_square(c, square):
    return replace(c, squares=c.squares + (square,))


def without_cube(c, cube):
    """c without a Salvetti cube and the cubes above it, so that the rest
    stays closed under subsets."""
    return replace(c, salvetti_cubes=frozenset(x for x in c.salvetti_cubes if not cube <= x))


@st.composite
def salvettis(draw):
    """Salvetti complexes of graphs on three to five vertices, labels 2."""
    vs = "abcde"[: draw(st.integers(3, 5))]
    pairs = draw(st.sets(st.sampled_from(list(combinations(vs, 2))), min_size=1))
    text = "".join(f"vertex {v}\n" for v in vs) + "".join(f"edge {u} {v} 2\n" for u, v in sorted(pairs))
    return cons.build_salvetti(dg.parse_graph(text))


@st.composite
def damaged(draw):
    """A complex with one cell doubled, folded or removed: a square of one
    of the families repeated under a new id, a folded square at an edge end
    of one, a prism of a built complex times a circle, or a 3-cube of a
    Salvetti complex."""
    kind = draw(st.sampled_from(("double", "fold", "prism", "cube")))
    if kind == "prism":
        k = draw(built())
        assume(not k.zloops)  # its own circle would reuse the z names
        c = cons.build_product_with_circle(k)
        assume(c.prisms)
        return without_prism(c, draw(st.sampled_from(c.prisms)))
    if kind == "cube":
        c = draw(salvettis())
        threes = sorted(sorted(x) for x in c.salvetti_cubes if len(x) == 3)
        assume(threes)
        return without_cube(c, frozenset(draw(st.sampled_from(threes))))
    c = draw(st.one_of(duals(), cube_subgraphs(), multigraphs(), built()))
    if kind == "double":
        assume(c.squares)
        sid, ts = draw(st.sampled_from(c.squares))
        return replace(c, squares=c.squares + ((f"{sid}'", ts),))
    # the folded square t1 t2 t2^-1 t1^-1
    assume(c.edges)
    e = draw(st.sampled_from(c.edges))
    t1 = (e.eid, draw(st.sampled_from((1, -1))))
    at = head(c, t1)
    outgoing = [(f.eid, 1) for f in c.edges if f.src == at] + [(f.eid, -1) for f in c.edges if f.dst == at]
    t2 = draw(st.sampled_from(outgoing))
    ts = (t1, t2, (t2[0], -t2[1]), (t1[0], -t1[1]))
    return replace(c, squares=c.squares + (("fold", ts),))


def k4_salvetti():
    k4 = "".join(f"vertex {v}\n" for v in "abcd")
    k4 += "".join(f"edge {u} {v} 2\n" for u, v in combinations("abcd", 2))
    return cons.build_salvetti(dg.parse_graph(k4))


def q3_minus_vertex(fill=True):
    return cube_subgraph(3, set(range(7)), lambda _: fill)


def q3_minus_edge():
    """Q3 without the edge c0-c1 and the two squares on it: Hamming distance
    1 but graph distance 3 between c0 and c1."""
    c = cube_subgraph(3, set(range(8)))
    squares = [(sid, ts) for sid, ts in c.squares if ("e0.0", 1) not in ts and ("e0.0", -1) not in ts]
    return make_complex(c.vertices, [e for e in c.edges if e.eid != "e0.0"], squares)


def hexagon():
    return make_complex(
        [f"h{i}" for i in range(6)], [Edge(f"e{i}", f"h{i}", f"h{(i + 1) % 6}") for i in range(6)], []
    )


def assert_same_link(link, oracle):
    """Ends and corners in the oracle's order."""
    assert link.base == oracle.base
    assert link.link_vertices == oracle.link_vertices
    assert link.link_edges == oracle.link_edges


def loops_and_commutators(n):
    """One vertex with loops v0 ... v(n-1) and every commutator square of
    two of them, but no cube: its link has 8 C(n, 3) empty triangles."""
    names = [f"v{i}" for i in range(n)]
    squares = [
        (f"s.{a}.{b}", ((a, 1), (b, 1), (a, -1), (b, -1))) for a, b in combinations(names, 2)
    ]
    return make_complex(["v0"], [Edge(x, "v0", "v0") for x in names], squares)


class TestLinks:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(multigraphs(), built(), duals(), grids, cube_subgraphs()))
    def test_match_rescan(self, c):
        links = cm.vertex_links(c)
        assert list(links) == list(c.vertices)
        for v in c.vertices:
            assert_same_link(links[v], rescan_vertex_link(c, v))
            assert cm.vertex_link(c, v) is links[v]

    def test_salvetti_and_prism_links(self):
        for c in (k4_salvetti(), cons.build_product_with_circle(cons.build_K_odd(3))):
            for v in c.vertices:
                assert_same_link(cm.vertex_link(c, v), rescan_vertex_link(c, v))
            assert cm.check_npc(c) == []

    def test_memoised_for_the_complex(self):
        c = grid_complex(2, 2)
        assert cm.vertex_links(c) is cm.vertex_links(c)
        assert cm.vertex_links(grid_complex(2, 2)) is not cm.vertex_links(c)


class TestNpc:
    """check_npc names, for each failing vertex in vertex order, the first
    violation of the walk of its rescanned link."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(duals(), cube_subgraphs(), multigraphs(), built(), damaged()))
    def test_matches_link_walk(self, c):
        assert cm.check_npc(c) == link_walk_npc(c)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: without_cube(k4_salvetti(), frozenset("abc")),
            lambda: without_cube(k4_salvetti(), frozenset("bcd")),
            lambda: without_prism(cons.build_product_with_circle(cons.build_K_odd(3)), "s2"),
        ],
    )
    def test_removed_cells(self, make):
        c = make()
        violations = cm.check_npc(c)
        assert violations
        assert violations == link_walk_npc(c)

    def test_one_witness_per_vertex(self):
        # the link of 12 commuting loops without cubes has 531,152 empty
        # cliques; the walk meets this triangle first
        c = loops_and_commutators(12)
        assert cm.check_npc(c) == [
            cm.NpcViolation("v0", "non-flag", "empty triangle [('v0', -1), ('v1', -1), ('v10', -1)]")
        ]
        assert not hasattr(c, "_links_cache")
        c = loops_and_commutators(5)
        assert cm.check_npc(c) == link_walk_npc(c)

    def test_npc_two_dimensional_build_walks_no_link(self):
        c = cons.build_from_plan(dg.verdict(dg.parse_graph("vertex a\nvertex b\nedge a b 401\n")).plan)
        assert cm.check_npc(c) == []
        assert not hasattr(c, "_links_cache")

    @pytest.mark.parametrize(
        "text",
        [
            "".join(f"vertex c{i}\n" for i in range(12))
            + "".join(f"edge c{i} c{j} 2\n" for i, j in combinations(range(12), 2)),
            "vertex c\nvertex u\nvertex v\nedge c u 2\nedge c v 2\nedge u v 101\n",
            "vertex a\nvertex b\nvertex c\nvertex d\nvertex e\n"
            "edge a b 2\nedge b c 2\nedge a c 2\nedge a d 4\nedge c e 6\n",
        ],
        ids=["K12", "times-circle-101", "salvetti-with-leaves"],
    )
    def test_filled_corners_walk_no_link(self, text):
        # the 3-cube corners at a Salvetti base (3^12 signed cliques on K12)
        # and the prism simplices of a product are filled triangles
        c = cons.build_from_plan(dg.verdict(dg.parse_graph(text)).plan)
        assert cm.check_npc(c) == []
        assert not hasattr(c, "_links_cache")
        assert link_walk_npc(c) == []

    @pytest.mark.parametrize(
        "make",
        [
            # every 3-cube of K4 is kept, so each link triangle is filled, but
            # the signed 4-cliques are not
            lambda: replace(k4_salvetti(), salvetti_cubes=k4_salvetti().salvetti_cubes - {frozenset("abcd")}),
            # the square on a and b spells a a b b: its corners give only the
            # sign pairs (a-, b+) and (b-, a+), and join the two ends of a
            lambda: replace(
                cons.build_salvetti(dg.parse_graph("vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 2\nedge a c 2\n")),
                squares=(
                    ("sq.a.b", (("a", 1), ("a", 1), ("b", 1), ("b", 1))),
                    ("sq.a.c", (("a", 1), ("c", 1), ("a", -1), ("c", -1))),
                    ("sq.b.c", (("b", 1), ("c", 1), ("b", -1), ("c", -1))),
                ),
            ),
            # a leaf chain wedged at the base whose x loop also commutes with
            # b: the link triangle on a, x and b is empty
            lambda: add_square(
                cons.build_for_graph(dg.parse_graph("vertex a\nvertex b\nvertex c\nvertex d\n"
                                                    "edge a b 2\nedge b c 2\nedge a c 2\nedge a d 4\n")),
                ("bad", (("a.d.x", 1), ("b", 1), ("a.d.x", -1), ("b", -1))),
            ),
            # a prism over a square on z itself, and a square z z b b that
            # joins the two ends of z: its simplices (a-, z+, z-) and
            # (a+, z-, z+) are cliques that reuse z
            lambda: make_complex(
                ["v"],
                [Edge(x, "v", "v") for x in "abz"],
                [
                    ("s", (("a", 1), ("z", 1), ("a", -1), ("z", -1))),
                    ("t", (("z", 1), ("z", 1), ("b", 1), ("b", 1))),
                ],
                prisms=["s"],
                zloops=[("v", "z")],
            ),
        ],
        ids=["K4-without-4-cube", "non-commutator-square", "leaf-chain-at-base", "prism-on-its-z-loop"],
    )
    def test_filled_corner_failures(self, make):
        c = make()
        violations = cm.check_npc(c)
        assert violations
        assert violations == link_walk_npc(c)


class TestMedian:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(duals(), grids, cubes, cube_subgraphs(), multigraphs()))
    def test_matches_triple_loop(self, c):
        assert tk.is_median(c) == triple_loop_median(c)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(duals(), grids, cubes, cube_subgraphs(), multigraphs(), built()), st.data())
    def test_structure_matches_union_find_split(self, c, data):
        median = triple_loop_median(c)
        try:
            s = tk.CubicalStructure(c)
        except tk.NotCat0Error:
            assert not median
            return
        assert median
        # what the certificate's three checks imply (see its docstring)
        assert hamming_isometric(c)
        adj = graphs.adjacency(c.vertices, [(e.src, e.dst) for e in c.edges])
        for u in c.vertices:
            dist, _ = graphs.bfs(adj, u)
            assert {v: s.distance(u, v) for v in c.vertices} == dist
        coords, hyperplanes = union_find_split(c)
        assert s.coords == coords
        assert [h.hid for h in s.hyperplanes] == list(range(len(hyperplanes)))
        sides = []
        for h in s.hyperplanes:
            plus = frozenset(v for v, x in s.coords.items() if x >> h.hid & 1)
            sides.append((frozenset(c.vertices) - plus, plus))
        assert [(h.edges, *side) for h, side in zip(s.hyperplanes, sides)] == hyperplanes
        # the mask queries against the split's frozenset sides
        split_sides = [(minus, plus) for _, minus, plus in hyperplanes]
        for h1, h2 in product(s.hyperplanes, repeat=2):
            assert s.crossing(h1, h2) == brute_crossing(split_sides, h1.hid, h2.hid)
        pp = s.product_decompose()
        assert (pp.classes, pp.factors) == brute_product(c)
        assert s.has_facing_triple() == brute_facing_triple(c)
        vertex_sets = st.sets(st.sampled_from(sorted(c.vertices)), min_size=1)
        v1, v2 = data.draw(vertex_sets), data.draw(vertex_sets)
        gp = tk.GatePair(frozenset(v1), frozenset(v2), frozenset(), {})
        assert s.check_gate_edge_duality(gp) == brute_gate_edge_duality(c, v1, v2)
        y1, y2 = s.convex_hull(v1), s.convex_hull(v2)
        gp = s.gates(y1, y2)
        assert gp == distance_gates(c, y1, y2)
        assert list(gp.matching) == sorted(gp.v1)
        assert s.check_gate_edge_duality(gp) == (True, None)

    @pytest.mark.parametrize(
        "make, median",
        [
            (lambda: cube_subgraph(3, set(range(8))), True),
            (q3_minus_vertex, False),
            (q3_minus_edge, False),
            (lambda: q3_minus_vertex(fill=False), False),
            (hexagon, False),
            (lambda: grid_complex(1, 2), True),  # a hexagon cut by one chord into two squares
            (lambda: cube_subgraph(2, {0, 1, 2, 3}, lambda _: False), False),
            (lambda: tree_complex([("o", "x"), ("o", "y"), ("y", "z")]), True),
        ],
    )
    def test_named_cases(self, make, median):
        c = make()
        assert tk.is_median(c) is median
        assert triple_loop_median(c) is median

    def test_graph_distance_above_hamming_is_a_nonconvex_carrier(self):
        # the edge and distinctness checks pass; the carrier check refuses
        with pytest.raises(tk.NotCat0Error, match=r"carrier of hyperplane \d+ is not convex"):
            tk.CubicalStructure(q3_minus_edge())
        assert not hamming_isometric(q3_minus_edge())


class TestHull:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(duals(), grids, cubes), st.data())
    def test_matches_halfspace_intersection(self, c, data):
        s = tk.CubicalStructure(c)
        vs = data.draw(st.sets(st.sampled_from(sorted(c.vertices)), min_size=1))
        hull = s.convex_hull(vs)
        assert hull == halfspace_hull(c, vs)
        assert s.is_convex(hull)
