"""The disc-walking Tietze elimination against the rescanning one
(tests/oracles.py): on every component that is a disc, the same generators
and the same relators, in the same order; on any other, a ValueError.  The
cases are random relator lists and the presentations of every plan shape
and of foreign complexes."""

import time
from itertools import combinations
from unittest import mock

import networkx as nx
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import rescanning_tietze_eliminate

from cubartin import constructions as cons
from cubartin import defining_graph as dg
from cubartin import graphs
from cubartin import presentations as pr
from cubartin.cube_model import Edge, make_complex
from cubartin.snf import abelian_invariants
from cubartin.words import free_reduce, parse_word


def both(gens, relators, candidates):
    new = pr._tietze_eliminate(list(gens), list(relators), set(candidates))
    old = rescanning_tietze_eliminate(list(gens), list(relators), set(candidates))
    return (list(new[0]), list(new[1])), (list(old[0]), list(old[1]))


def not_a_disc(relators, candidates) -> bool:
    """Whether the relators, joined by the candidates they share, have a
    component that is not a disc: one in which some candidate does not
    occur exactly twice, in two different relators, or whose relators and
    candidates do not form a tree (a multigraph forest check)."""
    places = {}
    for i, r in enumerate(relators):
        for g, _ in r:
            if g in candidates:
                places.setdefault(g, []).append(i)
    if any(len(p) != 2 or p[0] == p[1] for p in places.values()):
        return True
    glued = nx.MultiGraph(tuple(p) for p in places.values())
    return len(glued) > 0 and not nx.is_forest(glued)


def match_or_refuse(gens, relators, candidates):
    if not_a_disc(relators, candidates):
        with pytest.raises(ValueError, match="do not form a disc"):
            pr._tietze_eliminate(list(gens), list(relators), set(candidates))
    else:
        new, old = both(gens, relators, candidates)
        assert new == old


@st.composite
def relator_lists(draw):
    """Freely reduced relators over at most four letters, short enough that
    a letter often occurs twice in one relator, with a random candidate set."""
    gens = "abcd"[: draw(st.integers(1, 4))]
    letter = st.tuples(st.sampled_from(gens), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=8).map(lambda w: free_reduce(tuple(w))), max_size=6))
    candidates = draw(st.sets(st.sampled_from(gens)))
    return gens, relators, candidates


@settings(max_examples=800, deadline=None)
@given(relator_lists())
# a rotation that is not reduced: b a^-1 b^-1 solved for a gives a = b^-1 b
@example(("abc", [parse_word("bAB"), parse_word("ac")], {"a"}))
# a candidate in three relators
@example(("ab", [parse_word("ab"), parse_word("ab"), parse_word("a")], {"a", "b"}))
# a relator that becomes empty
@example(("ab", [parse_word("ab"), parse_word("ab")], {"a"}))
def test_random_relators_match_rescanning(case):
    match_or_refuse(*case)


def test_unreduced_rotation_is_reduced():
    (gens, relators), _ = both("abc", [parse_word("bAB"), parse_word("ac")], {"a"})
    assert (gens, relators) == (["b", "c"], [parse_word("c")])


@pytest.mark.parametrize(
    "case, result",
    [
        # a = B from "ab"; splicing it into "bac" cancels b B, and b is no candidate
        (("abc", ["ab", "bac"], {"a"}), (["b", "c"], ["c"])),
    ],
)
def test_cancelled_letters_match_rescanning(case, result):
    gens, relators, candidates = case
    new, old = both(gens, [parse_word(r) for r in relators], candidates)
    assert new == old == (result[0], [parse_word(r) for r in result[1]])


def extracted_both_ways(c, tree):
    new = pr.extract_presentation(c, tree)
    with mock.patch.object(pr, "_tietze_eliminate", rescanning_tietze_eliminate):
        old = pr.extract_presentation(c, tree)
    return new, old


def abelianization(p):
    return abelian_invariants(p.exponent_matrix(), len(p.generators))


def times_circle(m):
    text = f"vertex c\nvertex u\nvertex v\nedge c u 2\nedge c v 2\nedge u v {m}\n"
    return cons.build_from_plan(dg.verdict(dg.parse_graph(text)).plan)


@st.composite
def plan_graphs(draw):
    """One shape, or a wedge of two: odd and even edges, stars, Salvetti
    cliques with leaves, and the three-generator graphs built times a circle."""

    def shape(prefix):
        kind = draw(st.sampled_from(("odd", "even", "star", "salvetti", "circle")))
        a, b, c = (f"{prefix}{x}" for x in "abc")
        if kind == "odd":
            return [a, b], [(a, b, draw(st.integers(1, 30)) * 2 + 1)]
        if kind == "even":
            return [a, b], [(a, b, draw(st.integers(1, 30)) * 2)]
        if kind == "circle":
            return [a, b, c], [(a, b, 2), (a, c, 2), (b, c, draw(st.integers(3, 25)))]
        leaves = [f"{prefix}l{i}" for i in range(draw(st.integers(1 if kind == "star" else 0, 4)))]
        core = [a] if kind == "star" else [a, b, c]
        edges = [(u, v, 2) for u, v in combinations(core, 2)]
        edges += [(draw(st.sampled_from(core)), leaf, draw(st.integers(1, 8)) * 2) for leaf in leaves]
        return core + leaves, edges

    pieces = [shape("p"), *([shape("q")] if draw(st.booleans()) else [])]
    vertices = [v for vs, _ in pieces for v in vs]
    edges = [e for _, es in pieces for e in es]
    text = "".join(f"vertex {v}\n" for v in vertices) + "".join(f"edge {u} {v} {m}\n" for u, v, m in edges)
    plan = dg.verdict(dg.parse_graph(text)).plan
    assume(plan is not None)
    return plan


@settings(max_examples=150, deadline=None)
@given(plan_graphs())
def test_plan_shapes_match_rescanning(plan):
    c = cons.build_from_plan(plan)
    tree = cons.canonical_spanning_tree(c)
    new, old = extracted_both_ways(c, tree)
    assert new == old
    # with every z-square kept, the rescanning elimination presents the same
    # abelian group
    with mock.patch.object(pr, "_z_squares", lambda c, candidates: {}), mock.patch.object(
        pr, "_tietze_eliminate", rescanning_tietze_eliminate
    ):
        assert abelianization(pr.extract_presentation(c, tree)) == abelianization(new)


def test_z_rule_keeps_the_z_squares_of_tree_edges():
    # with a chain edge in the tree, its z-square identifies z.v0 with z.v1
    c = times_circle(5)
    artin = abelianization(cons.artin_presentation(dg.parse_graph("vertex a\nvertex b\nvertex c\nedge a b 5\n")))
    for e in c.edges:
        if not e.is_loop:
            assert abelianization(pr.extract_presentation(c, {e.eid})) == artin


def test_z_rule_sets_aside_the_z_squares_of_chain_edges_only():
    # K_5 x S^1: the strip relator, then the z-squares of u, v and the tree
    # edge, as built; the chain edges' z-squares are gone
    p = cons.extracted_presentation(times_circle(5))
    z0, z1 = "c.v0", "c.u.v.v1"
    assert p.generators == ("u", "v", z0, z1)
    assert p.relators[1:] == (
        (("u", 1), (z1, 1), ("u", -1), (z0, -1)),
        (("v", 1), (z0, 1), ("v", -1), (z1, -1)),
        ((z1, 1), (z0, -1)),
    )
    assert (len(p.relators), sum(map(len, p.relators))) == (4, 20)


def one_vertex(loops, squares):
    edges = [Edge(x, "v", "v") for x in loops + "z"]
    return make_complex(["v"], edges, squares, zloops=[("v", "z")], internal_edges={"e"})


def padded(x, y):
    """A square that reduces to x y^-1."""
    return (f"s.{x}.{y}", ((x, 1), (y, -1), (y, 1), (y, -1)))


def z_square(x):
    return (f"zs.{x}", ((x, 1), ("z", 1), (x, -1), ("z", -1)))


@pytest.mark.parametrize(
    "c",
    [
        # e = a = b, where a and b have no z-squares: only that of e says
        # they commute with z
        one_vertex("abe", [padded("e", "a"), padded("e", "b"), z_square("e")]),
        # e occurs in no other square, so its z-square is all that binds it
        one_vertex("ae", [z_square("e"), z_square("a")]),
    ],
    ids=["no-z-square-on-a-and-b", "e-nowhere-else"],
)
def test_z_rule_keeps_a_z_square_that_does_not_follow(c):
    # setting it aside would change the group; kept, it holds e twice
    with pytest.raises(ValueError, match="chain edges e do not form a disc"):
        pr.extract_presentation(c, frozenset())


@st.composite
def foreign_complexes(draw):
    """A connected multigraph with random closed 4-walks as squares, a random
    set of internal edges to eliminate and a BFS spanning tree."""
    n = draw(st.integers(1, 4))
    vs = [f"x{i}" for i in range(n)]
    pick = st.integers(0, n - 1)
    edges = [Edge(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)]
    edges += [Edge(f"f{i}", vs[draw(pick)], vs[draw(pick)]) for i in range(draw(st.integers(1, 6)))]
    ends = {}
    for e in edges:
        ends[(e.eid, 1)] = (e.src, e.dst)
        ends[(e.eid, -1)] = (e.dst, e.src)
    squares = []
    for s in range(draw(st.integers(0, 6))):
        walk = [draw(st.sampled_from(sorted(ends)))]
        for step in range(3):
            options = [
                t for t in sorted(ends)
                if ends[t][0] == ends[walk[-1]][1] and (step < 2 or ends[t][1] == ends[walk[0]][0])
            ]
            if not options:
                break
            walk.append(draw(st.sampled_from(options)))
        if len(walk) == 4:
            squares.append((f"s{s}", tuple(walk)))
    eliminate = draw(st.sets(st.sampled_from([e.eid for e in edges])))
    c = make_complex(vs, edges, squares, internal_edges=eliminate)
    pairs = [(e.src, e.dst) for e in edges]
    tree_pairs = graphs.bfs(graphs.adjacency(vs, pairs), vs[0])[1]
    tree = {next(e.eid for e in edges if {e.src, e.dst} == set(p)) for p in tree_pairs}
    return c, frozenset(tree)


@settings(max_examples=400, deadline=None)
@given(foreign_complexes())
def test_foreign_complexes_match_rescanning(case):
    c, tree = case
    relators = [free_reduce(tuple(t for t in ts if t[0] not in tree)) for _, ts in c.squares]
    if not_a_disc(relators, c.internal_edges - tree):
        with pytest.raises(ValueError, match="do not form a disc"):
            pr.extract_presentation(c, tree)
    else:
        new, old = extracted_both_ways(c, tree)
        assert new == old


@st.composite
def disc_gluings(draw):
    """A disc component, and the same beside one that is not: a tree of
    2-40 random reduced relators glued along fresh candidates x<i>, each
    inserted once into each of its two relators; relators over the same
    letters in which the candidate y occurs twice in one relator; a
    candidate that occurs nowhere; each list in a random order."""
    word = st.lists(st.tuples(st.sampled_from("abcd"), st.sampled_from((1, -1))), max_size=6)
    sign = st.sampled_from((1, -1))
    k = draw(st.integers(2, 40))
    disc = [list(free_reduce(tuple(draw(word)))) for _ in range(k)]
    for i in range(1, k):
        for r in (disc[i], disc[draw(st.integers(0, i - 1))]):
            r.insert(draw(st.integers(0, len(r))), (f"x{i}", draw(sign)))
    other = [(("y", draw(sign)), ("a", 1), ("y", draw(sign)))]
    other += [free_reduce(tuple(w)) for w in draw(st.lists(st.lists(
        st.tuples(st.sampled_from("abyz"), sign), max_size=6), max_size=4))]
    gens = ["a", "b", "c", "d", "w", "y", "z"] + [f"x{i}" for i in range(1, k)]
    alone = draw(st.permutations([tuple(r) for r in disc]))
    beside = draw(st.permutations([tuple(r) for r in disc] + other))
    return gens, alone, beside, set(gens[4:])


@settings(max_examples=200, deadline=None)
@given(disc_gluings())
def test_disc_gluings_match_rescanning(case):
    gens, alone, beside, candidates = case
    new, old = both(gens, alone, candidates)
    assert new == old
    # y occurs twice in one relator, so its component is no disc
    with pytest.raises(ValueError, match="do not form a disc"):
        pr._tietze_eliminate(gens, beside, candidates)


def cyclic_word(w):
    """w as ASCII, with its inverse, for a cyclic substring test."""
    return "".join(g if e == 1 else g.upper() for g, e in w)


@pytest.mark.parametrize(
    "make, relators, letters, expected",
    [
        (lambda: cons.build_K_odd(12801), 1, 25602, "ab" * 6400 + "a" + "BA" * 6400 + "B"),
        (lambda: cons.build_K_even(12800, "a"), 1, 12802, "a" + "x" * 6400 + "A" + "X" * 6400),
        # the strip relator and the z-squares of u, v and the tree edge
        (lambda: times_circle(2001), 4, 4012, "uv" * 1000 + "u" + "VU" * 1000 + "V"),
    ],
    ids=["odd-12801", "even-12800", "circle-2001"],
)
def test_long_chains_extract_in_a_second(make, relators, letters, expected):
    # eliminating the chain edges one step at a time, in sorted id order,
    # took 2-4 s here and grew about 3.4x per doubling of the label; with
    # every z-square kept, K_2001 x S^1 gave 2004 relators of 8,012,012 letters
    c = make()
    start = time.perf_counter()
    p = cons.extracted_presentation(c)
    assert time.perf_counter() - start < 1
    assert (len(p.relators), sum(map(len, p.relators))) == (relators, letters)
    word = cyclic_word(max(p.relators, key=len))
    inverse = word[::-1].swapcase()
    assert len(word) == len(expected) and (expected in word * 2 or expected in inverse * 2)
