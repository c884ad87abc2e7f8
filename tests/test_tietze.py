"""The indexed Tietze elimination against the rescanning one it replaced
(tests/oracles.py): the same generators and the same relators, in the same
order, on random relator lists and on the presentations of every plan shape
and of foreign complexes."""

import time
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import rescanning_tietze_eliminate

from cubartin import constructions as cons
from cubartin import cube_model as cm
from cubartin import defining_graph as dg
from cubartin import graphs
from cubartin.cube_model import Edge, make_complex
from cubartin.words import free_reduce, parse_word


def both(gens, relators, candidates):
    new = cm._tietze_eliminate(list(gens), list(relators), set(candidates))
    old = rescanning_tietze_eliminate(list(gens), list(relators), set(candidates))
    return (list(new[0]), list(new[1])), (list(old[0]), list(old[1]))


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
# relators that become empty
@example(("ab", [parse_word("ab"), parse_word("ab"), parse_word("a")], {"a", "b"}))
def test_random_relators_match_rescanning(case):
    new, old = both(*case)
    assert new == old


def test_unreduced_rotation_is_reduced():
    (gens, relators), _ = both("abc", [parse_word("bAB"), parse_word("ac")], {"a"})
    assert (gens, relators) == (["b", "c"], [parse_word("c")])


@pytest.mark.parametrize(
    "case, result",
    [
        # a = B from "ab"; splicing it into "bac" cancels b B, and b is no candidate
        (("abc", ["ab", "bac"], {"a"}), (["b", "c"], ["c"])),
        # a = C from "ac"; splicing it into "cab" cancels c C, so the count of c
        # in that relator drops from 2 to 0
        (("abc", ["ac", "cab"], {"a", "c"}), (["b", "c"], ["b"])),
        # solving "caC" for a cancels c against C, so the value a = 1 holds no c
        (("acd", ["caC", "ad", "cd"], {"a", "c"}), (["d"], ["d"])),
    ],
)
def test_cancelled_letters_match_rescanning(case, result):
    gens, relators, candidates = case
    new, old = both(gens, [parse_word(r) for r in relators], candidates)
    assert new == old == (result[0], [parse_word(r) for r in result[1]])


def extracted_both_ways(c, tree):
    new = cm.extract_presentation(c, tree)
    with mock.patch.object(cm, "_tietze_eliminate", rescanning_tietze_eliminate):
        old = cm.extract_presentation(c, tree)
    return new, old


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
    new, old = extracted_both_ways(c, cons.canonical_spanning_tree(c))
    assert new == old


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
    new, old = extracted_both_ways(*case)
    assert new == old


@st.composite
def disc_gluings(draw):
    """A disc component beside one that is not: a tree of 2-40 random
    reduced relators glued along fresh candidates x<i>, each inserted once
    into each of its two relators; relators over the same letters in which
    the candidate y occurs twice in one relator; a candidate that occurs
    nowhere; all in a random order."""
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
    relators = draw(st.permutations([tuple(r) for r in disc] + other))
    gens = ["a", "b", "c", "d", "w", "y", "z"] + [f"x{i}" for i in range(1, k)]
    return gens, relators, set(gens[4:]) | {"y"}


@settings(max_examples=200, deadline=None)
@given(disc_gluings())
def test_disc_gluings_match_rescanning(case):
    new, old = both(*case)
    assert new == old


def cyclic_word(w):
    """w as ASCII, with its inverse, for a cyclic substring test."""
    return "".join(g if e == 1 else g.upper() for g, e in w)


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: cons.build_K_odd(12801), "ab" * 6400 + "a" + "BA" * 6400 + "B"),
        (lambda: cons.build_K_even(12800, "a"), "a" + "x" * 6400 + "A" + "X" * 6400),
    ],
    ids=["odd-12801", "even-12800"],
)
def test_long_chains_extract_in_a_second(make, expected):
    # eliminating the chain edges one step at a time, in sorted id order,
    # took 2-4 s here and grew about 3.4x per doubling of the label
    c = make()
    start = time.perf_counter()
    p = cons.extracted_presentation(c)
    assert time.perf_counter() - start < 1
    (relator,) = p.relators
    word = cyclic_word(relator)
    inverse = word[::-1].swapcase()
    assert len(word) == len(expected) and (expected in word * 2 or expected in inverse * 2)
