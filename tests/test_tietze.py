"""The indexed Tietze elimination against the rescanning one it replaced
(tests/oracles.py): the same generators and the same relators, in the same
order, on random relator lists and on the presentations of every plan shape
and of foreign complexes."""

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
