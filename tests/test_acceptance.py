"""Acceptance suite: exact reproductions and property checks with the
stated runtime budgets.  Each criterion is one test; timing is asserted
inside the test so a regression shows up as a failure, not just slowness.
"""

import subprocess
import sys
import time
from itertools import combinations, product

import networkx as nx
import pytest
from conftest import link_graph
from factories import grid_complex, tree_complex
from oracles import brute_crossing, brute_facing_triple, halfspaces, parallel_set, positive_class

from cubartin import artin_algebra as aa
from cubartin import constructions as cons
from cubartin import cube_model as cm
from cubartin import defining_graph as dg
from cubartin import toolkit as tk
from cubartin.snf import abelian_invariants
from cubartin.words import (
    concat,
    exp_sum,
    invert,
    parse_word,
    power,
    substitute,
)


def timed(budget):
    class Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                elapsed = time.monotonic() - self.start
                assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"

    return Timer()


def graph(text):
    return dg.parse_graph(text)


def test_criterion_1_verdicts():
    with timed(1.0):
        cases = [
            ("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\nedge a c 2\n",
             dg.NOT_COCOMPACTLY_CUBULATED),
            ("vertex a\nvertex b\nedge a b 5\n", dg.COCOMPACTLY_CUBULATED),
            ("vertex c\nvertex x\nvertex y\nvertex z\n"
             "edge c x 4\nedge c y 6\nedge c z 8\n", dg.COCOMPACTLY_CUBULATED),
            ("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 2\nedge a c 2\n",
             dg.COCOMPACTLY_CUBULATED),
            ("vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\nedge a c 3\n",
             dg.NOT_COCOMPACTLY_CUBULATED),
            ("vertex a\nvertex b\nvertex c\nedge a b 2\nedge b c 3\n",
             dg.NOT_COCOMPACTLY_CUBULATED),
        ]
        for text, expected in cases:
            assert dg.verdict(graph(text)).kind == expected
        labels = (2, 3, 4, 5, 6, 7, 8, None)
        for lab, lbc, lac in product(labels, repeat=3):
            edges = {}
            if lab:
                edges[frozenset(("a", "b"))] = lab
            if lbc:
                edges[frozenset(("b", "c"))] = lbc
            if lac:
                edges[frozenset(("a", "c"))] = lac
            g = dg.DefiningGraph(("a", "b", "c"), edges)
            assert dg.verdict(g).kind != dg.OUTSIDE_CLASSIFICATION


def test_criterion_2_constructions():
    with timed(5.0):
        for n in range(3, 16, 2):
            c = cons.build_K_odd(n)
            assert cm.check_npc(c) == []
            assert cm.euler_characteristic(c) == 0
            for v in c.vertices:
                assert nx.is_isomorphic(
                    link_graph(cm.vertex_link(c, v)), nx.complete_bipartite_graph(2, n)
                )
            (rel,) = cons.extracted_presentation(c).relators
            assert aa.DihedralContext(n).equal(rel, ())
        for n in range(2, 17, 2):
            c = cons.build_K_even(n, "a")
            assert cm.check_npc(c) == []
            assert cm.euler_characteristic(c) == 0
            (v,) = c.vertices
            assert nx.is_isomorphic(
                link_graph(cm.vertex_link(c, v)), nx.complete_bipartite_graph(2, n)
            )
            (rel,) = cons.extracted_presentation(c).relators
            expanded = substitute(rel, {"x": parse_word("ab")})
            assert aa.DihedralContext(n).equal(expanded, ())


def condition_iii_graphs(max_vertices=5, leaf_labels=(2, 4, 6, 8)):
    """All condition-(iii) graphs on <= max_vertices up to isomorphism:
    every structure with interior edges labeled 2 and even leaf labels."""
    for g in nx.graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if n > max_vertices:
            break
        names = tuple(f"v{i}" for i in range(n))
        leaf_edges, interior_edges = [], []
        for u, v in g.edges:
            if g.degree(u) == 1 or g.degree(v) == 1:
                leaf_edges.append((names[u], names[v]))
            else:
                interior_edges.append((names[u], names[v]))
        for assignment in product(leaf_labels, repeat=len(leaf_edges)):
            edges = {frozenset(e): 2 for e in interior_edges}
            for e, lab in zip(leaf_edges, assignment):
                edges[frozenset(e)] = lab
            dgraph = dg.DefiningGraph(names, edges)
            if dg.satisfies_condition_iii(dgraph)[0]:
                yield dgraph


def test_criterion_3_amalgams():
    with timed(30.0):
        count = 0
        for g in condition_iii_graphs():
            c = cons.build_for_graph(g)
            assert cm.check_npc(c) == []
            p = cons.extracted_presentation(c)
            artin = cons.artin_presentation(g)
            assert abelian_invariants(
                p.exponent_matrix(), len(p.generators)
            ) == abelian_invariants(artin.exponent_matrix(), len(artin.generators))
            count += 1
        assert count > 100  # the corpus is not accidentally empty


def test_criterion_4_word_algebra():
    with timed(10.0):
        for n in range(3, 16, 2):
            ctx = aa.DihedralContext(n)
            phi = aa.build_phi(n)
            assert exp_sum(phi, "r") == 0
            assert ctx.equal(
                concat(aa.expand_prime(phi), ctx.delta_word),
                power(parse_word("b"), n),
            )
        for n in (3, 5, 7):
            ctx = aa.DihedralContext(n)
            psi = aa.psi_word(n)
            assert ctx.equal(
                concat(aa.expand_prime(psi), ctx.z_word),
                power(parse_word("b"), 2 * n),
            )
            psi_rst = substitute(psi, {"q": parse_word("SrT")})
            assert aa.commutator_membership(aa.aprime_presentation(n), psi_rst)
            # Delta-conjugation is an involution compatible with conjugation
            for w in (parse_word("r"), parse_word("st"), parse_word("qT"), psi):
                assert aa.delta_conjugation(ctx, aa.delta_conjugation(ctx, w)) == w
                lhs = aa.expand_prime(aa.delta_conjugation(ctx, w))
                rhs = concat(
                    invert(ctx.delta_word), aa.expand_prime(w), ctx.delta_word
                )
                assert ctx.equal(lhs, rhs)


def partitions_agree(ctx, gens, max_len):
    """The Garside nf-key partition of positive words must equal the
    positive-rewriting BFS partition, length by length (the relations are
    homogeneous, so classes never mix lengths)."""
    for length in range(max_len + 1):
        words = [tuple(c) for c in product(gens, repeat=length)]
        by_nf = {}
        for letters in words:
            w = tuple((g, 1) for g in letters)
            by_nf.setdefault(ctx.garside.word_nf(w), set()).add(letters)
        by_bfs = {}
        for letters in words:
            rep = min(positive_class(ctx, letters))
            by_bfs.setdefault(rep, set()).add(letters)
        if sorted(by_nf.values(), key=sorted) != sorted(by_bfs.values(), key=sorted):
            return False
    return True


def test_criterion_5_normal_form_soundness():
    for n in range(2, 7):
        assert partitions_agree(aa.DihedralContext(n), "ab", 6)
    for m in (3, 4, 5):
        assert partitions_agree(aa.SphericalContext(m), "abc", 5)


def test_criterion_6_center_lemma():
    with timed(60.0):
        r3 = aa.center_check(aa.SphericalContext(3))
        assert r3["center_generator"] == "Delta^2"
        assert r3["central"] and not r3["delta_central"]
        for m in (4, 5):
            rm = aa.center_check(aa.SphericalContext(m))
            assert rm["center_generator"] == "Delta"
            assert rm["central"] and rm["delta_central"]
        for m in (3, 4, 5):
            report = aa.bounded_lemma_checks(aa.SphericalContext(m), L=6, K=2, M=2)
            assert report["label"] == "bounded verification"
            assert report["ii_verified"] and report["iii_verified"]
            assert report["violations"] == []


def random_wallspace(rng, max_points=8, max_walls=10):
    n = rng.randint(2, max_points)
    walls = set()
    for _ in range(rng.randint(1, max_walls)):
        side = frozenset(p for p in range(n) if rng.random() < 0.5)
        if 0 in side:
            side = frozenset(range(n)) - side
        if side and len(side) < n:
            walls.add(side)
    if not walls:
        walls.add(frozenset({n - 1}))
    return tk.Wallspace(n, tuple(sorted(walls, key=sorted)))


def test_criterion_7_toolkit(rng):
    structures = [
        tk.CubicalStructure(c)
        for c in (
            grid_complex(2, 3),
            grid_complex(3, 3),
            tree_complex(
                [("o", "a"), ("o", "b"), ("a", "c"), ("a", "d"), ("b", "e")]
            ),
        )
    ]
    # gate-edge duality on randomized convex pairs
    for _ in range(100):
        s = rng.choice(structures)
        vs = list(s.complex.vertices)
        y1 = s.convex_hull(set(rng.sample(vs, 2)))
        y2 = s.convex_hull(set(rng.sample(vs, 2)))
        ok, _ = s.check_gate_edge_duality(s.gates(y1, y2))
        assert ok
    # decompositions against crossing brute force
    for s in structures:
        pp = s.product_decompose()
        sides = halfspaces(s.complex)
        for c1, c2 in combinations(pp.classes, 2):
            for h1 in c1:
                for h2 in c2:
                    assert brute_crossing(sides, h1, h2)
        n = 1
        for f in pp.factors:
            n *= len(f)
        assert n == len(s.complex.vertices)
        for _ in range(5):
            y = s.convex_hull(set(rng.sample(list(s.complex.vertices), 2)))
            pd = parallel_set(s, y)
            h1 = s.crosses(y)
            for copy in pd.copies:
                assert s.crosses(copy) == h1
            assert len(pd.parallel_set) == len(pd.copies) * len(y)
    # sageev duals are median
    for _ in range(50):
        assert tk.is_median(tk.sageev_dual(random_wallspace(rng)))
    # facing triples match the exhaustive search
    for _ in range(20):
        c = tk.sageev_dual(random_wallspace(rng, 6, 6))
        assert tk.CubicalStructure(c).has_facing_triple() == brute_facing_triple(c)


def test_criterion_8_determinism(tmp_path):
    g = tmp_path / "graph.txt"
    g.write_text("vertex a\nvertex b\nvertex c\nedge a b 4\nedge b c 6\n")
    walls = tmp_path / "walls.txt"
    walls.write_text("points 4\nwall 0011\nwall 0101\n")

    def invoke(*argv):
        r = subprocess.run(
            [sys.executable, "-m", "cubartin.cli", *argv], capture_output=True
        )
        assert r.returncode == 0
        return r.stdout

    reports = set()
    files = set()
    out = tmp_path / "c.complex"
    dual = tmp_path / "d.complex"
    for _ in range(2):
        report = b"".join(
            (
                invoke("--format", "doc", "analyze", "--graph", str(g)),
                invoke("build", "--graph", str(g), "-o", str(out)),
                invoke("verify", "--complex", str(out)),
                invoke("toolkit", "dual", "--wallspace", str(walls), "-o", str(dual)),
                invoke("algebra", "nf", "--dihedral", "5", "--word", "abaBA"),
            )
        )
        reports.add(report)
        files.add(out.read_bytes() + dual.read_bytes())
    assert len(reports) == 1
    assert len(files) == 1
