"""Seeded job streams for the four benchmark workloads.

Each workload turns a seed into an endless stream of jobs, runs one job at a
time through cubartin's public functions, and checks the answer against a
value known from how the input was built, never against the program itself.

Inputs come in rounds of fixed composition (the same number of jobs of each
kind per round, shuffled), and every size parameter takes each of a fixed
list of values once per cycle, in seeded order.  A pass, the jobs a run
repeats, holds whole cycles of the costly parameters, so two seeds give
different inputs with the same sizes, and the run-to-run spread measures the
program and the machine, not the luck of the draw.

Size caps are limits of the current code, chosen so that no job takes much
more than a second: odd labels stop at 401 and even labels at 400
(`extracted_presentation` grows like label^2.5 and a single edge labelled
20001 does not finish), Salvetti cliques stop at 6 vertices (`check_npc` on a
7- or 8-clique interior takes a quarter second and more), grids at 14x14 and
hypercubes at k = 6 (`is_median` is cubic in the vertex count).
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import cubartin.cli as cli
from cubartin import artin_algebra as alg
from cubartin import constructions, cube_model, toolkit
from cubartin import defining_graph as dg
from cubartin.snf import abelian_invariants

POSITIVE = dg.COCOMPACTLY_CUBULATED
NEGATIVE = dg.NOT_COCOMPACTLY_CUBULATED
OUTSIDE = dg.OUTSIDE_CLASSIFICATION


@dataclass
class Job:
    kind: str
    data: dict


def log_steps(lo: float, hi: float, n: int = 8) -> list[float]:
    return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]


class Workload:
    """Base: rounds of shuffled job kinds, one cycle of values per named
    parameter.  A pass is the first `pass_rounds` rounds of the stream; that
    many rounds run through each costly parameter's cycle a whole number of
    times."""

    name = ""
    round_kinds: tuple[str, ...] = ()
    pass_rounds = 1

    def __init__(self, seed: str, tmp: Path, env: dict):
        self.seed, self.tmp, self.env = seed, tmp, env
        self.restart()

    def restart(self) -> None:
        """Back to the start of the stream: the same seed makes the same jobs
        again, as new objects, so no job sees state an earlier run left."""
        self.rng = random.Random(self.seed)
        self._cycles: dict[str, list] = {}
        self._round: list[str] = []
        self.made = 0

    def pick(self, key: str, values):
        """One of `values`; each comes once per cycle of len(values) picks."""
        if not self._cycles.get(key):
            self._cycles[key] = list(values)
            self.rng.shuffle(self._cycles[key])
        return self._cycles[key].pop()

    def next_job(self) -> Job:
        if not self._round:
            self._round = list(self.round_kinds)
            self.rng.shuffle(self._round)
        kind = self._round.pop()
        job = Job(kind, self.make(kind))
        self.made += 1
        return job

    def make(self, kind: str) -> dict:
        return getattr(self, f"make_{kind}")()

    def setup(self, tr) -> None:
        """One-time set-up a user of this workload pays before the first job."""

    def aside(self, job: Job, tr) -> None:
        """Extra traced measurement kept out of the job's latency."""

    def trace_extra(self, tr) -> None:
        """Per-workload measurements a traced run adds once."""


# -- graph helpers shared by graph-build and cli-mix --------------------------

def graph_text(vertices, edges) -> str:
    lines = [f"vertex {v}" for v in vertices]
    lines += [f"edge {u} {v} {m}" for u, v, m in edges]
    return "\n".join(lines) + "\n"


def odd_label_rank(vertices, edges) -> int:
    """Free rank of the Artin group's abelianization: the number of classes
    of generators under odd-labelled edges (an odd relation identifies its
    two generators; an even one makes them commute)."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v, m in edges:
        if m % 2:
            parent[find(u)] = find(v)
    return len({find(v) for v in vertices})


def clique_euler(vertices, edges) -> int:
    """Sum of (-1)^|T| over the cliques T of the graph, the empty one
    included.  When every clique is spherical this is the Euler
    characteristic of the group's Salvetti complex, which each built complex
    is homotopy equivalent to."""
    adj = {v: set() for v in vertices}
    for u, v, _ in edges:
        adj[u].add(v)
        adj[v].add(u)
    total = 0

    def extend(size, candidates):
        nonlocal total
        total += (-1) ** size
        for i, v in enumerate(candidates):
            extend(size + 1, [w for w in candidates[i + 1:] if w in adj[v]])

    extend(0, sorted(vertices))
    return total


def leaf_labels(rng, k: int) -> list[int]:
    """k even labels 2..20 in turn from a random start, shuffled: about the
    same labels for every seed, and the cost of a leaf grows with its label."""
    start = rng.randrange(10)
    labels = [2 * (1 + (start + i) % 10) for i in range(k)]
    rng.shuffle(labels)
    return labels


def positive_graph(kind: str, wl: Workload, label_cap: int):
    """A graph the classification makes cocompactly cubulated, by kind."""
    rng = wl.rng
    if kind == "odd":
        n = 2 * int(wl.pick("odd", log_steps(3, label_cap)) // 2) + 1
        return ["a", "b"], [("a", "b", n)]
    if kind == "even":
        n = 2 * int(wl.pick("even", log_steps(1, label_cap // 2)))
        return ["a", "b"], [("a", "b", n)]
    if kind == "star":
        k = wl.pick("star", [round(x) for x in log_steps(2, 60 if label_cap > 100 else 6)])
        leaves = [f"l{i}" for i in range(k)]
        edges = [("s", v, m) for v, m in zip(leaves, leaf_labels(rng, k))]
        return ["s", *leaves], edges
    if kind == "salvetti":
        # every clique size meets every leaf count once in 16 picks
        q, n_leaves = wl.pick("salvetti", [(q, n) for q in range(3, 7) for n in (0, 4, 8, 12)])
        core = [f"c{i}" for i in range(q)]
        edges = [(u, v, 2) for u, v in combinations(core, 2)]
        extra = [f"x{i}" for i in range((q + n_leaves // 4) % 3)]
        for x in extra:  # degree 2, so interior: label 2
            for c in rng.sample(core, 2):
                edges.append((c, x, 2))
        leaves = [f"l{i}" for i in range(n_leaves)]
        for leaf, m in zip(leaves, leaf_labels(rng, n_leaves)):
            edges.append((rng.choice(core + extra), leaf, m))
        return core + extra + leaves, edges
    if kind == "times_circle":
        m = round(wl.pick("circle", log_steps(3, 101 if label_cap > 100 else 9)))
        return ["c", "u", "v"], [("c", "u", 2), ("c", "v", 2), ("u", "v", m)]
    raise ValueError(kind)


def negative_graph(wl: Workload):
    """Fails condition (iii) and is 2-dimensional, or has three generators
    without a vertex whose two edges are labelled 2: not cubulated."""
    rng = wl.rng
    if rng.random() < 0.5:
        labels = [rng.randint(3, 9), rng.choice([2, 3, 4, 5]), rng.randint(3, 9)]
        rng.shuffle(labels)
        return ["a", "b", "c"], [("a", "b", labels[0]), ("b", "c", labels[1]), ("a", "c", labels[2])]
    k = rng.randint(4, 8)
    vs = [f"p{i}" for i in range(k)]
    edges = [(vs[i], vs[i + 1], rng.choice([2, 4, 6])) for i in range(k - 1)]
    i = rng.randint(1, k - 3)  # an interior edge of the path
    edges[i] = (vs[i], vs[i + 1], rng.randint(3, 9))
    return vs, edges


def outside_graph(wl: Workload):
    """A spherical triangle plus pendant edges, failing condition (iii): more
    than three generators and not 2-dimensional, so outside both theorems."""
    rng = wl.rng
    a, b, c = rng.choice([(2, 2, rng.randint(3, 9)), (2, 3, 3), (2, 3, 4), (2, 3, 5)])
    vs = ["a", "b", "c"]
    edges = [("a", "b", a), ("b", "c", b), ("a", "c", c)]
    for i in range(rng.randint(1, 3)):
        vs.append(f"d{i}")
        edges.append((rng.choice("abc"), f"d{i}", rng.choice([3, 5, 7])))
    return vs, edges


# -- graph-build ----------------------------------------------------------------

class GraphBuild(Workload):
    """In-process `build` then `verify` on seeded defining graphs."""

    name = "graph-build"
    round_kinds = (
        "odd", "odd", "even", "even", "star", "star", "salvetti", "salvetti",
        "times_circle", "negative", "outside",
    )
    # 8 values of odd, even, star, circle, 16 Salvetti shapes: the fifteen
    # slowest jobs are 3 ×S¹ of label 101 and 6 each of odd label 401 and
    # 60-leaf stars, so the tail's 11th slowest falls among like jobs
    pass_rounds = 24

    def make(self, kind):
        if kind == "negative":
            return {"text": graph_text(*negative_graph(self)), "verdict": NEGATIVE}
        if kind == "outside":
            return {"text": graph_text(*outside_graph(self)), "verdict": OUTSIDE}
        vs, es = positive_graph(kind, self, 401)
        return {
            "text": graph_text(vs, es),
            "verdict": POSITIVE,
            "rank": odd_label_rank(vs, es),
            "euler": clique_euler(vs, es),
        }

    def run(self, job, tr):
        d = job.data
        g = tr.call("defining_graph.parse_graph", dg.parse_graph, d["text"])
        v = tr.call("defining_graph.verdict", dg.verdict, g)
        out = {"verdict": v.kind}
        if v.plan is None:
            return out
        # build path, as `cubartin build` runs it
        c = tr.call("constructions.build_from_plan", constructions.build_from_plan, v.plan)
        out["npc_build"] = tr.call("cube_model.check_npc.build", cube_model.check_npc, c)
        p = tr.call("constructions.extracted_presentation", constructions.extracted_presentation, c)
        artin = constructions.artin_presentation(g)
        out["ab_built"] = tr.call(
            "snf.abelian_invariants", abelian_invariants, p.exponent_matrix(), len(p.generators)
        )
        out["ab_artin"] = tr.call(
            "snf.abelian_invariants", abelian_invariants, artin.exponent_matrix(), len(artin.generators)
        )
        text = tr.call("cube_model.complex_text", cube_model.complex_text, c)
        # verify path, as `cubartin verify` runs it on the written file
        c2 = tr.call("cube_model.parse_complex", cube_model.parse_complex, text)
        out["npc_verify"] = tr.call("cube_model.check_npc.verify", cube_model.check_npc, c2)
        links = [tr.call("cube_model.vertex_link", cube_model.vertex_link, c2, x) for x in c2.vertices]
        out["euler"] = cube_model.euler_characteristic(c2)
        out["ends"] = sum(len(link.link_vertices) for link in links)
        out["corners"] = sum(len(link.link_edges) for link in links)
        out["edges"], out["squares"] = len(c2.edges), len(c2.squares)
        out["text"] = text
        tr.count("constructions.squares", len(c.squares))
        tr.count("constructions.edges", len(c.edges))
        tr.count("presentation.generators", len(p.generators))
        tr.count("presentation.relators", len(p.relators))
        tr.count("presentation.letters", sum(len(r) for r in p.relators))
        tr.peak("cube_model.link_ends_max", max(len(link.link_vertices) for link in links))
        return out

    def check(self, job, out) -> bool:
        d = job.data
        if out["verdict"] != d["verdict"]:
            return False
        if d["verdict"] != POSITIVE:
            return True
        expected_ab = ((), d["rank"])
        return (
            out["npc_build"] == []
            and out["npc_verify"] == []
            and out["ab_built"] == expected_ab
            and out["ab_artin"] == expected_ab
            and out["euler"] == d["euler"]
            and out["ends"] == 2 * out["edges"]
            and out["corners"] == 4 * out["squares"]
        )

    def digest_bytes(self, job, out) -> bytes:
        return out.get("text", "").encode()


# -- word-problem ---------------------------------------------------------------

DIHEDRAL = tuple(range(2, 16))
SPHERICAL = {3: "A3", 4: "B3", 5: "H3"}


def alternating(x, y, m):
    return tuple(((x, y)[i % 2], 1) for i in range(m))


def labels_of(key) -> dict:
    """Coxeter labels by generator pair: I2(m), or (3, 2, m) for A3, B3, H3."""
    name, m = key
    if name == "I2":
        return {("a", "b"): m}
    return {("a", "b"): 3, ("b", "c"): 2, ("a", "c"): m}


def equal_pair(rng, key, length: int):
    """A random word, a second word, and whether the two are equal in the
    Artin group.  The first word is a fraction p q^-1 of two random positive
    words of about half its length each, the form every element of a
    spherical Artin group takes; it narrows the spread of normal-form costs
    between words of one length.  The second word inserts a defining
    relation and a cancelling pair, which keeps the element; half the time
    one more generator follows, which moves the exponent sum every relation
    keeps."""
    gens = "ab" if key[0] == "I2" else "abc"
    signs = [1] * (length - length // 2) + [-1] * (length // 2)
    w = tuple((rng.choice(gens), e) for e in signs)
    (x, y), m = rng.choice(sorted(labels_of(key).items()))
    relation = alternating(x, y, m) + tuple((g, -1) for g, _ in reversed(alternating(y, x, m)))
    i, j = sorted(rng.randint(0, length) for _ in range(2))
    g = rng.choice(gens)
    w2 = w[:i] + relation + w[i:j] + ((g, 1), (g, -1)) + w[j:]
    equal = rng.random() < 0.5
    if not equal:
        k = rng.randint(0, len(w2))
        w2 = w2[:k] + ((rng.choice(gens), 1),) + w2[k:]
    return w, w2, equal


def ascii_word(w) -> str:
    return "".join(g if e == 1 else g.upper() for g, e in w)


class WordProblem(Workload):
    """In-process Garside equality queries plus center and bounded lemma
    checks; every context is built in set-up."""

    name = "word-problem"
    round_kinds = ("equal",) * 17 + ("center", "bounded", "bounded")
    pass_rounds = 6  # every context and length bin each round; bounded cycles in 3

    def __init__(self, seed, tmp, env):
        self.keys = [("I2", n) for n in DIHEDRAL] + [(SPHERICAL[m], m) for m in SPHERICAL]
        self.contexts: dict = {}
        super().__init__(seed, tmp, env)

    def restart(self):
        super().restart()
        self._pairs: list = []
        self._shift = 0

    def setup(self, tr):
        for n in DIHEDRAL:
            self.contexts[("I2", n)] = tr.call("coxeter.table_build.I2", alg.DihedralContext, n)
        for m, name in SPHERICAL.items():
            self.contexts[(name, m)] = tr.call(f"coxeter.table_build.{name}", alg.SphericalContext, m)
        for (name, _), ctx in self.contexts.items():
            tr.count(f"coxeter.table_size.{name}", ctx.table.size)

    def make_equal(self):
        # a round pairs the 17 contexts with 17 log-spaced length bins over
        # 8..60, shifted by 7 bins each round, so every seed's pass holds the
        # same context and length pairs: the cost of a normal form hangs on both
        if not self._pairs:
            n = len(self.keys)
            self._pairs = [(key, (i + self._shift) % n) for i, key in enumerate(self.keys)]
            self.rng.shuffle(self._pairs)
            self._shift += 7
        key, length_bin = self._pairs.pop()
        length = round(8 * (60 / 8) ** ((length_bin + self.rng.random()) / len(self.keys)))
        w, w2, equal = equal_pair(self.rng, key, length)
        return {"key": key, "w1": w, "w2": w2, "equal": equal}

    def make_center(self):
        key = self.pick("center", self.keys)
        name, m = key
        # w0 is central in W exactly for I2(even), B3 and H3
        return {"key": key, "delta_central": (name == "I2" and m % 2 == 0) or name in ("B3", "H3")}

    def make_bounded(self):
        combos = [(name, m, L) for m, name in SPHERICAL.items() for L in (3, 4)]
        name, m, L = self.pick("bounded", combos)
        return {"key": (name, m), "L": L}

    def run(self, job, tr):
        d = job.data
        ctx = self.contexts[d["key"]]
        if job.kind == "equal":
            # ctx.equal compares the two normal forms; they also give the counts
            nf1 = tr.call("garside.equal", ctx.nf, d["w1"])
            nf2 = tr.call("garside.equal", ctx.nf, d["w2"])
            tr.count("garside.letters_in", len(d["w1"]) + len(d["w2"]))
            tr.count("garside.canonical_length_out", nf1.canonical_length + nf2.canonical_length)
            return nf1 == nf2
        if job.kind == "center":
            return tr.call("artin_algebra.center_check", alg.center_check, ctx)
        return tr.call("artin_algebra.bounded_lemma_checks", alg.bounded_lemma_checks, ctx, d["L"], 2, 2)

    def check(self, job, out) -> bool:
        d = job.data
        if job.kind == "equal":
            return out is d["equal"]
        if job.kind == "center":
            return out["central"] is True and out["delta_central"] is d["delta_central"]
        return out["ii_verified"] is True and out["iii_verified"] is True and not out["violations"]

    def digest_bytes(self, job, out) -> bytes:
        return repr(out).encode()


# -- toolkit-geometry -----------------------------------------------------------

def wallspace_text(points: int, masks) -> str:
    """Walls given as bitmasks over points 1..points-1, the side away from 0."""
    lines = [f"points {points}"]
    lines += ["wall 0" + "".join("1" if m >> i & 1 else "0" for i in range(points - 1)) for m in masks]
    return "\n".join(lines) + "\n"


# the number of crossing wall pairs a dual job asks for, each once in a cycle
# of 14 picks; 16 crossings make about 50 dual vertices, and is_median is
# cubic in that
CROSSINGS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 16)


def crossings(masks) -> int:
    """Pairs of walls whose four sides all meet.  Point 0 lies on side 0 of
    every wall, so only the other three quadrants can be empty."""
    return sum(1 for a, b in combinations(masks, 2) if a & b and a & ~b and b & ~a)


def grid(rows: int, cols: int):
    """rows x cols grid of squares; vertex v{i}.{j} sits at (i, j)."""
    vid = lambda i, j: f"v{i}.{j}"
    vertices, edges, squares, coords = [], [], [], {}
    for i in range(rows + 1):
        for j in range(cols + 1):
            vertices.append(vid(i, j))
            coords[vid(i, j)] = (i, j)
            if j < cols:
                edges.append((f"h{i}.{j}", vid(i, j), vid(i, j + 1)))
            if i < rows:
                edges.append((f"u{i}.{j}", vid(i, j), vid(i + 1, j)))
    for i in range(rows):
        for j in range(cols):
            squares.append((f"s{i}.{j}", ((f"h{i}.{j}", 1), (f"u{i}.{j + 1}", 1), (f"h{i + 1}.{j}", -1), (f"u{i}.{j}", -1))))
    return cube_model.make_complex(vertices, edges, squares), coords


def hypercube(k: int):
    """2-skeleton of the k-cube; vertex c{bits} sits at its bit vector."""
    vid = lambda b: f"c{b}"
    vertices = [vid(b) for b in range(1 << k)]
    coords = {vid(b): tuple((b >> i) & 1 for i in range(k)) for b in range(1 << k)}
    edges, squares = [], []
    for b in range(1 << k):
        for i in range(k):
            if not b >> i & 1:
                edges.append((f"e{b}.{i}", vid(b), vid(b | 1 << i)))
        for i, j in combinations(range(k), 2):
            if not (b >> i & 1 or b >> j & 1):
                squares.append((f"s{b}.{i}.{j}", ((f"e{b}.{i}", 1), (f"e{b | 1 << i}.{j}", 1), (f"e{b | 1 << j}.{i}", -1), (f"e{b}.{j}", -1))))
    return cube_model.make_complex(vertices, edges, squares), coords


def box_hull(p, q):
    """Hull of two lattice points in a grid or cube: the box they span."""
    return [(min(a, b), max(a, b)) for a, b in zip(p, q)]


def box_distance(box, x) -> int:
    return sum(max(lo - c, 0, c - hi) for (lo, hi), c in zip(box, x))


class ToolkitGeometry(Workload):
    """In-process cubical geometry on Sageev duals, grids and hypercubes."""

    name = "toolkit-geometry"
    round_kinds = ("dual",) * 3 + ("grid", "cube")
    # every grid side 1..14 three times, every cube pick six times: the
    # tail's 11th slowest job is one of three 11x11 grids
    pass_rounds = 42

    def make_dual(self):
        rng = self.rng
        # the dual's size, so the job's cost, follows the number of crossing
        # pairs: pick that, then draw wallspaces until one matches
        target = self.pick("crossings", CROSSINGS)
        while True:
            points = rng.randint(4, 9)
            walls = min(rng.randint(3, 8), 2 ** (points - 1) - 1)
            # a wall is the side away from point 0: a nonempty subset of 1..points-1
            masks = rng.sample(range(1, 2 ** (points - 1)), walls)
            if crossings(masks) == target:
                break
        w = toolkit.parse_wallspace(wallspace_text(points, masks))
        return {"wallspace": w, "hyperplanes": walls, "picks": self._picks()}

    def make_grid(self):
        # square, so the side alone sets the cost (cubic in vertices)
        rows = self.pick("grid", range(1, 15))
        c, coords = grid(rows, rows)
        return {"complex": c, "coords": coords, "hyperplanes": 2 * rows, "factors": 2, "npc": True, "picks": self._picks()}

    def make_cube(self):
        # seven picks a cycle, so a pass of 14 rounds holds each k equally often
        k = self.pick("cube", (2, 3, 3, 4, 4, 5, 6))
        c, coords = hypercube(k)
        return {"complex": c, "coords": coords, "hyperplanes": k, "factors": k, "npc": k <= 2, "picks": self._picks()}

    def _picks(self):
        return [(self.rng.random(), self.rng.random(), self.rng.random()) for _ in range(5)]

    def run(self, job, tr):
        d = job.data
        out = {}
        if job.kind == "dual":
            c = tr.call("toolkit.sageev_dual", toolkit.sageev_dual, d["wallspace"])
            tr.count("toolkit.dual_vertices", len(c.vertices))
            tr.count("toolkit.dual_squares", len(c.squares))
        else:
            c = d["complex"]
        out["median"] = tr.call("toolkit.is_median", toolkit.is_median, c)
        s = tr.call("toolkit.CubicalStructure", toolkit.CubicalStructure, c)
        tr.count("toolkit.hyperplanes", len(s.hyperplanes))
        out["hyperplanes"] = len(s.hyperplanes)
        vs = sorted(c.vertices)
        out["queries"] = []
        for a, b, e in d["picks"]:
            p, q, r = vs[int(a * len(vs))], vs[int(b * len(vs))], vs[int(e * len(vs))]
            y1 = tr.call("toolkit.convex_hull", s.convex_hull, (p, q))
            y2 = tr.call("toolkit.convex_hull", s.convex_hull, (r,))
            gp = tr.call("toolkit.gates", s.gates, y1, y2)
            ok, _ = tr.call("toolkit.check_gate_edge_duality", s.check_gate_edge_duality, gp)
            out["queries"].append(((p, q, r), len(y1), gp.delta_sep, ok))
        out["factors"] = len(tr.call("toolkit.product_decompose", s.product_decompose).classes)
        if job.kind == "dual":
            out["facing"], _ = tr.call("toolkit.has_facing_triple", s.has_facing_triple)
        else:
            violations = tr.call("cube_model.check_npc.toolkit", cube_model.check_npc, c)
            tr.count("cube_model.npc_violations", len(violations))
            out["npc"] = not violations
        return out

    def check(self, job, out) -> bool:
        d = job.data
        if out["median"] is not True or out["hyperplanes"] != d["hyperplanes"]:
            return False
        if not all(ok for *_, ok in out["queries"]):
            return False
        if job.kind == "dual":
            return True
        coords = d["coords"]
        for (p, q, r), hull_size, sep, _ in out["queries"]:
            box = box_hull(coords[p], coords[q])
            if hull_size != math.prod(hi - lo + 1 for lo, hi in box):
                return False
            if sep != box_distance(box, coords[r]):
                return False
        return out["factors"] == d["factors"] and out["npc"] == d["npc"]

    def digest_bytes(self, job, out) -> bytes:
        return repr(sorted(out.items())).encode()


# -- cli-mix --------------------------------------------------------------------

class CliMix(Workload):
    """One `python -m cubartin.cli` subprocess per job, on small inputs."""

    name = "cli-mix"
    round_kinds = (
        "analyze_pos", "analyze_neg", "build", "verify_npc", "verify_cube",
        "hyperplanes", "hull", "dual", "nf_dihedral", "nf_type",
        "equal_dihedral", "equal_type", "center_type",
    )
    pass_rounds = 2

    def _file(self, suffix: str, text: str) -> str:
        # names relative to the working directory keep stdout free of paths
        name = f"in{self.made}.{suffix}"
        (self.tmp / name).write_text(text, encoding="utf-8")
        return name

    def make_analyze_pos(self):
        vs, es = positive_graph(self.rng.choice(["odd", "even", "star", "salvetti", "times_circle"]), self, 21)
        return {"argv": ["analyze", "--graph", self._file("graph", graph_text(vs, es))], "exit": 0, "expect": f"verdict: {POSITIVE}"}

    def make_analyze_neg(self):
        if self.rng.random() < 0.5:
            vs, es = negative_graph(self)
            return {"argv": ["analyze", "--graph", self._file("graph", graph_text(vs, es))], "exit": 1, "expect": f"verdict: {NEGATIVE}"}
        vs, es = outside_graph(self)
        return {"argv": ["analyze", "--graph", self._file("graph", graph_text(vs, es))], "exit": 0, "expect": f"verdict: {OUTSIDE}"}

    def make_build(self):
        vs, es = positive_graph(self.rng.choice(["odd", "even", "star", "salvetti", "times_circle"]), self, 21)
        out = f"out{self.made}.complex"
        return {"argv": ["build", "--graph", self._file("graph", graph_text(vs, es)), "-o", out], "exit": 0, "expect": "npc: true"}

    def _grid_file(self):
        rows, cols = self.rng.randint(1, 4), self.rng.randint(1, 4)
        c, _ = grid(rows, cols)
        return self._file("complex", cube_model.complex_text(c)), rows, cols

    def make_verify_npc(self):
        path, _, _ = self._grid_file()
        return {"argv": ["verify", "--complex", path], "exit": 0, "expect": "npc: true"}

    def make_verify_cube(self):
        c, _ = hypercube(self.rng.randint(3, 4))
        return {"argv": ["verify", "--complex", self._file("complex", cube_model.complex_text(c))], "exit": 1, "expect": "npc: false"}

    def make_hyperplanes(self):
        path, rows, cols = self._grid_file()
        return {"argv": ["toolkit", "hyperplanes", "--complex", path], "exit": 0, "expect": f"count: {rows + cols}"}

    def make_hull(self):
        path, rows, cols = self._grid_file()
        rng = self.rng
        (i1, j1), (i2, j2) = [(rng.randint(0, rows), rng.randint(0, cols)) for _ in range(2)]
        size = (abs(i1 - i2) + 1) * (abs(j1 - j2) + 1)
        return {"argv": ["toolkit", "hull", "--complex", path, "--vertices", f"v{i1}.{j1},v{i2}.{j2}"], "exit": 0, "expect": f"size: {size}"}

    def make_dual(self):
        rng = self.rng
        points = rng.randint(4, 6)
        masks = rng.sample(range(1, 2 ** (points - 1)), rng.randint(3, min(5, 2 ** (points - 1) - 1)))
        path = self._file("walls", wallspace_text(points, masks))
        return {"argv": ["toolkit", "dual", "--wallspace", path], "exit": 0, "expect": "median: true"}

    def make_nf_dihedral(self):
        n = self.rng.randint(2, 9)
        return {"argv": ["algebra", "nf", "--dihedral", str(n), "--word", ascii_word(equal_pair(self.rng, ("I2", n), 12)[0])], "exit": 0, "expect": "command: algebra nf"}

    def make_nf_type(self):
        m = self.pick("type", (3, 4, 5))
        return {"argv": ["algebra", "nf", "--type", str(m), "--word", ascii_word(equal_pair(self.rng, (SPHERICAL[m], m), 12)[0])], "exit": 0, "expect": "command: algebra nf"}

    def _equal(self, flag, key):
        w, w2, equal = equal_pair(self.rng, key, self.rng.randint(6, 14))
        return {
            "argv": ["algebra", "equal", flag, str(key[1]), "--word", ascii_word(w), "--word2", ascii_word(w2)],
            "exit": 0 if equal else 1,
            "expect": f"equal: {'true' if equal else 'false'}",
        }

    def make_equal_dihedral(self):
        return self._equal("--dihedral", ("I2", self.rng.randint(2, 9)))

    def make_equal_type(self):
        m = self.pick("type", (3, 4, 5))
        return self._equal("--type", (SPHERICAL[m], m))

    def make_center_type(self):
        return {"argv": ["algebra", "center", "--type", str(self.pick("type", (3, 4, 5)))], "exit": 0, "expect": "central: true"}

    def run(self, job, tr):
        proc = subprocess.run(
            [sys.executable, "-m", "cubartin.cli", *job.data["argv"]],
            capture_output=True, env=self.env, cwd=self.tmp, timeout=120,
        )
        return proc.returncode, proc.stdout

    def check(self, job, out) -> bool:
        code, stdout = out
        return code == job.data["exit"] and job.data["expect"] in stdout.decode().splitlines()

    def digest_bytes(self, job, out) -> bytes:
        code, stdout = out
        return b"%d\n" % code + stdout

    def aside(self, job, tr):
        # the same call in-process: argument parsing plus library work, no start-up
        cwd = os.getcwd()
        os.chdir(self.tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                tr.call("cli.main", cli.main, job.data["argv"])
        finally:
            os.chdir(cwd)

    def trace_extra(self, tr):
        for _ in range(5):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", "pass"], env=self.env, check=True, timeout=60)
            tr.record("cli.python_start", time.perf_counter() - t)
        probe = (
            "import sys, time\n"
            "before = len(sys.modules)\n"
            "t = time.perf_counter()\n"
            "import cubartin.cli\n"
            "print(time.perf_counter() - t, len(sys.modules) - before)\n"
        )
        for _ in range(5):
            out = subprocess.run([sys.executable, "-c", probe], capture_output=True, env=self.env, check=True, timeout=60)
            seconds, modules = out.stdout.split()
            tr.record("cli.import", float(seconds))
            tr.counts["cli.import_modules"] = int(modules)
