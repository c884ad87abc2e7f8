"""Cube complexes realising the positive side of the classification.

Three building blocks, glued per defining-graph component:

  * an odd edge gives the two-vertex strip complex K_n (n squares between
    the a/b sides and a t-edge),
  * an even edge gives the one-vertex chain complex K_{n,a} on the
    presentation <a, x | a x^{n/2} = x^{n/2} a> with x = ab,
  * a component with more than one edge gives the amalgam of the Salvetti
    complex of its interior subgraph with one K_{n_i, s_i} per leaf, glued
    along the s_i circles.

A product with a circle (for the three-generator two-label-2 case) adds a
z-loop per vertex, a square per edge, and a prism per square.
"""

from __future__ import annotations

from itertools import islice

from . import defining_graph as dg
from . import graphs
from .cube_model import MAX_CUBES, CubeComplex, Edge, check_npc, make_complex
from .presentations import Presentation, extract_presentation
from .words import artin_relation, concat, invert

# `cubartin build` refuses a larger label.  At the bound a `build` subprocess
# (2 vCPU, Python 3.11) takes 1.3 s and peaks at 106 MB on K_m x S^1, the
# slowest shape, 0.5 s / 57 MB on an odd label and 0.3 s / 36 MB on even 20000
MAX_LABEL = 20001


def artin_presentation(g: dg.DefiningGraph) -> Presentation:
    relators = []
    for u, v, m in g.edge_list():
        left, right = artin_relation(u, v, m)
        relators.append(concat(left, invert(right)))
    return Presentation(g.vertices, tuple(relators))


def build_K_odd(
    n: int, u: str = "a", v: str = "b", prefix: str = "", vertex: str | None = None
) -> CubeComplex:
    """Strip complex for a single edge labeled by odd n.

    Two vertices; edges a: v0->v1, b: v1->v0, t: v0->v1 and internal
    verticals e_1 .. e_{n-1}; n squares whose composite boundary spells
    (ab...a) t^-1 (b^-1 a^-1 ... b^-1) t^-1.
    """
    return make_complex(**_odd_cells(n, u, v, prefix, vertex))


def build_K_even(n: int, g: str = "a", prefix: str = "", vertex: str | None = None) -> CubeComplex:
    """Chain complex K_{n,g} for a single edge labeled by even n.

    One vertex; loops g, x and y_1 .. y_{n/2 - 1}; n/2 commutation squares
    y_{i-1} x = x y_i with y_0 = y_{n/2} = g.
    """
    return make_complex(**_even_cells(n, g, prefix, vertex))


def build_salvetti(g: dg.DefiningGraph, vertex: str = "v0") -> CubeComplex:
    """Salvetti complex of a right-angled (all labels 2) defining graph."""
    return make_complex(**_salvetti_cells(g, vertex))


# The builders below return cells, the keyword arguments of make_complex, so
# that a build validates only the complex it returns.

def _odd_cells(n, u, v, prefix, vertex) -> dict:
    if n < 3 or n % 2 == 0:
        raise ValueError("K_n needs an odd label n >= 3")
    v0 = vertex if vertex is not None else prefix + "v0"
    v1 = prefix + "v1"
    t = prefix + "t"
    edges = [
        Edge(u, v0, v1, u),
        Edge(v, v1, v0, v),
        Edge(t, v0, v1),
    ]
    internal = [f"{prefix}e{i}" for i in range(1, n)]
    edges += [Edge(eid, v0, v1) for eid in internal]
    # top path vertices u_i alternate v0, v1, ...; bottom path w_i the
    # reverse; down[i] is the traversal u_i -> w_i
    down = [(t, 1)] + [(eid, -1 if i % 2 else 1) for i, eid in enumerate(internal, 1)] + [(t, -1)]
    squares = []
    for i in range(1, n + 1):
        top = (u, 1) if i % 2 == 1 else (v, 1)
        bottom_back = (v, -1) if i % 2 == 1 else (u, -1)
        up = (down[i - 1][0], -down[i - 1][1])
        squares.append((f"{prefix}s{i}", (top, down[i], bottom_back, up)))
    return dict(vertices=[v0, v1], edges=edges, squares=squares, internal_edges=internal)


def _even_cells(n, g, prefix, vertex) -> dict:
    if n < 2 or n % 2 == 1:
        raise ValueError("K_{n,a} needs an even label n >= 2")
    v0 = vertex if vertex is not None else prefix + "v0"
    half = n // 2
    x = prefix + "x"
    ys = [f"{prefix}y{i}" for i in range(1, half)]
    chain = [g] + ys + [g]
    edges = [Edge(g, v0, v0, g), Edge(x, v0, v0)]
    edges += [Edge(y, v0, v0) for y in ys]
    squares = []
    for i in range(1, half + 1):
        squares.append(
            (f"{prefix}s{i}", ((chain[i - 1], 1), (x, 1), (chain[i], -1), (x, -1)))
        )
    return dict(vertices=[v0], edges=edges, squares=squares, internal_edges=ys)


def _salvetti_cells(g, vertex) -> dict:
    for u, v, m in g.edge_list():
        if m != 2:
            raise ValueError(f"edge {u}-{v} labeled {m}; Salvetti needs all labels 2")
    edges = [Edge(v, vertex, vertex, v) for v in g.vertices]
    squares = []
    for u, v, _ in g.edge_list():
        squares.append((f"sq.{u}.{v}", ((u, 1), (v, 1), (u, -1), (v, -1))))
    pairs = [tuple(sorted(p)) for p in g.edges]
    # one past the bound is enough for make_complex to refuse the complex
    cubes = [frozenset(c) for c in islice(graphs.cliques(g.vertices, pairs), MAX_CUBES + 1)]
    return dict(vertices=[vertex], edges=edges, squares=squares, salvetti_cubes=cubes, base_vertex=vertex)


def _pieces(item, base: str) -> list[dict]:
    """The cells of one plan piece, wedged at the vertex base.  An amalgam
    is the Salvetti complex of its interior graph and one K_{n,s} per leaf,
    glued along the s-circles by sharing their edge ids."""
    if isinstance(item, dg.Circle):
        return [dict(vertices=[base], edges=[Edge(item.vertex, base, base, item.vertex)], squares=[])]
    if isinstance(item, dg.OddEdge):
        return [_odd_cells(item.n, item.u, item.v, f"{item.u}.{item.v}.", base)]
    if isinstance(item, dg.EvenEdge):
        return [_even_cells(item.n, item.generator, f"{item.u}.{item.v}.", base)]
    if isinstance(item, dg.Amalgam):
        leaves = [_even_cells(n, s, f"{s}.{t}.", base) for s, t, n in item.leaves]
        return [_salvetti_cells(item.interior, base)] + leaves
    raise TypeError(f"unknown plan piece {item!r}")


def _merge(pieces: list[dict], base: str) -> dict:
    """The cells of the pieces wedged at base; an edge id shared by two
    pieces must name the same edge, and is kept once."""
    vertices = [base]
    edges, squares, cubes, internal = [], [], [], []
    seen_edges: dict[str, Edge] = {}
    for p in pieces:
        vertices += [v for v in p["vertices"] if v != base]
        for e in p["edges"]:
            if e.eid not in seen_edges:
                seen_edges[e.eid] = e
                edges.append(e)
            elif seen_edges[e.eid] != e:
                raise ValueError(f"edge id {e.eid} names two different edges")
        squares += p["squares"]
        cubes += p.get("salvetti_cubes", ())
        internal += p.get("internal_edges", ())
    salvetti_base = base if any(p.get("base_vertex") for p in pieces) else None
    return dict(
        vertices=vertices, edges=edges, squares=squares, salvetti_cubes=cubes,
        base_vertex=salvetti_base, internal_edges=internal,
    )


def build_from_plan(plan: dg.ConstructionPlan) -> CubeComplex:
    """The complex of a plan, validated once.  A plan times a circle skips
    the link check that `build_product_with_circle` makes on its input: the
    links of the product are those of the input suspended, so the product
    fails `check_npc` whenever its input would."""
    cells = _merge([p for item in plan.pieces for p in _pieces(item, "v0")], "v0")
    if plan.times_circle is not None:
        cells = _product_cells(cells, plan.times_circle)
    return make_complex(**cells)


def build_for_graph(g: dg.DefiningGraph) -> CubeComplex:
    return build_from_plan(dg.amalgam_plan(g))


def build_product_with_circle(k: CubeComplex, z_name: str = "z") -> CubeComplex:
    """Product with a circle: z-loop per vertex, a square per (edge, z) pair,
    a prism per square (and, at a salvetti base, extended cubes)."""
    if check_npc(k):
        raise ValueError("product input fails the link condition")
    cells = dict(
        vertices=k.vertices, edges=k.edges, squares=k.squares, salvetti_cubes=k.salvetti_cubes,
        base_vertex=k.base_vertex, internal_edges=k.internal_edges,
    )
    return make_complex(**_product_cells(cells, z_name))


def _product_cells(k: dict, z_name: str) -> dict:
    """The cells of the product of the cells k with a circle."""
    vertices, base = k["vertices"], k["base_vertex"]
    single = len(vertices) == 1

    def zid(v):
        return z_name if single else f"{z_name}.{v}"

    emap = {e.eid: e for e in k["edges"]}
    edges = list(k["edges"])
    zloops = []
    for v in vertices:
        edges.append(Edge(zid(v), v, v, z_name if single else None))
        zloops.append((v, zid(v)))
    squares = list(k["squares"])
    for e in k["edges"]:
        squares.append(
            (f"zs.{e.eid}", ((e.eid, 1), (zid(e.dst), 1), (e.eid, -1), (zid(e.src), -1)))
        )
    cubes = [frozenset(cube) | {zid(base)} for cube in k["salvetti_cubes"]]
    cubes += k["salvetti_cubes"]
    prisms = []
    for sid, ts in k["squares"]:
        eset = {e for e, _ in ts}
        if (
            base is not None
            and len(eset) == 2
            and all(emap[e].is_loop and emap[e].src == base for e in eset)
        ):
            cubes.append(frozenset(eset | {zid(base)}))
        else:
            prisms.append(sid)
    return dict(
        vertices=vertices, edges=edges, squares=squares, salvetti_cubes=cubes,
        base_vertex=base, prisms=prisms, zloops=zloops, internal_edges=k["internal_edges"],
    )


# -- presentation extraction helpers --------------------------------------

def canonical_spanning_tree(c: CubeComplex) -> frozenset:
    """The t-edges of the strip pieces span every constructed complex."""
    if len(c.vertices) == 1:
        return frozenset()
    tree = {e.eid for e in c.edges if e.eid == "t" or e.eid.endswith(".t")}
    if len(tree) == len(c.vertices) - 1:
        return frozenset(tree)
    # fall back to a BFS tree for foreign complexes; the last edge id of a
    # parallel pair stands for it
    pairs = [(e.src, e.dst) for e in c.edges]
    eid = {frozenset(p): e.eid for p, e in zip(pairs, c.edges)}
    _, tree = graphs.bfs(graphs.adjacency(c.vertices, pairs), min(c.vertices))
    return frozenset(eid[frozenset(p)] for p in tree)


def extracted_presentation(c: CubeComplex) -> Presentation:
    """The composite presentation over the canonical spanning tree."""
    return extract_presentation(c, canonical_spanning_tree(c))

