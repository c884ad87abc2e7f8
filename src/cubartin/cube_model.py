"""Combinatorial cube complexes: cells, vertex links, the curvature check
and the line-oriented file format.  The presentations read off a complex
are in `presentations`.

A complex is a set of vertices, directed edges, and squares (closed boundary
paths of four directed edge traversals).  Higher cubes come in two restricted
shapes, which cover everything the constructions produce:

  * salvetti cubes: cliques of commuting loop edges at a designated base
    vertex (one d-cube per d-clique, closed under subsets), and
  * prisms: square x circle cells from a product with S^1, recorded as the
    square id plus the z-loops at its corner vertices.

Link vertices are edge-ends: an edge u -> v contributes its outgoing end
(e, +1) at u and its incoming end (e, -1) at v (both, for a loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import graphs

Traversal = tuple[str, int]  # (edge id, +1 forward / -1 backward)

# A complex with more Salvetti cubes is refused.  K_n has a cube per clique
# of size >= 3, and K_12 (4017 cubes) builds in about 0.3 s at 21 MB
MAX_CUBES = 4096


@dataclass(frozen=True)
class Edge:
    eid: str
    src: str
    dst: str
    label: str | None = None

    @property
    def is_loop(self) -> bool:
        return self.src == self.dst


@dataclass(frozen=True)
class CubeComplex:
    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]
    squares: tuple[tuple[str, tuple[Traversal, Traversal, Traversal, Traversal]], ...]
    salvetti_cubes: frozenset = frozenset()  # frozensets of loop edge ids, size >= 3
    base_vertex: str | None = None
    prisms: tuple[str, ...] = ()  # square ids with a circle factor
    zloops: tuple[tuple[str, str], ...] = ()  # (vertex, z edge id), for prisms
    internal_edges: frozenset = frozenset()  # chain edges, for composite relators

    def __post_init__(self):
        _validate(self)

    # -- basic accessors --------------------------------------------------

    def edge(self, eid: str) -> Edge:
        return self._edge_map[eid]

    @property
    def _edge_map(self) -> dict[str, Edge]:
        m = getattr(self, "_edge_map_cache", None)
        if m is None:
            m = {e.eid: e for e in self.edges}
            object.__setattr__(self, "_edge_map_cache", m)
        return m


def _validate(c: CubeComplex) -> None:
    vset = set(c.vertices)
    if len(vset) != len(c.vertices):
        raise ValueError("duplicate vertex ids")
    eids = [e.eid for e in c.edges]
    if len(set(eids)) != len(eids):
        raise ValueError("duplicate edge ids")
    sids = [sid for sid, _ in c.squares]
    if len(set(sids)) != len(sids):
        raise ValueError("duplicate square ids")
    for e in c.edges:
        if e.src not in vset or e.dst not in vset:
            raise ValueError(f"edge {e.eid} references unknown vertex")
    emap = {e.eid: e for e in c.edges}
    for sid, ts in c.squares:
        if len(ts) != 4:
            raise ValueError(f"square {sid} does not have 4 sides")
        for i in range(4):
            e, d = ts[i]
            if e not in emap or d not in (1, -1):
                raise ValueError(f"square {sid} has a bad traversal {ts[i]}")
        for i in range(4):
            cur, nxt = ts[i], ts[(i + 1) % 4]
            head = emap[cur[0]].dst if cur[1] == 1 else emap[cur[0]].src
            tail = emap[nxt[0]].src if nxt[1] == 1 else emap[nxt[0]].dst
            if head != tail:
                raise ValueError(f"square {sid} boundary does not close at side {i}")
    # salvetti cubes: loop labels at the base vertex, 2-faces present as squares
    if c.salvetti_cubes:
        if c.base_vertex is None:
            raise ValueError("salvetti cubes need a base vertex")
        if len(c.salvetti_cubes) > MAX_CUBES:
            raise ValueError(f"salvetti cubes exceed the bound of {MAX_CUBES}")
        square_edge_sets = {frozenset(e for e, _ in ts) for _, ts in c.squares}
        for cube in c.salvetti_cubes:
            if len(cube) < 3:
                raise ValueError("salvetti cubes must have dimension >= 3")
            for eid in cube:
                e = emap.get(eid)
                if e is None or not e.is_loop or e.src != c.base_vertex:
                    raise ValueError(f"salvetti cube edge {eid} is not a base loop")
            for pair in combinations(sorted(cube), 2):
                if frozenset(pair) not in square_edge_sets:
                    raise ValueError(f"salvetti cube {sorted(cube)} misses 2-face {pair}")
            # the faces one dimension down suffice: closure follows by induction
            if len(cube) > 3 and any(cube - {e} not in c.salvetti_cubes for e in cube):
                raise ValueError("salvetti cubes not closed under subsets")
    smap = dict(c.squares)
    zmap = dict(c.zloops)
    for sid in c.prisms:
        if sid not in smap:
            raise ValueError(f"prism over unknown square {sid}")
        for t in smap[sid]:
            e = emap[t[0]]
            for v in (e.src, e.dst):
                if v not in zmap:
                    raise ValueError(f"prism over {sid}: no z-loop at vertex {v}")
    for v, z in c.zloops:
        e = emap.get(z)
        if e is None or not e.is_loop or e.src != v:
            raise ValueError(f"z-loop {z} is not a loop at {v}")
    unknown = sorted(c.internal_edges - emap.keys())
    if unknown:
        raise ValueError(f"internal record {unknown[0]} names no edge")


def make_complex(
    vertices,
    edges,
    squares,
    salvetti_cubes=(),
    base_vertex=None,
    prisms=(),
    zloops=(),
    internal_edges=(),
) -> CubeComplex:
    """Convenience constructor normalising the container types."""
    return CubeComplex(
        vertices=tuple(vertices),
        edges=tuple(Edge(*e) if not isinstance(e, Edge) else e for e in edges),
        squares=tuple((sid, tuple(ts)) for sid, ts in squares),
        salvetti_cubes=frozenset(frozenset(s) for s in salvetti_cubes),
        base_vertex=base_vertex,
        prisms=tuple(prisms),
        zloops=tuple(sorted(zloops)),
        internal_edges=frozenset(internal_edges),
    )


# -- links ----------------------------------------------------------------

@dataclass(frozen=True)
class LinkComplex:
    """A vertex link's ends and corners.  Its filled simplices are not kept:
    `_filled_triangles` states which triangles are filled."""

    base: str
    link_vertices: tuple[Traversal, ...]
    link_edges: tuple[tuple[str, frozenset], ...]  # (owning cell id, end pair)


def vertex_links(c: CubeComplex) -> dict[str, LinkComplex]:
    """Every vertex link, from one pass over the edges and squares;
    memoised on the complex like its edge map."""
    links = getattr(c, "_links_cache", None)
    if links is not None:
        return links
    ends, corners = ({v: [] for v in c.vertices} for _ in range(2))
    for e in c.edges:
        ends[e.src].append((e.eid, 1))
        ends[e.dst].append((e.eid, -1))
    emap = c._edge_map
    # the corner after a side joins the side's incoming end to the next
    # side's outgoing end, at the side's head
    for sid, ts in c.squares:
        for (e, d), nxt in zip(ts, ts[1:] + ts[:1]):
            edge = emap[e]
            corners[edge.dst if d == 1 else edge.src].append((sid, frozenset(((e, -d), nxt))))
    links = {v: LinkComplex(v, tuple(sorted(ends[v])), tuple(corners[v])) for v in c.vertices}
    object.__setattr__(c, "_links_cache", links)
    return links


def vertex_link(c: CubeComplex, v: str) -> LinkComplex:
    link = vertex_links(c).get(v)
    if link is None:
        raise ValueError(f"unknown vertex {v!r}")
    return link


# -- nonpositive curvature ------------------------------------------------

@dataclass(frozen=True)
class NpcViolation:
    vertex: str
    kind: str  # "loop" | "bigon" | "non-flag"
    detail: str


def check_npc(c: CubeComplex) -> list[NpcViolation]:
    """Gromov link criterion: every vertex link simple and flag.

    Empty list means nonpositively curved.  Otherwise it holds one witness
    per failing vertex, in vertex order: the first violation that a walk of
    the vertex's link meets, through its corners in square order for folds
    and repeats, then through its cliques by size and, within a size, in
    sorted-end order.  For 2-dimensional complexes the flag condition is the
    absence of triangles in the link graph.  `_corner_screen` finds every
    witness without building a link.
    """
    witness = _corner_screen(c)
    return [witness[v] for v in c.vertices if v in witness]


def _corner_screen(c: CubeComplex) -> dict[str, NpcViolation]:
    """The first violation at each vertex whose link fails, from one pass
    over the square corners in integer codes.

    End (e, +1) of the i-th edge is 2i and (e, -1) is 2i + 1.  Every end lies
    at one vertex, so the links together form one graph on the codes.  The
    pass meets each vertex's corners in square order, so its first folded or
    repeated corner is the walk's first violation there.  A triangle of the
    graph is a triangle of one link: a shared neighbour of the two ends of a
    corner (Chiba and Nishizeki, SIAM J. Comput. 14, 1985).  At a simple
    link the walk meets the triangles first, so the witness is the least
    triangle, in sorted-end order, that reuses an edge or is not one of the
    filled triangles (`_filled_triangles`).

    A larger clique all of whose triangles are filled can fail only at the
    Salvetti base: each of its triangles but those through one z-end is a
    corner of a 3-cube, so its edges are base loops, pairwise joined in the
    link.  The base is therefore screened by the sets of four or more base
    loops pairwise joined in the link that are not cubes, 2^n label cliques
    on K_n.  Such a set need not span a clique of the link, as the signs of
    its joins need not agree, so only then are the cliques of the base
    loops' ends walked, up to the first of four or more ends whose edges
    are not a cube."""
    code = {}
    for i, e in enumerate(c.edges):
        code[e.eid, 1], code[e.eid, -1] = 2 * i, 2 * i + 1

    def vertex(p):
        e = c.edges[p >> 1]
        return e.dst if p & 1 else e.src

    def end(p):
        return c.edges[p >> 1].eid, -1 if p & 1 else 1

    witness = {}

    def fail(v, kind, detail):
        witness.setdefault(v, NpcViolation(v, kind, detail))

    adj = [set() for _ in range(2 * len(c.edges))]
    for sid, ts in c.squares:
        w, x, y, z = map(code.__getitem__, ts)
        # the corner after a side joins the side's incoming end (its code
        # with the low bit flipped) to the next side's outgoing end
        for p, q in ((w ^ 1, x), (x ^ 1, y), (y ^ 1, z), (z ^ 1, w)):
            if p == q:
                fail(vertex(p), "loop", f"cell {sid} folds the end {end(p)}")
            elif q in adj[p]:
                a, b = sorted((end(p), end(q)))
                fail(vertex(p), "bigon", f"repeated link edge {a}-{b} (cell {sid})")
            else:
                adj[p].add(q)
                adj[q].add(p)
    filled = None  # built at the first triangle, so 2-complexes never pay
    least = {}  # per vertex, its least unfilled triangle as sorted ends
    for p, ns in enumerate(adj):
        for q in ns:
            if q > p and not ns.isdisjoint(adj[q]):
                if filled is None:
                    filled = _filled_triangles(c, code, vertex)
                for r in ns & adj[q]:
                    if r > q and (p, q, r) not in filled:
                        v, corner = vertex(p), sorted(map(end, (p, q, r)))
                        if v not in least or corner < least[v]:
                            least[v] = corner
    for v, corner in least.items():
        if len({e for e, _ in corner}) < 3:
            fail(v, "non-flag", f"clique reuses an edge: {corner}")
        else:
            fail(v, "non-flag", f"empty triangle {corner}")
    base = c.base_vertex
    if filled and base is not None and base not in witness:
        loops = {i for i, e in enumerate(c.edges) if e.src == e.dst == base}
        pairs = [
            (i, q >> 1) for i in loops for q in adj[2 * i] | adj[2 * i + 1] if q >> 1 in loops
        ]
        if any(
            len(clique) > 3 and frozenset(c.edges[i].eid for i in clique) not in c.salvetti_cubes
            for clique in graphs.cliques(sorted(loops), pairs)
        ):
            ends = [p for i in loops for p in (2 * i, 2 * i + 1)]
            pairs = [(end(p), end(q)) for p in ends for q in adj[p] if q > p and q >> 1 in loops]
            for clique in graphs.cliques(sorted(map(end, ends)), pairs):
                if len(clique) > 3 and frozenset(e for e, _ in clique) not in c.salvetti_cubes:
                    fail(base, "non-flag", f"empty {len(clique)}-clique {clique}")
                    break
    return witness


def _filled_triangles(c: CubeComplex, code, vertex) -> set[tuple[int, int, int]]:
    """The filled link triangles on three distinct edges, as sorted code
    triples: the signed corners of the 3-cubes at the Salvetti base, and the
    simplices (p, q, z+) and (p, q, z-) at each corner (p, q) of a prism,
    where z is the z-loop at the corner's vertex.  This is the one statement
    of which link triangles are filled; a larger simplex is filled only at
    the Salvetti base, where it is a signed corner of a cube."""
    filled = set()
    for cube in c.salvetti_cubes:
        if len(cube) == 3:
            a, b, d = ((code[e, 1], code[e, -1]) for e in cube)
            filled.update(tuple(sorted((p, q, r))) for p in a for q in b for r in d)
    zmap = dict(c.zloops)
    smap = dict(c.squares)
    for sid in c.prisms:
        w, x, y, z = map(code.__getitem__, smap[sid])
        for p, q in ((w ^ 1, x), (x ^ 1, y), (y ^ 1, z), (z ^ 1, w)):
            zcode = code[zmap[vertex(p)], 1]
            for end in (zcode, zcode + 1):
                corner = (p, q, end)
                if len({t >> 1 for t in corner}) == 3:
                    filled.add(tuple(sorted(corner)))
    return filled


def euler_characteristic(c: CubeComplex) -> int:
    chi = len(c.vertices) - len(c.edges) + len(c.squares)
    chi -= len(c.prisms)  # 3-cells
    for cube in c.salvetti_cubes:
        chi += (-1) ** len(cube)
    return chi


# -- serialization --------------------------------------------------------

def complex_text(c: CubeComplex) -> str:
    lines = ["cubecomplex 1"]
    for v in c.vertices:
        lines.append(f"vertex {v}")
    for e in c.edges:
        rec = f"edge {e.eid} {e.src} {e.dst}"
        if e.label is not None:
            rec += f" {e.label}"
        lines.append(rec)
    for sid, ts in c.squares:
        sides = " ".join(f"{e}{'+' if d == 1 else '-'}" for e, d in ts)
        lines.append(f"square {sid} {sides}")
    for cube in sorted(c.salvetti_cubes, key=sorted):
        lines.append("cube " + " ".join(sorted(cube)))
    for sid in c.prisms:
        lines.append(f"prism {sid}")
    for v, z in c.zloops:
        lines.append(f"zloop {v} {z}")
    if c.base_vertex is not None:
        lines.append(f"base {c.base_vertex}")
    for eid in sorted(c.internal_edges):
        lines.append(f"internal {eid}")
    return "\n".join(lines) + "\n"


class ComplexParseError(ValueError):
    pass


def parse_complex(text: str) -> CubeComplex:
    vertices, edges, squares = [], [], []
    cubes, prisms, zloops, internal = [], [], [], []
    base = None
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0].split() != ["cubecomplex", "1"]:
        raise ComplexParseError("missing 'cubecomplex 1' header")
    for ln in lines[1:]:
        parts = ln.split()
        kind = parts[0]
        try:
            if kind == "vertex" and len(parts) == 2:
                vertices.append(parts[1])
            elif kind == "edge" and len(parts) in (4, 5):
                label = parts[4] if len(parts) == 5 else None
                edges.append(Edge(parts[1], parts[2], parts[3], label))
            elif kind == "square" and len(parts) == 6:
                ts = []
                for item in parts[2:]:
                    if item[-1] not in "+-":
                        raise ComplexParseError(f"bad traversal {item!r}")
                    ts.append((item[:-1], 1 if item[-1] == "+" else -1))
                squares.append((parts[1], tuple(ts)))
            elif kind == "cube" and len(parts) >= 4:
                cubes.append(frozenset(parts[1:]))
            elif kind == "prism" and len(parts) == 2:
                prisms.append(parts[1])
            elif kind == "zloop" and len(parts) == 3:
                zloops.append((parts[1], parts[2]))
            elif kind == "base" and len(parts) == 2:
                base = parts[1]
            elif kind == "internal" and len(parts) == 2:
                internal.append(parts[1])
            else:
                raise ComplexParseError(f"bad record {ln!r}")
        except ComplexParseError:
            raise
        except ValueError as exc:
            raise ComplexParseError(str(exc)) from None
    try:
        return make_complex(
            vertices, edges, squares, cubes, base, prisms, zloops, internal
        )
    except ValueError as exc:
        raise ComplexParseError(str(exc)) from None
