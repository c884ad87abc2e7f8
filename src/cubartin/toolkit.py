"""Hyperplane combinatorics on finite CAT(0) cube complexes.

Everything is combinatorial (1-skeleton / l^1 metric): hyperplanes are
classes of edges under "opposite in a common square", halfspaces are the
two vertex sides, and the distance between vertices is the number of
separating hyperplanes.  Vertices carry side-bitmask coordinates, so set
operations reduce to integer arithmetic.

A CubicalStructure certifies its complex as it labels the vertices, and
is_median is that certificate as a predicate.  Both refuse complexes above
MAX_VERTICES = 2000 vertices, where a path takes 2-3 s and a 44 x 44
grid 0.3-0.4 s (Python 3.11, 2 vCPUs).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import graphs
from .cube_model import CubeComplex, Edge, make_complex


class NotCat0Error(ValueError):
    pass


@dataclass(frozen=True)
class Hyperplane:
    hid: int
    edges: frozenset  # dual edge ids
    minus: frozenset  # vertex side containing the least vertex
    plus: frozenset


@dataclass(frozen=True)
class GatePair:
    v1: frozenset
    v2: frozenset
    separators: frozenset  # hyperplane ids separating Y1 from Y2
    matching: dict  # v1 vertex -> nearest v2 vertex

    @property
    def delta_sep(self) -> int:
        return len(self.separators)


@dataclass(frozen=True)
class ParallelDecomposition:
    base: frozenset  # Y
    copies: tuple  # parallel copies of Y, as vertex sets (Y included)
    parallel_set: frozenset  # P_Y = hull of the union
    orthogonal: frozenset  # Y-perp, the fiber through min(Y)


@dataclass(frozen=True)
class ProductPartition:
    classes: tuple  # tuple of frozensets of hyperplane ids
    factors: tuple  # tuple of vertex sets, one per class


def _edge_classes(c: CubeComplex) -> list[frozenset]:
    """Partition edge ids by the transitive closure of square-opposition."""
    opposite = []
    for _, ts in c.squares:
        opposite += [(ts[0][0], ts[2][0]), (ts[1][0], ts[3][0])]
    groups = graphs.components((e.eid for e in c.edges), opposite)
    return sorted((frozenset(g) for g in groups), key=sorted)


def _hull_mask(coords) -> tuple[int, int]:
    """(fixed, value) for a nonempty set of side bitmasks: the hyperplanes
    the set does not cross, and the side it lies on for each.  The set's
    convex hull, the intersection of the halfspaces containing it, is every
    vertex x with (x ^ value) & fixed == 0."""
    lo, hi = -1, 0
    for x in coords:
        lo &= x
        hi |= x
    return ~(lo ^ hi), lo


MAX_VERTICES = 2000  # for every CubicalStructure, so for every is_median


class CubicalStructure:
    """Hyperplane handle over a complex it certifies as CAT(0): NotCat0Error
    unless the 1-skeleton is a median graph (Chepoi 2000).

    Coordinates are integer bitmasks (bit h set iff the vertex lies in the
    plus side of hyperplane h), so d(u, v) = popcount(coord_u ^ coord_v).
    A vertex's coordinate is its BFS parent's XOR the tree edge's class bit
    (Eppstein, JGAA 15, 2011).  Mulder's characterization is then checked:
    every edge flips exactly its own bit; no u != v agrees with v on every
    bit that v's edges flip (so Hamming distance is graph distance, and
    each class cuts the graph into two convex halfspaces); and each side of
    every hyperplane's carrier is convex.  Cost: O(V + E) for the labels,
    then O(V^2) and O(H V) integer operations.
    """

    def __init__(self, c: CubeComplex):
        if len(c.vertices) > MAX_VERTICES:
            raise ValueError(f"{len(c.vertices)} vertices exceed the bound {MAX_VERTICES}")
        if not c.vertices:
            raise NotCat0Error("empty complex")
        self.complex = c
        classes = _edge_classes(c)
        bit = {eid: 1 << hid for hid, cls in enumerate(classes) for eid in cls}
        step = {}
        for e in c.edges:
            if e.is_loop:
                raise NotCat0Error(f"loop edge {e.eid}: not simply connected")
            step[e.src, e.dst] = step[e.dst, e.src] = bit[e.eid]
        root = min(c.vertices)
        reached, tree = graphs.bfs(graphs.adjacency(c.vertices, step), root)
        if len(reached) != len(c.vertices):
            raise NotCat0Error(f"{len(c.vertices) - len(reached)} vertices not connected to {root}")
        label = {root: 0}
        for u, v in tree:
            label[v] = label[u] ^ step[u, v]
        flips = dict.fromkeys(c.vertices, 0)
        for e in c.edges:
            if label[e.src] ^ label[e.dst] != bit[e.eid]:
                raise NotCat0Error(f"edge {e.eid} does not flip exactly its hyperplane")
            flips[e.src] |= bit[e.eid]
            flips[e.dst] |= bit[e.eid]
        self.coords: dict[str, int] = {v: label[v] for v in c.vertices}
        cs = list(self.coords.values())
        if len(set(cs)) != len(cs):
            raise NotCat0Error("two vertices share a coordinate")
        for v, f in flips.items():
            if [x & f for x in cs].count(self.coords[v] & f) != 1:
                raise NotCat0Error(f"graph distance from {v} exceeds the Hamming distance")
        everything = frozenset(c.vertices)
        hyperplanes = []
        for hid, cls in enumerate(classes):
            ends = {self.coords[v] for e in map(c.edge, cls) for v in (e.src, e.dst)}
            for side in (1, 0):
                carrier = [x for x in ends if x >> hid & 1 == side]
                free = ~_hull_mask(carrier)[0]  # x is in the hull iff x | free == y | free
                if [x | free for x in cs].count(carrier[0] | free) != len(carrier):
                    raise NotCat0Error(f"carrier of hyperplane {hid} is not convex")
            # copied from a set, so sized once: grown from a generator it
            # can take twice the memory, and H of them are kept
            plus = frozenset({v for v, x in self.coords.items() if x >> hid & 1})
            hyperplanes.append(Hyperplane(hid, cls, everything - plus, plus))
        self.hyperplanes: tuple[Hyperplane, ...] = tuple(hyperplanes)
        self._edge_to_hid = {eid: h.hid for h in self.hyperplanes for eid in h.edges}

    # -- metric -------------------------------------------------------------

    def distance(self, u: str, v: str) -> int:
        return (self.coords[u] ^ self.coords[v]).bit_count()

    def hyperplane_of(self, eid: str) -> Hyperplane:
        return self.hyperplanes[self._edge_to_hid[eid]]

    def crosses(self, s) -> frozenset:
        """Hyperplane ids with vertices of s on both sides."""
        s = set(s)
        if not s:
            return frozenset()
        fixed, _ = _hull_mask(self.coords[v] for v in s)
        return frozenset(h.hid for h in self.hyperplanes if not fixed >> h.hid & 1)

    def crossing(self, h1: Hyperplane, h2: Hyperplane) -> bool:
        return all(a & b for a in (h1.plus, h1.minus) for b in (h2.plus, h2.minus))

    def _side_of(self, h: Hyperplane, s) -> int:
        """1 or -1 when the nonempty s lies in the plus or minus side of h,
        0 when h crosses it."""
        fixed, value = _hull_mask(self.coords[v] for v in s)
        if not fixed >> h.hid & 1:
            return 0
        return 1 if value >> h.hid & 1 else -1

    def carrier_vertices(self, h: Hyperplane) -> frozenset:
        edges = [self.complex.edge(eid) for eid in h.edges]
        return frozenset(v for e in edges for v in (e.src, e.dst))

    # -- hulls and gates ----------------------------------------------------

    def convex_hull(self, s) -> frozenset:
        """Intersection of all halfspaces containing s."""
        s = set(s)
        if not s:
            raise ValueError("empty vertex set has no hull")
        if not all(v in self.coords for v in s):
            raise ValueError("vertex set not in the complex")
        fixed, value = _hull_mask(self.coords[v] for v in s)
        return frozenset(v for v, x in self.coords.items() if (x ^ value) & fixed == 0)

    def is_convex(self, s) -> bool:
        return self.convex_hull(s) == frozenset(s)

    def separators(self, y1, y2) -> frozenset:
        """Hyperplane ids with y1 on one side and y2 on the other."""
        (f1, v1), (f2, v2) = (_hull_mask(self.coords[v] for v in y) for y in (y1, y2))
        sep = f1 & f2 & (v1 ^ v2)
        return frozenset(h.hid for h in self.hyperplanes if sep >> h.hid & 1)

    def gates(self, y1, y2) -> GatePair:
        y1, y2 = frozenset(y1), frozenset(y2)
        if not self.is_convex(y1) or not self.is_convex(y2):
            raise ValueError("gates need convex inputs")
        sep = self.separators(y1, y2)
        delta = len(sep)
        v1 = frozenset(v for v in y1 if min(self.distance(v, w) for w in y2) == delta)
        v2 = frozenset(v for v in y2 if min(self.distance(v, w) for w in y1) == delta)
        matching = {}
        for v in sorted(v1):
            partners = [w for w in sorted(v2) if self.distance(v, w) == delta]
            if len(partners) != 1:
                raise NotCat0Error(f"gate projection not unique at {v}")
            matching[v] = partners[0]
        return GatePair(v1, v2, sep, matching)

    def check_gate_edge_duality(self, gp: GatePair):
        """Every hyperplane dual to an edge of V1 must meet V2 (and dually)."""
        for side, other in ((gp.v1, gp.v2), (gp.v2, gp.v1)):
            for e in self.complex.edges:
                if e.src in side and e.dst in side:
                    h = self.hyperplane_of(e.eid)
                    if not (other & h.plus and other & h.minus):
                        return False, (e.eid, h.hid)
        return True, None

    # -- parallel sets and products ------------------------------------------

    def parallel_set(self, y) -> ParallelDecomposition:
        y = frozenset(y)
        if not self.is_convex(y):
            raise ValueError("parallel_set needs a convex input")
        h1 = self.crosses(y)
        mask = sum(1 << h for h in h1)
        outer = ~mask
        # fibers: vertex classes with identical coordinates away from H1
        fibers: dict[int, set] = {}
        for v in self.complex.vertices:
            fibers.setdefault(self.coords[v] & outer, set()).add(v)
        copies = []
        for key in sorted(fibers):
            fiber = frozenset(fibers[key])
            if self.crosses(fiber) == h1:
                copies.append(fiber)
        union = set().union(*copies)
        py = self.convex_hull(union)
        base = min(y)
        ortho = frozenset(
            v for v in py if self.coords[v] & mask == self.coords[base] & mask
        )
        return ParallelDecomposition(y, tuple(copies), py, ortho)

    def product_decompose(self) -> ProductPartition:
        """Finest hyperplane partition into pairwise-crossing classes."""
        disjoint = [
            (h1.hid, h2.hid)
            for h1, h2 in combinations(self.hyperplanes, 2)
            if not self.crossing(h1, h2)
        ]
        comps = graphs.components((h.hid for h in self.hyperplanes), disjoint)
        classes = sorted((frozenset(comp) for comp in comps), key=sorted)
        base = min(self.complex.vertices) if self.complex.vertices else None
        factors = []
        for cls in classes:
            outer = sum(1 << h.hid for h in self.hyperplanes if h.hid not in cls)
            fixed = self.coords[base] & outer
            factors.append(
                frozenset(v for v in self.complex.vertices if self.coords[v] & outer == fixed)
            )
        return ProductPartition(tuple(classes), tuple(factors))

    def has_facing_triple(self):
        """Three pairwise-disjoint hyperplanes, none separating the other two."""
        carriers = {h.hid: self.carrier_vertices(h) for h in self.hyperplanes}
        for triple in combinations(self.hyperplanes, 3):
            if any(self.crossing(a, b) for a, b in combinations(triple, 2)):
                continue
            if all(
                len({self._side_of(h, carriers[o.hid]) for o in triple if o is not h}) == 1
                for h in triple
            ):
                return True, tuple(h.hid for h in triple)
        return False, None


# -- wallspaces and the Sageev dual ----------------------------------------

@dataclass(frozen=True)
class Wallspace:
    n_points: int
    walls: tuple  # frozensets of point indices (the side containing no point 0,
    # or either side; sides are normalized to exclude point 0)

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError(f"{self.n_points} points: a wallspace needs at least one")
        for w in self.walls:
            if not w or len(w) == self.n_points:
                raise ValueError("wall has an empty side")
            if not all(0 <= p < self.n_points for p in w):
                raise ValueError("wall references an unknown point")
        if len(set(self.walls)) != len(self.walls):
            raise ValueError("duplicate wall")


class WallspaceParseError(ValueError):
    pass


def parse_wallspace(text: str) -> Wallspace:
    """`points n` then `wall <bitmask>` lines, bitmask = n chars of 0/1."""
    n = None
    walls = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "points" and len(parts) == 2:
            if n is not None:
                raise WallspaceParseError(f"line {line_no}: repeated points record")
            try:
                n = int(parts[1])
            except ValueError:
                raise WallspaceParseError(f"line {line_no}: bad point count {parts[1]!r}") from None
        elif parts[0] == "wall" and len(parts) == 2:
            if n is None:
                raise WallspaceParseError(f"line {line_no}: wall before points")
            bits = parts[1]
            if len(bits) != n or set(bits) - {"0", "1"}:
                raise WallspaceParseError(f"line {line_no}: bad bitmask {bits!r}")
            side = frozenset(i for i, ch in enumerate(bits) if ch == "1")
            # normalize so the recorded side excludes point 0
            if 0 in side:
                side = frozenset(range(n)) - side
            walls.append(side)
        else:
            raise WallspaceParseError(f"line {line_no}: bad record {line!r}")
    if n is None:
        raise WallspaceParseError("missing points record")
    try:
        return Wallspace(n, tuple(walls))
    except ValueError as exc:
        raise WallspaceParseError(str(exc)) from None


def wallspace_text(w: Wallspace) -> str:
    lines = [f"points {w.n_points}"]
    for side in w.walls:
        lines.append("wall " + "".join("1" if i in side else "0" for i in range(w.n_points)))
    return "\n".join(lines) + "\n"


MAX_WALLS = 16  # so at most 2^16 orientations


def sageev_dual(w: Wallspace) -> CubeComplex:
    """Dual cube complex of a finite wallspace (as its 2-skeleton).

    Vertices are consistent orientations (a chosen side per wall, pairwise
    intersecting), reached by breadth-first single-wall flips from the
    principal orientations of the points; edges are single-wall flips and
    squares come from commuting flip pairs.
    """
    k = len(w.walls)
    if k > MAX_WALLS:
        raise ValueError(f"{k} walls exceed the bound {MAX_WALLS}")
    # a point's pattern has bit i when it lies on the recorded side of wall i,
    # the side without point 0; the principal orientations are the patterns
    pattern: dict[int, int] = {}
    for i, side in enumerate(w.walls):
        for p in side:
            pattern[p] = pattern.get(p, 0) | 1 << i
    patterns = sorted({0, *pattern.values()})  # point 0 has pattern 0
    # per wall, its two sides as masks over the patterns: two sides meet when
    # a point, so a pattern, lies on both
    full = (1 << len(patterns)) - 1
    recorded = [sum(1 << n for n, q in enumerate(patterns) if q >> i & 1) for i in range(k)]
    sides = [(full ^ side, side) for side in recorded]

    def consistent(bits: int) -> bool:
        chosen = [sides[i][(bits >> i) & 1] for i in range(k)]
        return all(a & b for a, b in combinations(chosen, 2))

    seen = set(patterns)
    queue = patterns
    while queue:
        nxt = []
        for bits in queue:
            for i in range(k):
                flip = bits ^ (1 << i)
                if flip not in seen and consistent(flip):
                    seen.add(flip)
                    nxt.append(flip)
        queue = sorted(set(nxt))
    order = {bits: idx for idx, bits in enumerate(sorted(seen))}

    def vid(bits):
        return f"o{order[bits]}"

    def eid(bits, i):
        return f"e{order[bits]}.w{i}"

    vertices = [vid(b) for b in sorted(seen)]
    edges = []
    for bits in sorted(seen):
        for i in range(k):
            flip = bits ^ (1 << i)
            if flip in seen and not bits >> i & 1:
                edges.append(Edge(eid(bits, i), vid(bits), vid(flip)))
    squares = []
    for bits in sorted(seen):
        for i, j in combinations(range(k), 2):
            if bits >> i & 1 or bits >> j & 1:
                continue
            bi, bj, bij = bits ^ (1 << i), bits ^ (1 << j), bits ^ (1 << i) ^ (1 << j)
            if bi in seen and bj in seen and bij in seen:
                ts = ((eid(bits, i), 1), (eid(bi, j), 1), (eid(bj, i), -1), (eid(bits, j), -1))
                squares.append((f"s{order[bits]}.w{i}.w{j}", ts))
    return make_complex(vertices, edges, squares)


# -- median certificate ------------------------------------------------------

def is_median(c: CubeComplex) -> bool:
    """Whether the 1-skeleton is a median graph, that is, whether
    CubicalStructure certifies c; ValueError above MAX_VERTICES."""
    try:
        CubicalStructure(c)
    except NotCat0Error:
        return False
    return True


# -- small factory complexes -------------------------------------------------

def path_complex(n: int) -> CubeComplex:
    """A path with n edges."""
    vertices = [f"p{i}" for i in range(n + 1)]
    edges = [Edge(f"e{i}", f"p{i}", f"p{i + 1}") for i in range(n)]
    return make_complex(vertices, edges, [])


def tree_complex(pairs) -> CubeComplex:
    """A tree from (parent, child) name pairs."""
    vertices = sorted({v for p in pairs for v in p})
    edges = [Edge(f"e.{u}.{v}", u, v) for u, v in pairs]
    c = make_complex(vertices, edges, [])
    pairs = [(e.src, e.dst) for e in edges]
    if len(edges) != len(vertices) - 1 or len(graphs.components(vertices, pairs)) != 1:
        raise ValueError("pairs do not form a tree")
    return c


def grid_complex(rows: int, cols: int) -> CubeComplex:
    """A rows x cols grid of squares."""
    vertices = [f"v{i}.{j}" for i in range(rows + 1) for j in range(cols + 1)]
    edges = []
    for i in range(rows + 1):
        for j in range(cols + 1):
            if j < cols:
                edges.append(Edge(f"h{i}.{j}", f"v{i}.{j}", f"v{i}.{j + 1}"))
            if i < rows:
                edges.append(Edge(f"u{i}.{j}", f"v{i}.{j}", f"v{i + 1}.{j}"))
    squares = []
    for i in range(rows):
        for j in range(cols):
            squares.append(
                (
                    f"s{i}.{j}",
                    (
                        (f"h{i}.{j}", 1),
                        (f"u{i}.{j + 1}", 1),
                        (f"h{i + 1}.{j}", -1),
                        (f"u{i}.{j}", -1),
                    ),
                )
            )
    return make_complex(vertices, edges, squares)


def hypercube_complex(k: int) -> CubeComplex:
    """The 2-skeleton of a k-cube."""
    vertices = [f"c{bits:0{max(k, 1)}b}" for bits in range(1 << k)]

    def vid(bits):
        return f"c{bits:0{max(k, 1)}b}"

    edges = []
    for bits in range(1 << k):
        for i in range(k):
            if not bits >> i & 1:
                edges.append(Edge(f"e{bits}.{i}", vid(bits), vid(bits | 1 << i)))
    squares = []
    for bits in range(1 << k):
        for i, j in combinations(range(k), 2):
            if bits >> i & 1 or bits >> j & 1:
                continue
            squares.append(
                (
                    f"s{bits}.{i}.{j}",
                    (
                        (f"e{bits}.{i}", 1),
                        (f"e{bits | 1 << i}.{j}", 1),
                        (f"e{bits | 1 << j}.{i}", -1),
                        (f"e{bits}.{j}", -1),
                    ),
                )
            )
    return make_complex(vertices, edges, squares)
