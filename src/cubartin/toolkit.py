"""Hyperplane combinatorics on finite CAT(0) cube complexes.

Everything is combinatorial (1-skeleton / l^1 metric): hyperplanes are
classes of edges under "opposite in a common square", halfspaces are the
two vertex sides, and the distance between vertices is the number of
separating hyperplanes.  Vertices carry side-bitmask coordinates, so set
operations reduce to integer arithmetic.

A CubicalStructure certifies its complex as it labels the vertices, and
is_median is that certificate as a predicate.  Both refuse complexes above
MAX_VERTICES = 2000 vertices, and so does sageev_dual.  At that bound
(Python 3.11, 2 vCPUs) the certificate takes 0.02-0.04 s on a path, 0.04-0.05
s on a 44 x 44 grid, 0.04 s on the 10-cube and 0.31 s on a 3 x 666 grid, the
slowest shape found; gates between two halves and product_decompose take at
most 5 ms, and has_facing_triple 2.8-2.9 s on the path (budget 10 s).
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
    hid: int  # its bit in every vertex coordinate
    edges: frozenset  # dual edge ids


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
    (Eppstein, JGAA 15, 2011).  Mulder's characterization is then checked
    in three passes: (E) every edge flips exactly its own class bit and (D)
    the coordinates are distinct, O(V + E) with connectivity; (C) on each
    side of every hyperplane, the carrier is exactly the vertices inside its
    hull mask, O(H V) integer operations at most, as a side that fills its
    subcube needs no scan.

    These imply that graph distance is Hamming distance, so each class cuts
    the graph into two convex halfspaces.  Otherwise take u, v with graph
    distance above Hamming distance at the least graph distance.  A geodesic
    between them starts and ends with edges of one class h, and its interior
    is a Hamming geodesic on one side of h; by (C) every interior vertex has
    an h-neighbour, so minimality forces length 3: u and v differ in one bit
    k and are not adjacent.  The chain of squares joining the two h-edges
    walks from u to v on u's side of h; its first k-edge starts at a vertex
    p on u's k-side.  The k-carrier on that side holds p and u's
    h-neighbour, so its hull holds u, and by (C) u has a k-edge, whose far
    end is v by (E) and (D): u and v are adjacent after all.

    A vertex's side of h is bit h of its coordinate, and nothing else
    stores it.  Each hyperplane keeps the hull mask of its carrier: as
    hyperplanes are connected, its free bits are h and exactly the
    hyperplanes crossing h, and its value bits give the side of every
    other hyperplane the carrier lies on.
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
        for e in c.edges:
            if label[e.src] ^ label[e.dst] != bit[e.eid]:
                raise NotCat0Error(f"edge {e.eid} does not flip exactly its hyperplane")
        self.coords: dict[str, int] = {v: label[v] for v in c.vertices}
        self._vertex = {x: v for v, x in self.coords.items()}
        if len(self._vertex) != len(self.coords):
            raise NotCat0Error("two vertices share a coordinate")
        cs = list(self._vertex)
        self._carriers = []  # (fixed, value) of each carrier's hull
        for hid, cls in enumerate(classes):
            ends = {self.coords[v] for e in map(c.edge, cls) for v in (e.src, e.dst)}
            for side in (1, 0):
                carrier = [x for x in ends if x >> hid & 1 == side]
                free = ~_hull_mask(carrier)[0]  # x is in the hull iff x | free == y | free
                if len(carrier) == 1 << free.bit_count():
                    continue  # the carrier fills its subcube, so it is its hull
                if [x | free for x in cs].count(carrier[0] | free) != len(carrier):
                    raise NotCat0Error(f"carrier of hyperplane {hid} is not convex")
            self._carriers.append(_hull_mask(ends))
        self.hyperplanes = tuple(Hyperplane(hid, cls) for hid, cls in enumerate(classes))

    # -- metric -------------------------------------------------------------

    def distance(self, u: str, v: str) -> int:
        return (self.coords[u] ^ self.coords[v]).bit_count()

    def crosses(self, s) -> frozenset:
        """Hyperplane ids with vertices of s on both sides."""
        s = set(s)
        if not s:
            return frozenset()
        fixed, _ = _hull_mask(self.coords[v] for v in s)
        return frozenset(graphs.bits(~fixed))

    def _disjoint(self) -> list[int]:
        """Per hyperplane, the mask of the hyperplanes it does not cross
        (itself included), as a nonnegative H-bit integer."""
        full = (1 << len(self._carriers)) - 1
        return [(fixed | 1 << hid) & full for hid, (fixed, _) in enumerate(self._carriers)]

    def crossing(self, h1: Hyperplane, h2: Hyperplane) -> bool:
        """Whether h2 cuts h1's carrier, so all four quadrants meet."""
        return not (self._carriers[h1.hid][0] | 1 << h1.hid) >> h2.hid & 1

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

    def gates(self, y1, y2) -> GatePair:
        """Convex sets of a median graph are gated: the gate of x in a convex
        Y with hull mask (fixed, value) has coordinate x & ~fixed | value &
        fixed (Chepoi 2000).  V1 is the gates of Y2 in Y1, each matched to
        its own gate in Y2, and V2 is the matched vertices; the separators
        are fixed by both masks to different values.  O(|Y1| + |Y2|) mask
        operations after the O(V) convexity checks."""
        y1, y2 = frozenset(y1), frozenset(y2)
        if not self.is_convex(y1) or not self.is_convex(y2):
            raise ValueError("gates need convex inputs")
        (f1, c1), (f2, c2) = (_hull_mask(self.coords[v] for v in y) for y in (y1, y2))
        v1 = frozenset(self._vertex[self.coords[w] & ~f1 | c1 & f1] for w in y2)
        matching = {v: self._vertex[self.coords[v] & ~f2 | c2 & f2] for v in sorted(v1)}
        separators = frozenset(graphs.bits(f1 & f2 & (c1 ^ c2)))
        return GatePair(v1, frozenset(matching.values()), separators, matching)

    def check_gate_edge_duality(self, gp: GatePair):
        """Every hyperplane dual to an edge of V1 must meet V2 (and dually)."""
        for side, other in ((gp.v1, gp.v2), (gp.v2, gp.v1)):
            fixed, _ = _hull_mask(self.coords[v] for v in other)
            for e in self.complex.edges:
                if e.src in side and e.dst in side:
                    flip = self.coords[e.src] ^ self.coords[e.dst]
                    if fixed & flip:
                        return False, (e.eid, flip.bit_length() - 1)
        return True, None

    # -- products --------------------------------------------------------------

    def product_decompose(self) -> ProductPartition:
        """Finest hyperplane partition into pairwise-crossing classes: the
        components of the non-crossing relation, each grown from its least
        hyperplane by a search whose frontier is the unvisited part of the
        disjoint masks, O(H) mask operations."""
        disjoint = self._disjoint()
        unvisited = (1 << len(disjoint)) - 1
        base = self.coords[min(self.complex.vertices)]
        classes, factors = [], []
        while unvisited:
            cls = frontier = unvisited & -unvisited
            while frontier:
                unvisited &= ~frontier
                reached = 0
                for h in graphs.bits(frontier):
                    reached |= disjoint[h]
                frontier = reached & unvisited
                cls |= frontier
            classes.append(frozenset(graphs.bits(cls)))
            factors.append(frozenset(v for v, x in self.coords.items() if (x ^ base) & ~cls == 0))
        return ProductPartition(tuple(classes), tuple(factors))

    def has_facing_triple(self):
        """The first triple a < b < c of pairwise-disjoint hyperplanes none of
        which separates the other two (True, (a, b, c)), or (False, None).

        plus[x] masks the hyperplanes disjoint from x with carriers on x's
        1-side.  Per disjoint pair a < b the valid c > b are one mask:
        disjoint from both, on b's side of a and on a's side of b, with the
        carriers of a and b on one side of c.  O(H^2) operations on H-bit
        masks; budget 10 s at MAX_VERTICES."""
        disjoint = self._disjoint()
        n = len(disjoint)
        value = [v for _, v in self._carriers]  # coordinates have H bits
        # row c holds the sides of c's carrier; column x, read down, is plus[x]
        rows = [f"{v & d & ~(1 << c):0{n}b}" for c, (v, d) in enumerate(zip(value, disjoint))]
        plus = [int("".join(col)[::-1], 2) for col in zip(*rows)][::-1]
        for a in range(n):
            above = disjoint[a] >> a + 1 << a + 1
            side = (above & ~plus[a], above & plus[a])
            for b in graphs.bits(above):
                m = side[value[b] >> a & 1] & disjoint[b] & ~(value[a] ^ value[b])
                m &= plus[b] if value[a] >> b & 1 else ~plus[b]
                m >>= b + 1
                if m:
                    return True, (a, b, b + 1 + next(graphs.bits(m)))
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


# bounds the cost of each orientation, k flips of k(k-1)/2 side pairs each;
# MAX_VERTICES bounds the number of orientations
MAX_WALLS = 16


def sageev_dual(w: Wallspace) -> CubeComplex:
    """Dual cube complex of a finite wallspace (as its 2-skeleton).

    Vertices are consistent orientations (a chosen side per wall, pairwise
    intersecting), reached by breadth-first single-wall flips from the
    principal orientations of the points; edges are single-wall flips and
    squares come from commuting flip pairs.  ValueError above MAX_WALLS
    walls, and as soon as the search passes MAX_VERTICES orientations.
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
            if len(seen) > MAX_VERTICES:
                raise ValueError(f"the dual exceeds the bound of {MAX_VERTICES} vertices")
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
