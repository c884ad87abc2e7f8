"""Hyperplane combinatorics on finite CAT(0) cube complexes.

Everything is combinatorial (1-skeleton / l^1 metric): hyperplanes are
classes of edges under "opposite in a common square", halfspaces are the
two vertex sides, and the distance between vertices is the number of
separating hyperplanes.  Vertices carry side-bitmask coordinates, so set
operations reduce to integer arithmetic.

A CubicalStructure certifies its complex as it labels the vertices, and
is_median is that certificate as a predicate.  Both refuse complexes above
MAX_VERTICES = 2000 vertices, where a path takes about 1.5 s and a 44 x 44
grid 0.4-0.45 s (Python 3.11, 2 vCPUs), and so does sageev_dual.
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
        self._carriers = []  # (fixed, value) of each carrier's hull
        for hid, cls in enumerate(classes):
            ends = {self.coords[v] for e in map(c.edge, cls) for v in (e.src, e.dst)}
            for side in (1, 0):
                carrier = [x for x in ends if x >> hid & 1 == side]
                free = ~_hull_mask(carrier)[0]  # x is in the hull iff x | free == y | free
                if [x | free for x in cs].count(carrier[0] | free) != len(carrier):
                    raise NotCat0Error(f"carrier of hyperplane {hid} is not convex")
            self._carriers.append(_hull_mask(ends))
        self.hyperplanes = tuple(Hyperplane(hid, cls) for hid, cls in enumerate(classes))
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

    def _disjoint(self) -> list[int]:
        """Per hyperplane, the mask of the hyperplanes it does not cross
        (itself included)."""
        return [fixed | 1 << hid for hid, (fixed, _) in enumerate(self._carriers)]

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
            fixed, _ = _hull_mask(self.coords[v] for v in other)
            for e in self.complex.edges:
                if e.src in side and e.dst in side:
                    h = self.hyperplane_of(e.eid)
                    if fixed >> h.hid & 1:
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
        disjoint = self._disjoint()
        pairs = [(a, b) for a, b in combinations(range(len(disjoint)), 2) if disjoint[a] >> b & 1]
        comps = graphs.components(range(len(disjoint)), pairs)
        classes = sorted((frozenset(comp) for comp in comps), key=sorted)
        base = min(self.complex.vertices)
        factors = []
        for cls in classes:
            outer = sum(1 << h.hid for h in self.hyperplanes if h.hid not in cls)
            fixed = self.coords[base] & outer
            factors.append(
                frozenset(v for v in self.complex.vertices if self.coords[v] & outer == fixed)
            )
        return ProductPartition(tuple(classes), tuple(factors))

    def has_facing_triple(self):
        """Three pairwise-disjoint hyperplanes, none separating the other two:
        each lies on one side of the other two, so the carriers of those two
        have the same value bit there."""
        disjoint = self._disjoint()
        value = [v for _, v in self._carriers]
        for a, b, c in combinations(range(len(disjoint)), 3):
            if not disjoint[a] >> b & disjoint[a] >> c & disjoint[b] >> c & 1:
                continue
            separated = (value[b] ^ value[c]) >> a | (value[a] ^ value[c]) >> b | (value[a] ^ value[b]) >> c
            if not separated & 1:
                return True, (a, b, c)
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
