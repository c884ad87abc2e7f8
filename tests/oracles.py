"""Direct, slow versions of the cube certificates, kept as test oracles.

`rescan_vertex_link` builds one link by scanning every edge, square, cube
and prism of the complex (O(V S) over all vertices); `union_find_split`
cuts the 1-skeleton along each hyperplane by its own union-find (O(H E));
`triple_loop_median` takes the split's coordinates, checks every pair
distance by breadth-first search and closes the coordinates under the
majority of every triple (O(V^3)); `rescanning_tietze_eliminate` rescans
and rewrites every relator at each elimination step.  The library's
one-pass `vertex_links`, one-search `CubicalStructure` and indexed
`_tietze_eliminate` must agree with them.
"""

from itertools import combinations, product

from cubartin import graphs
from cubartin.cube_model import LinkComplex, square_corners
from cubartin.toolkit import _edge_classes
from cubartin.words import free_reduce, invert


def rescan_vertex_link(c, v) -> LinkComplex:
    if v not in c.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    ends = []
    for e in c.edges:
        if e.src == v:
            ends.append((e.eid, 1))
        if e.dst == v:
            ends.append((e.eid, -1))
    edges = []
    for sid, ts in c.squares:
        for w, p, q in square_corners(c, sid, ts):
            if w == v:
                edges.append((sid, frozenset((p, q))))
    triangles = []
    if v == c.base_vertex:
        for cube in sorted(c.salvetti_cubes, key=sorted):
            labels = sorted(cube)
            for signs in product((1, -1), repeat=len(labels)):
                simplex = frozenset(zip(labels, signs))
                if len(labels) == 3:
                    triangles.append(simplex)
                else:
                    for tri in combinations(sorted(simplex), 3):
                        triangles.append(frozenset(tri))
    zmap = dict(c.zloops)
    smap = dict(c.squares)
    for sid in c.prisms:
        for w, p, q in square_corners(c, sid, smap[sid]):
            if w == v:
                z = zmap[v]
                triangles.append(frozenset((p, q, (z, 1))))
                triangles.append(frozenset((p, q, (z, -1))))
    return LinkComplex(v, tuple(sorted(ends)), tuple(edges), tuple(dict.fromkeys(triangles)))


def union_find_split(c):
    """(coords, [(edges, minus, plus)]) when removing each square-opposition
    class leaves exactly two parts, with one end of each of its edges on
    each; the least vertex is on every minus side, and bit i of a coordinate
    is set on the plus side of class i.  None otherwise."""
    hyperplanes = []
    for cls in _edge_classes(c):
        rest = [(e.src, e.dst) for e in c.edges if e.eid not in cls]
        comps = graphs.components(c.vertices, rest)
        if len(comps) != 2:
            return None
        a, b = comps
        if any((e.src in a) == (e.dst in a) for e in map(c.edge, cls)):
            return None
        minus, plus = (a, b) if min(c.vertices) in a else (b, a)
        hyperplanes.append((cls, frozenset(minus), frozenset(plus)))
    coords = {
        v: sum(1 << i for i, (_, _, plus) in enumerate(hyperplanes) if v in plus)
        for v in c.vertices
    }
    return coords, hyperplanes


def triple_loop_median(c) -> bool:
    """Isometric in the hypercube of its square-opposition classes, and
    closed under the coordinatewise majority of every triple."""
    pairs = [(e.src, e.dst) for e in c.edges]
    if len(graphs.components(c.vertices, pairs)) != 1:
        return False
    split = union_find_split(c)
    if split is None:
        return False
    coords, _ = split
    adj = graphs.adjacency(c.vertices, pairs)
    for u in c.vertices:
        dist, _ = graphs.bfs(adj, u)
        for v, d in dist.items():
            if d != (coords[u] ^ coords[v]).bit_count():
                return False
    cs = sorted(coords.values())
    vset = set(cs)
    if len(vset) != len(cs):
        return False
    for cu, cv, cw in combinations(cs, 3):
        if (cu & cv) | (cu & cw) | (cv & cw) not in vset:
            return False
    return True


def halfspace_hull(s, vs) -> frozenset:
    """Intersection of every halfspace of the structure s containing vs."""
    vs = set(vs)
    hull = set(s.complex.vertices)
    for h in s.hyperplanes:
        if vs <= h.plus:
            hull &= h.plus
        elif vs <= h.minus:
            hull &= h.minus
    return frozenset(hull)


def rescanning_tietze_eliminate(gens, relators, candidates):
    """Tietze elimination that re-sorts the candidates, rescans every relator
    for the pick and rewrites every relator at each step."""
    gens = list(gens)
    candidates = set(candidates)
    relators = [list(r) for r in relators]
    progress = True
    while progress and candidates:
        progress = False
        for x in sorted(candidates):
            pick = None
            for i, r in enumerate(relators):
                occ = [j for j, (g, _) in enumerate(r) if g == x]
                if len(occ) == 1:
                    pick = (i, occ[0])
                    break
            if pick is None:
                continue
            i, j = pick
            r = relators.pop(i)
            # rotate so the x occurrence leads, orient it positively
            r = r[j:] + r[:j]
            if r[0][1] == -1:
                r = list(invert(tuple(r)))
                r = r[-1:] + r[:-1]  # bring x back to the front
            assert r[0] == (x, 1)
            value = invert(tuple(r[1:]))  # x = (rest)^-1
            relators = [
                list(free_reduce(_substitute_letters(tuple(s), x, value)))
                for s in relators
            ]
            gens.remove(x)
            candidates.discard(x)
            progress = True
            break
    return gens, [tuple(r) for r in relators]


def _substitute_letters(w, x, value):
    out = []
    for g, e in w:
        if g == x:
            out.extend(value if e == 1 else invert(value))
        else:
            out.append((g, e))
    return tuple(out)
