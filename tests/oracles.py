"""Direct, slow versions of the cube certificates, kept as test oracles,
and the test-only helpers that the library does not use.

`rescan_vertex_link` builds one link, with its filled triangles, by scanning
every edge, square, cube and prism of the complex (O(V S) over all
vertices); `link_walk_npc` walks every rescanned vertex link for folds,
bigons and unfilled cliques and keeps each vertex's first violation;
`union_find_split` cuts the 1-skeleton along each hyperplane by its own
union-find (O(H E)); `triple_loop_median` takes the split's coordinates,
checks every pair distance by breadth-first search and closes the
coordinates under the majority of every triple (O(V^3)); `hamming_isometric`
is the O(V^2) bit test on the split's coordinates; the hyperplane queries
below read the split's frozenset sides, and `distance_gates` searches every
pair of the two sets; `rescanning_tietze_eliminate` rescans and rewrites
every relator at each elimination step; `brute_two_dimensional` walks every
vertex triple of a defining graph, and `two_twos_plan` spells out the
three-generator plan piece by piece.  The library's one-pass `vertex_links`,
corner-screened `check_npc`, one-search `CubicalStructure` with its
coordinate and carrier masks, gates by projection, disc-walking
`_tietze_eliminate` (on every disc; it refuses any other component),
neighbour-set triangle scan and subgraph plans must agree with them.

`check_local_convexity` tests the circles along which the constructions
glue; `parallel_set` decomposes the parallel set of a convex set;
`subgroup_presentation` is Reidemeister-Schreier for an index-2 kernel; and
`positive_equal` decides equality of positive Artin words by the closure
under the defining relations.  `bubble_normal_form` multiplies letter by
letter and bubbles the whole factor list to a fixpoint after each one, and
`brute_bounded_lemma_checks` keeps the freely reduced letter tuples of each
length, normal-forms each from scratch and tries (2M)(2K+1) products per
word in clause (iii); the one-sweep `GarsideContext.mul` and the level-by-level,
lookup-based `bounded_lemma_checks` must agree with them.  `tail`, `head`
and `in_end` read a traversal.
"""

from dataclasses import dataclass
from itertools import combinations, product

from cubartin import graphs
from cubartin.coxeter import braid_closure, is_spherical_triangle
from cubartin.cube_model import NpcViolation
from cubartin.defining_graph import Circle, ConstructionPlan, EvenEdge, OddEdge
from cubartin.presentations import Presentation
from cubartin.toolkit import GatePair, _edge_classes
from cubartin.garside import GarsideElement
from cubartin.words import free_reduce, invert, power, word_str


def tail(c, t):
    """The vertex a traversal (edge id, +1 or -1) starts at."""
    e = c.edge(t[0])
    return e.src if t[1] == 1 else e.dst


def head(c, t):
    """The vertex a traversal finishes at."""
    e = c.edge(t[0])
    return e.dst if t[1] == 1 else e.src


def in_end(t):
    """The end of the traversed edge at its finishing vertex."""
    return (t[0], -t[1])


def square_corners(c, ts):
    """The four corners of a square: (vertex, incoming end, outgoing end)."""
    corners = []
    for i in range(4):
        cur, nxt = ts[i], ts[(i + 1) % 4]
        corners.append((head(c, cur), in_end(cur), tuple(nxt)))
    return corners


@dataclass(frozen=True)
class RescannedLink:
    base: str
    link_vertices: tuple  # ends, sorted
    link_edges: tuple  # (owning cell id, end pair), in square order
    link_triangles: tuple  # filled triangles, as frozensets of ends


def rescan_vertex_link(c, v) -> RescannedLink:
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
        for w, p, q in square_corners(c, ts):
            if w == v:
                edges.append((sid, frozenset((p, q))))
    triangles = []
    if v == c.base_vertex:
        # the signed corners of every 3-cube; as the cubes are closed under
        # subsets, these are the 2-faces of every signed corner of a cube
        for cube in sorted(c.salvetti_cubes, key=sorted):
            if len(cube) == 3:
                a, b, d = sorted(cube)
                for sa, sb, sd in product((1, -1), repeat=3):
                    triangles.append(frozenset(((a, sa), (b, sb), (d, sd))))
    zmap = dict(c.zloops)
    smap = dict(c.squares)
    for sid in c.prisms:
        for w, p, q in square_corners(c, smap[sid]):
            if w == v:
                z = zmap[v]
                triangles.append(frozenset((p, q, (z, 1))))
                triangles.append(frozenset((p, q, (z, -1))))
    return RescannedLink(v, tuple(sorted(ends)), tuple(edges), tuple(dict.fromkeys(triangles)))


def link_walk_npc(c):
    """check_npc by walking every rescanned vertex link: its folded and
    repeated corners, then every clique of its graph against the filled
    simplices.  The first violation of each failing vertex, in vertex
    order."""
    violations = []
    for v in c.vertices:
        first = next(_link_violations(c, rescan_vertex_link(c, v)), None)
        if first is not None:
            violations.append(first)
    return violations


def _link_violations(c, link):
    """The violations of one link in walk order."""
    v = link.base
    seen: set[frozenset] = set()
    simple = True
    for cell, pair in link.link_edges:
        if len(pair) == 1:
            yield NpcViolation(v, "loop", f"cell {cell} folds the end {next(iter(pair))}")
            simple = False
        elif pair in seen:
            p, q = sorted(pair)
            yield NpcViolation(v, "bigon", f"repeated link edge {p}-{q} (cell {cell})")
            simple = False
        else:
            seen.add(pair)
    if not simple:
        return
    simplices = set(link.link_triangles)
    pairs = [tuple(pair) for _, pair in link.link_edges]
    for clique in graphs.cliques(link.link_vertices, pairs):
        labels = frozenset(e for e, _ in clique)
        if len(labels) != len(clique):
            yield NpcViolation(v, "non-flag", f"clique reuses an edge: {sorted(clique)}")
        elif len(clique) == 3:
            if frozenset(clique) not in simplices:
                yield NpcViolation(v, "non-flag", f"empty triangle {sorted(clique)}")
        # only salvetti cubes span simplices of dimension >= 3
        elif v != c.base_vertex or labels not in c.salvetti_cubes:
            yield NpcViolation(v, "non-flag", f"empty {len(clique)}-clique {sorted(clique)}")


def check_local_convexity(c, circle) -> bool:
    """A closed edge path is locally convex when, at each of its vertices, the
    incoming and outgoing link ends are distinct and not joined by a corner."""
    path = [tuple(t) for t in circle]
    if not path:
        raise ValueError("empty path")
    if len({t[0] for t in path}) != len(path):
        raise ValueError("path repeats an edge")
    for i in range(len(path)):
        if head(c, path[i]) != tail(c, path[(i + 1) % len(path)]):
            raise ValueError("path not closed")
    for i in range(len(path)):
        cur, nxt = path[i], path[(i + 1) % len(path)]
        p, q = in_end(cur), nxt
        if p == q:
            return False
        link = rescan_vertex_link(c, head(c, cur))
        if any(pair == frozenset((p, q)) for _, pair in link.link_edges):
            return False
    return True


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


def hamming_isometric(c) -> bool:
    """The split exists and no vertex v has another vertex agreeing with it
    on every bit that v's edges flip.  As every edge flips one bit, this
    holds iff graph distance is Hamming distance (induct on the latter)."""
    split = union_find_split(c)
    if split is None:
        return False
    coords, _ = split
    flips = dict.fromkeys(c.vertices, 0)
    for e in c.edges:
        flips[e.src] |= coords[e.src] ^ coords[e.dst]
        flips[e.dst] |= coords[e.src] ^ coords[e.dst]
    cs = list(coords.values())
    return all([x & f for x in cs].count(coords[v] & f) == 1 for v, f in flips.items())


def halfspaces(c):
    """The (minus, plus) vertex sides of each hyperplane of the median
    complex c, from its union-find split."""
    return [(minus, plus) for _, minus, plus in union_find_split(c)[1]]


def halfspace_hull(c, vs) -> frozenset:
    """Intersection of every halfspace of c containing vs."""
    vs = set(vs)
    hull = set(c.vertices)
    for minus, plus in halfspaces(c):
        if vs <= plus:
            hull &= plus
        elif vs <= minus:
            hull &= minus
    return frozenset(hull)


def brute_crossing(sides, h1, h2) -> bool:
    """All four quadrants of hyperplanes h1 and h2 (ids into sides) meet."""
    return all(a & b for a in sides[h1] for b in sides[h2])


def side_of(sides, h, vs) -> int:
    """1 or -1 when the nonempty vs lies in the plus or minus side of h, 0
    when h crosses it."""
    minus, plus = sides[h]
    return 1 if vs <= plus else -1 if vs <= minus else 0


def carrier_vertices(c, edges) -> frozenset:
    return frozenset(v for e in map(c.edge, edges) for v in (e.src, e.dst))


def brute_facing_triple(c):
    """has_facing_triple by its definition: the first three pairwise-disjoint
    hyperplanes none of which separates the carriers of the other two."""
    split = union_find_split(c)[1]
    sides = [(minus, plus) for _, minus, plus in split]
    carriers = [carrier_vertices(c, cls) for cls, _, _ in split]
    for t3 in combinations(range(len(sides)), 3):
        if any(brute_crossing(sides, a, b) for a, b in combinations(t3, 2)):
            continue
        a, b, d = t3
        if all(
            side_of(sides, h, carriers[o1]) == side_of(sides, h, carriers[o2])
            for h, o1, o2 in ((a, b, d), (b, a, d), (d, a, b))
        ):
            return True, t3
    return False, None


def brute_product(c):
    """(classes, factors) of product_decompose: components of the
    non-crossing relation, and per class the vertices on the least vertex's
    side of every hyperplane outside it."""
    sides = halfspaces(c)
    ids = range(len(sides))
    apart = [(a, b) for a, b in combinations(ids, 2) if not brute_crossing(sides, a, b)]
    classes = sorted((frozenset(x) for x in graphs.components(ids, apart)), key=sorted)
    base = min(c.vertices)
    factors = [
        frozenset(
            v for v in c.vertices
            if all((v in plus) == (base in plus) for h, (_, plus) in enumerate(sides) if h not in cls)
        )
        for cls in classes
    ]
    return tuple(classes), tuple(factors)


def brute_gate_edge_duality(c, v1, v2):
    """check_gate_edge_duality on the vertex sets v1 and v2: the first edge
    inside one whose hyperplane leaves the other on one side."""
    split = union_find_split(c)[1]
    for side, other in ((v1, v2), (v2, v1)):
        for e in c.edges:
            if e.src in side and e.dst in side:
                hid, (minus, plus) = next(
                    (i, (m, p)) for i, (cls, m, p) in enumerate(split) if e.eid in cls
                )
                if not (other & plus and other & minus):
                    return False, (e.eid, hid)
    return True, None


def distance_gates(c, y1, y2) -> GatePair:
    """gates on the convex sets y1 and y2 of the median complex c by distance
    search: the separators from the split's sides, V1 and V2 the vertices at
    that many hyperplanes from the other set, and each vertex of V1 matched
    to the one vertex of V2 at that distance (O(|Y1| |Y2|))."""
    coords, split = union_find_split(c)
    y1, y2 = frozenset(y1), frozenset(y2)
    sep = frozenset(
        h for h, (_, minus, plus) in enumerate(split)
        if y1 <= minus and y2 <= plus or y1 <= plus and y2 <= minus
    )

    def dist(u, v):
        return (coords[u] ^ coords[v]).bit_count()

    v1 = frozenset(v for v in y1 if min(dist(v, w) for w in y2) == len(sep))
    v2 = frozenset(v for v in y2 if min(dist(v, w) for w in y1) == len(sep))
    matching = {}
    for v in sorted(v1):
        partners = [w for w in sorted(v2) if dist(v, w) == len(sep)]
        assert len(partners) == 1, f"gate projection not unique at {v}"
        matching[v] = partners[0]
    return GatePair(v1, v2, sep, matching)


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


def brute_two_dimensional(g) -> bool:
    """is_two_dimensional over every vertex triple of the defining graph g."""
    if not g.edges:
        return False
    for a, b, c in combinations(g.vertices, 3):
        labels = [g.label(a, b), g.label(b, c), g.label(a, c)]
        if any(m is None for m in labels):
            continue
        if is_spherical_triangle(*labels):
            return False
    return True


def two_twos_plan(g):
    """The three-generator K x S^1 plan, with the dihedral (or free) piece
    written out for each label of the remaining edge."""
    if len(g.vertices) != 3:
        return None
    for center in g.vertices:
        others = [v for v in g.vertices if v != center]
        if all(g.label(center, w) == 2 for w in others):
            u, v = sorted(others)
            m = g.label(u, v)
            if m is None:
                pieces = (Circle(u), Circle(v))
            elif m % 2 == 1:
                pieces = (OddEdge(u, v, m),)
            else:
                pieces = (EvenEdge(u, v, m, u),)
            return ConstructionPlan(pieces, times_circle=center)
    return None


@dataclass(frozen=True)
class ParallelDecomposition:
    base: frozenset  # Y
    copies: tuple  # parallel copies of Y, as vertex sets (Y included)
    parallel_set: frozenset  # P_Y = hull of the union
    orthogonal: frozenset  # Y-perp, the fiber through min(Y)


def parallel_set(s, y) -> ParallelDecomposition:
    """The parallel set of the convex set y in the CubicalStructure s: the
    fibers away from the hyperplanes crossing y that those hyperplanes
    cross, their hull, and the fiber of that hull through min(y)."""
    y = frozenset(y)
    if not s.is_convex(y):
        raise ValueError("parallel_set needs a convex input")
    h1 = s.crosses(y)
    mask = sum(1 << h for h in h1)
    outer = ~mask
    # fibers: vertex classes with identical coordinates away from H1
    fibers: dict[int, set] = {}
    for v in s.complex.vertices:
        fibers.setdefault(s.coords[v] & outer, set()).add(v)
    copies = []
    for key in sorted(fibers):
        fiber = frozenset(fibers[key])
        if s.crosses(fiber) == h1:
            copies.append(fiber)
    union = set().union(*copies)
    py = s.convex_hull(union)
    base = min(y)
    ortho = frozenset(v for v in py if s.coords[v] & mask == s.coords[base] & mask)
    return ParallelDecomposition(y, tuple(copies), py, ortho)


def subgroup_presentation(p: Presentation, sign: dict) -> Presentation:
    """Reidemeister-Schreier for the kernel of a map onto Z/2.

    Schreier transversal {1, x0} with x0 the first generator of sign 1;
    Schreier generators are named g_0 (coset 1) and g_1 (coset x0), minus
    the trivial one x0_0.
    """
    if not any(sign.get(g, 0) % 2 for g in p.generators):
        raise ValueError("sign map is trivial")
    x0 = next(g for g in p.generators if sign.get(g, 0) % 2)

    def name(coset: int, g: str) -> str | None:
        if coset == 0 and g == x0:
            return None  # x0 * rep(x0)^-1 is trivial
        return f"{g}_{coset}"

    gens = []
    for g in p.generators:
        for coset in (0, 1):
            nm = name(coset, g)
            if nm is not None:
                gens.append(nm)

    def rewrite(rel, coset: int):
        out = []
        for g, e in rel:
            sg = sign.get(g, 0) % 2
            if e == 1:
                nm = name(coset, g)
                if nm is not None:
                    out.append((nm, 1))
                coset ^= sg
            else:
                coset ^= sg
                nm = name(coset, g)
                if nm is not None:
                    out.append((nm, -1))
        return free_reduce(tuple(out))

    relators = []
    for rel in p.relators:
        for coset in (0, 1):
            w = rewrite(rel, coset)
            if w:
                relators.append(w)
    return Presentation(tuple(gens), tuple(relators))


def positive_equal(ctx, w1, w2) -> bool:
    """Equality of positive words in the Artin group of the ArtinContext
    ctx by BFS closure under the defining relations (homogeneous, so
    length-preserving and terminating)."""
    for w in (w1, w2):
        if any(e != 1 for _, e in w):
            raise ValueError("positive_equal needs positive words")
    if len(w1) != len(w2):
        return False
    s1 = tuple(g for g, _ in w1)
    s2 = tuple(g for g, _ in w2)
    return s2 in positive_class(ctx, s1)


def positive_class(ctx, letters: tuple) -> set:
    """Every positive word, as a letter tuple, equal to letters."""
    return braid_closure(letters, ctx.table.moves)


def _bubble(g, inf, factors):
    """Bubble adjacent pairs of simples to left-weighted form until nothing
    changes, drop trivial factors and pull leading Deltas into the infimum."""
    fs = [f for f in factors if f != 0]
    changed = True
    while changed:
        changed = False
        for i in range(len(fs) - 1):
            x, y = g.left_weight_pair(fs[i], fs[i + 1])
            if (x, y) != (fs[i], fs[i + 1]):
                fs[i], fs[i + 1] = x, y
                changed = True
        fs = [f for f in fs if f != 0]
    while fs and fs[0] == g.table.w0:
        fs.pop(0)
        inf += 1
    return GarsideElement(inf, tuple(fs))


def _bubble_mul(g, u, v):
    shifted = [g.table.tau[f] if v.inf % 2 else f for f in u.factors]
    return _bubble(g, u.inf + v.inf, shifted + list(v.factors))


def bubble_normal_form(g, w):
    """The normal form of the word w in the GarsideContext g, one bubbled
    product per letter."""
    out = g.identity
    for letter in w:
        out = _bubble_mul(g, out, g.from_letter(*letter))
    return out


def brute_bounded_lemma_checks(ctx, L, K, M) -> dict:
    """The report of `bounded_lemma_checks`, from every letter tuple of each
    length kept when it is freely reduced, and (2M)(2K+1) bubbled products
    per {a, b} word."""
    g = ctx.garside

    def words(gens):
        letters = [(x, e) for x in gens for e in (1, -1)]
        for length in range(1, L + 1):
            for combo in product(letters, repeat=length):
                if len(free_reduce(combo)) == length:
                    yield combo

    z_nfs = {k: bubble_normal_form(g, power(ctx.z_word, k)) for k in range(-K, K + 1)}
    violations = []
    for pair in (("a", "b"), ("b", "c")):
        for w in words(pair):
            nf = bubble_normal_form(g, w)
            violations += [("ii", pair, word_str(w), k) for k, znf in z_nfs.items() if k and nf == znf]
    ab_nfs = [(g.identity, "")] + [(bubble_normal_form(g, w), word_str(w)) for w in words(("a", "b"))]
    for j in range(-M, M + 1):
        if not j:
            continue
        cj = bubble_normal_form(g, power((("c", 1),), j))
        for k in range(-K, K + 1):
            violations += [("iii", text, k, j) for nf, text in ab_nfs if _bubble_mul(g, nf, z_nfs[k]) == cj]
    return {
        "label": "bounded verification",
        "bounds": {"L": L, "K": K, "M": M},
        "ii_verified": not any(v[0] == "ii" for v in violations),
        "iii_verified": not any(v[0] == "iii" for v in violations),
        "violations": violations,
    }
