"""Group presentations read off cube complexes: collapse a spanning tree,
set aside the z-squares of the chain edges by the z rule, and eliminate the
chain edges, each disc of relators they glue in one walk."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import graphs
from .words import Word, cyclic_reduce, free_reduce, invert

if TYPE_CHECKING:
    from .cube_model import CubeComplex


@dataclass(frozen=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "relators", tuple(map(cyclic_reduce, self.relators)))

    def exponent_matrix(self) -> list[list[int]]:
        index = {g: i for i, g in enumerate(self.generators)}
        rows = [[0] * len(self.generators) for _ in self.relators]
        for row, r in zip(rows, self.relators):
            for g, e in r:
                row[index[g]] += e
        return rows


def _is_spanning_tree(c: CubeComplex, tree: frozenset) -> bool:
    if len(tree) != len(c.vertices) - 1:
        return False
    pairs = [(c.edge(eid).src, c.edge(eid).dst) for eid in tree]
    return len(graphs.components(c.vertices, pairs)) == 1


def extract_presentation(c: CubeComplex, spanning_tree) -> Presentation:
    """Collapse a spanning tree: generators are the non-tree edges, one relator
    per square.  Each z-square of `_z_squares` is set aside while its chain
    edge occurs in another relator; then the chain edges (c.internal_edges)
    are eliminated, each chain of squares merging into one relator.  Chain
    edges whose relators do not form a disc raise ValueError."""
    tree = frozenset(spanning_tree)
    if not _is_spanning_tree(c, tree):
        raise ValueError("not a spanning tree of the 1-skeleton")
    gens = [e.eid for e in c.edges if e.eid not in tree]
    candidates = c.internal_edges & set(gens)
    relators = [free_reduce(tuple(t for t in ts if t[0] not in tree)) for _, ts in c.squares]
    aside = _z_squares(c, candidates)
    if aside:
        held = {g for i, r in enumerate(relators) if i not in aside for g, _ in r}
        relators = [r for i, r in enumerate(relators) if i not in aside or aside[i] not in held]
    gens, relators = _tietze_eliminate(gens, relators, candidates)
    # reduced, so only an empty relator is empty after cyclic reduction
    relators = [r for r in relators if r]
    return Presentation(tuple(gens), tuple(relators))


def _z_squares(c: CubeComplex, candidates) -> dict[int, str]:
    """The z rule: each square that reads e z_dst e^-1 z_src^-1, up to
    rotation and inversion, for a chain edge e from src to dst, as its index
    mapped to e; z_v is the z-loop at v (`c.zloops`).  Nothing is set aside
    unless every edge but the z-loops has such a square, so a complex
    without z-loops returns at its first edge.

    Dropping such a square is a Tietze move (Lyndon and Schupp,
    Combinatorial Group Theory, ch. II.2) once the other relators eliminate
    e.  Read as a path, the square of an edge g says z_src(g) g = g z_dst(g).
    Eliminating e writes it as a path w of edges with kept squares, z-loops
    (each commutes with itself) and chain edges deeper in the same disc, for
    which this holds by induction; stacking their squares along w gives
    z_src(e) w = w z_dst(e), the square of e.  Hence a square is set aside
    only while e occurs in another relator.  The shape is checked side by
    side: with one z side reversed a square reads another relation."""
    zmap = dict(c.zloops)
    zs = set(zmap.values())
    shapes = {}
    for e in c.edges:
        if e.eid in zs:
            continue
        if e.src not in zmap or e.dst not in zmap:
            return {}
        w = ((e.eid, 1), (zmap[e.dst], 1), (e.eid, -1), (zmap[e.src], -1))
        for u in (w, invert(w)):
            for k in range(4):
                shapes[u[k:] + u[:k]] = e.eid
    found = {i: shapes[ts] for i, (_, ts) in enumerate(c.squares) if ts in shapes}
    if len(set(found.values())) < len(c.edges) - len(zs):
        return {}
    return {i: e for i, e in found.items() if e in candidates}


def _tietze_eliminate(gens, relators, candidates):
    """Tietze elimination on freely reduced relators, which stay reduced:
    the result of taking, step by step, the least candidate that occurs once
    in some relator, solving for it in the first such relator and
    substituting the value.  A step stays inside one component of the
    relators joined by shared candidates, and the survivors keep their
    order.  Every component must be a disc, in which each candidate occurs
    once in each of two relators and the gluing is a tree, read off by one
    walk (`_disc_word`); any other raises ValueError naming its candidates."""
    occurrences = {}  # candidate -> [(relator, position)]
    for i, r in enumerate(relators):
        for j, (g, _) in enumerate(r):
            if g in candidates:
                occurrences.setdefault(g, []).append((i, j))
    parts = graphs.components((), ((occ[0][0], i) for occ in occurrences.values() for i, _ in occ))
    held = {}  # each candidate under the relator of its first occurrence
    for g, occ in occurrences.items():
        held.setdefault(occ[0][0], []).append(g)
    words = list(relators)
    eliminated = set()
    for part in parts:
        letters = [g for i in part for g in held.get(i, ())]
        # joined by len(part) - 1 candidates, each in two places, the part is
        # a tree, so no candidate can occur twice in one relator
        if len(letters) != len(part) - 1 or any(len(occurrences[g]) != 2 for g in letters):
            letters.sort()
            shown = ", ".join(letters[:6]) + (f", ... ({len(letters)} in all)" if len(letters) > 6 else "")
            raise ValueError(f"the relators of chain edges {shown} do not form a disc")
        root = max(part)
        for i in part:
            words[i] = None
        words[root] = _disc_word(relators, root, occurrences)
        eliminated.update(letters)
    return [g for g in gens if g not in eliminated], [w for w in words if w is not None]


def _disc_word(relators, root, occurrences):
    """The one relator left of a disc component: relator root with each
    candidate x^e replaced by the rest of its partner relator, read around
    from the partner's occurrence of x, forward when that is x^-e and
    inverted when it is x^e, and freely reduced as it is written.  Every
    relator is entered once, from its parent in the tree rooted at root, so
    the walk is linear in the letters; a stack of (relator, next position,
    step, letters left) frames keeps it iterative."""
    out = []
    stack = [(root, 0, 1, len(relators[root]))]
    while stack:
        i, j, step, left = stack.pop()
        r = relators[i]
        while left:
            g, e = r[j]
            e *= step
            j, left = (j + step) % len(r), left - 1
            if g in occurrences:
                stack.append((i, j, step, left))
                a, b = occurrences[g]
                i, j = b if a[0] == i else a
                r = relators[i]
                step = 1 if r[j][1] != e else -1
                j, left = (j + step) % len(r), len(r) - 1
            elif out and out[-1][0] == g and out[-1][1] == -e:
                out.pop()
            else:
                out.append((g, e))
    return tuple(out)
