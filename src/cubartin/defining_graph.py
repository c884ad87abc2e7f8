"""Labeled defining graphs of Artin groups and the cubulation verdict.

A defining graph has a vertex per standard generator and an edge labeled
m >= 2 per pair of generators with a finite exponent; a missing edge means
the exponent is infinite.  The verdict routes each graph to one of:
a constructive plan, a concrete obstruction, or "outside classification".

`DefiningGraph` builds its neighbour sets once, and every graph question
reads them: a degree is O(1), a subgraph or a component costs the edges it
holds, so parsing and the verdict are near-linear in the graph, and the
triangle scan of `is_two_dimensional` is O(E^1.5) (Chiba and Nishizeki,
SIAM J. Comput. 14, 1985).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import graphs
from .coxeter import is_spherical_triangle

COCOMPACTLY_CUBULATED = "cocompactly-cubulated"
NOT_COCOMPACTLY_CUBULATED = "not-virtually-cocompactly-cubulated"
OUTSIDE_CLASSIFICATION = "outside-classification"

LEAF = "leaf"
INTERIOR = "interior"


class GraphParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class DefiningGraph:
    """Simple labeled graph; vertices sorted, edges keyed by vertex pair.
    `neighbours` maps each vertex to the set of its neighbours; it is an
    attribute, not a field, so it takes no part in equality or repr."""

    vertices: tuple[str, ...]
    edges: dict[frozenset, int] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))
        neighbours = {v: set() for v in self.vertices}
        for pair, label in self.edges.items():
            u, v = sorted(pair)
            if u == v:
                raise ValueError(f"loop edge at {u}")
            if u not in neighbours or v not in neighbours:
                raise ValueError(f"edge {u}-{v} references unknown vertex")
            if label < 2:
                raise ValueError(f"edge {u}-{v} label {label} below 2")
            neighbours[u].add(v)
            neighbours[v].add(u)
        object.__setattr__(self, "neighbours", neighbours)

    def degree(self, v: str) -> int:
        return len(self.neighbours[v])

    def edge_list(self) -> list[tuple[str, str, int]]:
        out = [(*sorted(pair), m) for pair, m in self.edges.items()]
        return sorted(out)

    def label(self, u: str, v: str) -> int | None:
        return self.edges.get(frozenset((u, v)))

    def subgraph(self, vs) -> "DefiningGraph":
        """The subgraph induced on the vertices vs, read from their neighbours."""
        vs = set(vs)
        pairs = {frozenset((u, w)) for u in vs for w in self.neighbours[u] & vs}
        return DefiningGraph(tuple(vs), {p: self.edges[p] for p in pairs})

    def components(self) -> list["DefiningGraph"]:
        return [self.subgraph(c) for c in graphs.components(self.vertices, self.edges)]


def parse_graph(text: str) -> DefiningGraph:
    """Parse the line-oriented graph format (`vertex <name>`, `edge <u> <v> <m>`)."""
    vertices: dict[str, None] = {}  # a dict, so membership is O(1)
    edges: dict[frozenset, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "vertex":
            if len(parts) != 2:
                raise GraphParseError(line_no, f"bad vertex line: {raw.strip()!r}")
            if parts[1] in vertices:
                raise GraphParseError(line_no, f"duplicate vertex {parts[1]!r}")
            if "." in parts[1]:
                raise GraphParseError(
                    line_no,
                    f"vertex name {parts[1]!r} contains '.', which is reserved for generated cell ids",
                )
            vertices[parts[1]] = None
        elif parts[0] == "edge":
            if len(parts) != 4:
                raise GraphParseError(line_no, f"bad edge line: {raw.strip()!r}")
            _, u, v, label_text = parts
            try:
                label = int(label_text)
            except ValueError:
                raise GraphParseError(line_no, f"bad label {label_text!r}") from None
            if label < 2:
                raise GraphParseError(line_no, f"label {label} below 2")
            if u == v:
                raise GraphParseError(line_no, f"loop edge at {u!r}")
            if u not in vertices:
                raise GraphParseError(line_no, f"unknown vertex {u!r}")
            if v not in vertices:
                raise GraphParseError(line_no, f"unknown vertex {v!r}")
            pair = frozenset((u, v))
            if pair in edges:
                raise GraphParseError(line_no, f"duplicate edge {u}-{v}")
            edges[pair] = label
        else:
            raise GraphParseError(line_no, f"unknown record {parts[0]!r}")
    return DefiningGraph(tuple(vertices), edges)


def graph_text(g: DefiningGraph) -> str:
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"edge {u} {v} {m}" for u, v, m in g.edge_list()]
    return "\n".join(lines) + "\n"


def classify_edges(g: DefiningGraph) -> dict[frozenset, str]:
    """Tag each edge Leaf (an endpoint of degree 1) or Interior (both >= 2)."""
    return {pair: LEAF if min(map(g.degree, pair)) == 1 else INTERIOR for pair in g.edges}


def satisfies_condition_iii(g: DefiningGraph) -> tuple[bool, tuple[str, str, int] | None]:
    """Per component: a vertex, a single edge, or interior edges labeled 2 and
    even leaf labels.  On failure returns the offending edge as witness."""
    for comp in g.components():
        if len(comp.edges) <= 1:
            continue
        for u, v, m in comp.edge_list():
            leaf = comp.degree(u) == 1 or comp.degree(v) == 1
            if (m % 2 != 0) if leaf else (m != 2):
                return False, (u, v, m)
    return True, None


def is_two_dimensional(g: DefiningGraph) -> bool:
    """No spherical rank-3 special subgroup, and at least one edge (rank 2).
    Each triangle on an edge u-v has its third vertex in the neighbours of
    both ends; the set intersection walks the smaller neighbour set."""
    if not g.edges:
        return False
    for pair, m in g.edges.items():
        u, v = pair
        for w in g.neighbours[u] & g.neighbours[v]:
            if is_spherical_triangle(m, g.label(v, w), g.label(u, w)):
                return False
    return True


# --- construction plans -------------------------------------------------

@dataclass(frozen=True)
class Circle:
    vertex: str


@dataclass(frozen=True)
class OddEdge:
    u: str
    v: str
    n: int


@dataclass(frozen=True)
class EvenEdge:
    u: str
    v: str
    n: int
    generator: str


@dataclass(frozen=True)
class Amalgam:
    interior: DefiningGraph  # the subgraph on vertices with >= 2 neighbours
    leaves: tuple[tuple[str, str, int], ...]  # (s_i, t_i, n_i) with s_i interior


@dataclass(frozen=True)
class ConstructionPlan:
    pieces: tuple  # one of Circle / OddEdge / EvenEdge / Amalgam per component
    times_circle: str | None = None  # central generator, for the K x S^1 route


@dataclass(frozen=True)
class Verdict:
    kind: str
    theorem: str
    justification: str
    plan: ConstructionPlan | None = None
    witness: tuple[str, str, int] | None = None


def _component_plan(comp: DefiningGraph):
    if not comp.edges:
        return Circle(comp.vertices[0])
    if len(comp.edges) == 1:
        ((u, v, m),) = comp.edge_list()
        if m % 2 == 1:
            return OddEdge(u, v, m)
        return EvenEdge(u, v, m, u)
    interior = comp.subgraph(v for v in comp.vertices if comp.degree(v) >= 2)
    leaves = []
    for u, v, m in comp.edge_list():
        if comp.degree(u) == 1 or comp.degree(v) == 1:
            s, t = (u, v) if comp.degree(u) >= 2 else (v, u)
            leaves.append((s, t, m))
    return Amalgam(interior, tuple(leaves))


def amalgam_plan(g: DefiningGraph) -> ConstructionPlan:
    ok, witness = satisfies_condition_iii(g)
    if not ok:
        u, v, m = witness
        raise ValueError(f"condition (iii) fails at edge {u}-{v} (label {m})")
    return ConstructionPlan(tuple(_component_plan(c) for c in g.components()))


def _two_twos_plan(g: DefiningGraph) -> ConstructionPlan | None:
    """The three-generator route: two label-2 edges at a common vertex make
    that vertex central, leaving a dihedral (or free) piece times a circle."""
    if len(g.vertices) != 3:
        return None
    for center in g.vertices:
        others = [v for v in g.vertices if v != center]
        if all(g.label(center, w) == 2 for w in others):
            return ConstructionPlan(amalgam_plan(g.subgraph(others)).pieces, times_circle=center)
    return None


def verdict(g: DefiningGraph) -> Verdict:
    ok, witness = satisfies_condition_iii(g)
    if ok:
        return Verdict(
            kind=COCOMPACTLY_CUBULATED,
            theorem="Theorem 1.1 (iii) => (i)",
            justification=(
                "every connected component is a vertex, an edge, or has all "
                "interior edges labeled 2 and all leaves labeled evenly; the "
                "amalgam construction applies"
            ),
            plan=amalgam_plan(g),
        )
    plan = _two_twos_plan(g)
    if plan is not None:
        return Verdict(
            kind=COCOMPACTLY_CUBULATED,
            theorem="Theorem 1.2 (iii) => (i)",
            justification=(
                "three generators with two edges labeled 2: the group splits "
                "off a central generator, giving a K x S^1 complex"
            ),
            plan=plan,
        )
    three_gen = len(g.vertices) == 3
    if three_gen or is_two_dimensional(g):
        u, v, m = witness
        theorem = "Theorem 1.2" if three_gen else "Theorem 1.1"
        return Verdict(
            kind=NOT_COCOMPACTLY_CUBULATED,
            theorem=theorem,
            justification=(
                f"condition (iii) fails at edge {u}-{v} (label {m}) and no "
                "two-label-2 plan exists"
            ),
            witness=witness,
        )
    if len(g.vertices) < 3:
        # graphs on <= 2 vertices always satisfy (iii); unreachable
        raise AssertionError("small graph escaped condition (iii)")
    return Verdict(
        kind=OUTSIDE_CLASSIFICATION,
        theorem="none",
        justification=(
            "more than three generators and not 2-dimensional: not covered "
            "by either classification theorem"
        ),
        witness=witness,
    )
