"""Small complexes the tests build: paths, trees, grids and hypercube
2-skeleta; and the wallspace file text."""

from itertools import combinations

from cubartin import graphs
from cubartin.cube_model import CubeComplex, Edge, make_complex


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


def wallspace_text(w) -> str:
    """The `points` and `wall` records that parse_wallspace reads back as w."""
    lines = [f"points {w.n_points}"]
    for side in w.walls:
        lines.append("wall " + "".join("1" if i in side else "0" for i in range(w.n_points)))
    return "\n".join(lines) + "\n"
