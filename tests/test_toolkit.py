import time
import tracemalloc
from itertools import combinations, product

import pytest
from factories import grid_complex, hypercube_complex, path_complex, tree_complex, wallspace_text
from oracles import brute_crossing, brute_facing_triple, halfspaces, parallel_set

from cubartin import toolkit as tk
from cubartin.cube_model import Edge, make_complex


def structure(c):
    return tk.CubicalStructure(c)


# -- brute-force oracles ------------------------------------------------------

def brute_consistent_orientations(w):
    all_points = frozenset(range(w.n_points))
    sides = [(all_points - side, side) for side in w.walls]
    count = 0
    for bits in product((0, 1), repeat=len(w.walls)):
        chosen = [sides[i][bits[i]] for i in range(len(w.walls))]
        if all(a & b for a, b in combinations(chosen, 2)):
            count += 1
    return count


def brute_median(c):
    """Interval-intersection definition of the median property."""
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(c.vertices)
    for e in c.edges:
        if e.is_loop:
            return False
        g.add_edge(e.src, e.dst)
    if not nx.is_connected(g):
        return False
    dist = dict(nx.all_pairs_shortest_path_length(g))

    def interval(u, v):
        return {w for w in c.vertices if dist[u][w] + dist[w][v] == dist[u][v]}

    for u, v, w in combinations(c.vertices, 3):
        med = interval(u, v) & interval(v, w) & interval(u, w)
        if len(med) != 1:
            return False
    return True


# -- hyperplanes ----------------------------------------------------------------

class TestHyperplanes:
    def test_cube_has_three(self):
        assert len(structure(hypercube_complex(3)).hyperplanes) == 3

    def test_tree_one_per_edge(self):
        t = tree_complex([("o", "x"), ("o", "y"), ("y", "z")])
        assert len(structure(t).hyperplanes) == 3

    def test_grid_2x3_has_five(self):
        assert len(structure(grid_complex(2, 3)).hyperplanes) == 5

    def test_halfspaces_partition(self):
        s = structure(grid_complex(2, 2))
        for h in s.hyperplanes:
            plus = {v for v, x in s.coords.items() if x >> h.hid & 1}
            assert 0 < len(plus) < len(s.coords)
            for e in map(s.complex.edge, h.edges):
                assert (e.src in plus) != (e.dst in plus)

    def test_loop_rejected(self):
        c = make_complex(["v"], [Edge("a", "v", "v")], [])
        with pytest.raises(tk.NotCat0Error):
            structure(c)

    def test_memory_stays_linear(self):
        # no per-hyperplane vertex sets: 999 hyperplanes over 1000 vertices
        c = path_complex(999)
        tracemalloc.start()
        structure(c)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 8 << 20

    def test_cycle_rejected(self):
        c = make_complex(
            ["1", "2", "3"],
            [Edge("e1", "1", "2"), Edge("e2", "2", "3"), Edge("e3", "3", "1")],
            [],
        )
        with pytest.raises(tk.NotCat0Error):
            structure(c)


class TestHull:
    def test_square_opposite_corners(self):
        s = structure(grid_complex(1, 1))
        assert s.convex_hull({"v0.0", "v1.1"}) == frozenset(s.complex.vertices)

    def test_tree_geodesic(self):
        t = tree_complex([("o", "x"), ("o", "y"), ("y", "z")])
        s = structure(t)
        assert s.convex_hull({"x", "z"}) == {"x", "o", "y", "z"}

    def test_grid_subgrid(self):
        s = structure(grid_complex(2, 3))
        hull = s.convex_hull({"v0.0", "v2.1"})
        assert hull == {f"v{i}.{j}" for i in range(3) for j in range(2)}

    def test_idempotent_and_monotone(self):
        s = structure(grid_complex(2, 3))
        small = s.convex_hull({"v0.0", "v1.2"})
        big = s.convex_hull({"v0.0", "v2.3"})
        assert s.convex_hull(small) == small
        assert small <= big

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            structure(grid_complex(1, 1)).convex_hull(set())


class TestGates:
    def test_tripod_leaves(self):
        t = tree_complex([("o", "x"), ("o", "y"), ("o", "z")])
        s = structure(t)
        gp = s.gates({"x"}, {"y"})
        assert (gp.v1, gp.v2, gp.delta_sep) == ({"x"}, {"y"}, 2)

    def test_square_opposite_sides(self):
        s = structure(grid_complex(1, 1))
        gp = s.gates({"v0.0", "v0.1"}, {"v1.0", "v1.1"})
        assert gp.v1 == {"v0.0", "v0.1"}
        assert gp.v2 == {"v1.0", "v1.1"}
        assert gp.delta_sep == 1

    def test_matching_preserves_distance(self):
        s = structure(grid_complex(2, 3))
        y1 = s.convex_hull({"v0.0", "v0.1"})
        y2 = s.convex_hull({"v2.2", "v2.3"})
        gp = s.gates(y1, y2)
        for v, w in gp.matching.items():
            assert s.distance(v, w) == gp.delta_sep

    def test_halves_of_a_long_path_in_a_quarter_second(self):
        # a search over the 10^6 pairs of the two halves takes 0.7-1 s
        s = structure(path_complex(1999))
        y1 = frozenset(f"p{i}" for i in range(1000))
        start = time.perf_counter()
        gp = s.gates(y1, frozenset(s.coords) - y1)
        assert time.perf_counter() - start < 0.25
        assert (gp.v1, gp.v2, gp.matching) == ({"p999"}, {"p1000"}, {"p999": "p1000"})
        assert [s.hyperplanes[h].edges for h in gp.separators] == [{"e999"}]

    def test_non_convex_rejected(self):
        s = structure(grid_complex(1, 1))
        with pytest.raises(ValueError, match="convex"):
            s.gates({"v0.0", "v1.1"}, {"v0.1"})

    def test_duality_square(self):
        s = structure(grid_complex(1, 1))
        gp = s.gates({"v0.0", "v0.1"}, {"v1.0", "v1.1"})
        ok, witness = s.check_gate_edge_duality(gp)
        assert ok and witness is None

    def test_duality_randomized(self, rng):
        complexes = [
            grid_complex(2, 3),
            grid_complex(3, 3),
            tree_complex(
                [("o", "a"), ("o", "b"), ("a", "c"), ("a", "d"), ("b", "e")]
            ),
        ]
        structures = [structure(c) for c in complexes]
        for _ in range(100):
            s = rng.choice(structures)
            vs = list(s.complex.vertices)
            y1 = s.convex_hull(set(rng.sample(vs, 2)))
            y2 = s.convex_hull(set(rng.sample(vs, 2)))
            gp = s.gates(y1, y2)
            ok, _ = s.check_gate_edge_duality(gp)
            assert ok
            # separating hyperplanes are exactly the distance between gates
            for v, w in gp.matching.items():
                assert s.distance(v, w) == len(gp.separators)


class TestParallelSet:
    def test_square_edge(self):
        s = structure(grid_complex(1, 1))
        pd = parallel_set(s, {"v0.0", "v1.0"})
        assert pd.parallel_set == frozenset(s.complex.vertices)
        assert len(pd.copies) == 2
        assert pd.orthogonal == {"v0.0", "v0.1"}

    def test_tree_edge_is_rigid(self):
        t = tree_complex([("o", "x"), ("o", "y")])
        s = structure(t)
        pd = parallel_set(s, {"o", "x"})
        assert pd.parallel_set == {"o", "x"}
        assert pd.orthogonal == {"o"}

    def test_grid_middle_column(self):
        s = structure(grid_complex(2, 3))
        col = s.convex_hull({"v0.1", "v2.1"})
        pd = parallel_set(s, col)
        assert len(pd.copies) == 4
        assert pd.parallel_set == frozenset(s.complex.vertices)
        assert len(pd.orthogonal) == 4

    def test_product_structure(self):
        s = structure(grid_complex(2, 3))
        col = s.convex_hull({"v0.1", "v2.1"})
        pd = parallel_set(s, col)
        assert len(pd.parallel_set) == len(pd.copies) * len(col)
        # the two hyperplane families pairwise cross
        crossing = s.crosses(pd.base)
        separating = s.crosses(pd.orthogonal)
        for hid1 in crossing:
            for hid2 in separating:
                assert s.crossing(s.hyperplanes[hid1], s.hyperplanes[hid2])


class TestProductDecompose:
    def test_square_two_factors(self):
        pp = structure(grid_complex(1, 1)).product_decompose()
        assert len(pp.classes) == 2

    def test_tripod_irreducible(self):
        t = tree_complex([("o", "x"), ("o", "y"), ("o", "z")])
        assert len(structure(t).product_decompose().classes) == 1

    def test_grid_path_factors(self):
        s = structure(grid_complex(2, 3))
        pp = s.product_decompose()
        assert sorted(len(c) for c in pp.classes) == [2, 3]
        assert sorted(len(f) for f in pp.factors) == [3, 4]

    def test_factor_product_counts(self):
        for c in (grid_complex(2, 2), hypercube_complex(3), path_complex(4)):
            s = structure(c)
            pp = s.product_decompose()
            n = 1
            for f in pp.factors:
                n *= len(f)
            assert n == len(c.vertices)

    def test_classes_pairwise_cross(self):
        c = grid_complex(2, 3)
        sides = halfspaces(c)
        pp = structure(c).product_decompose()
        for c1, c2 in combinations(pp.classes, 2):
            for hid1 in c1:
                for hid2 in c2:
                    assert brute_crossing(sides, hid1, hid2)


class TestFacingTriple:
    def test_tripod_true(self):
        t = tree_complex([("o", "x"), ("o", "y"), ("o", "z")])
        found, witness = structure(t).has_facing_triple()
        assert found and len(witness) == 3

    def test_path_false(self):
        assert structure(path_complex(5)).has_facing_triple() == (False, None)

    def test_cube_false(self):
        assert structure(hypercube_complex(3)).has_facing_triple() == (False, None)

    def test_path_of_400_edges_in_under_two_seconds(self):
        s = structure(path_complex(400))
        start = time.perf_counter()
        assert s.has_facing_triple() == (False, None)
        assert time.perf_counter() - start < 2

    def test_matches_exhaustive_search(self, rng):
        for _ in range(20):
            walls = _random_wallspace(rng, max_points=6, max_walls=6)
            c = tk.sageev_dual(walls)
            assert structure(c).has_facing_triple() == brute_facing_triple(c)


# -- wallspaces ------------------------------------------------------------------

def pairwise_crossing_walls(k):
    """k walls over k + 2 points: point 0 on no wall's recorded side, point
    i + 1 on wall i's only and point k + 1 on all of them."""
    return tk.Wallspace(k + 2, tuple(frozenset({i + 1, k + 1}) for i in range(k)))


def _random_wallspace(rng, max_points=8, max_walls=10):
    n = rng.randint(2, max_points)
    walls = set()
    for _ in range(rng.randint(1, max_walls)):
        side = frozenset(p for p in range(n) if rng.random() < 0.5)
        if 0 in side:
            side = frozenset(range(n)) - side
        if side and len(side) < n:
            walls.add(side)
    if not walls:
        walls.add(frozenset({n - 1}))
    return tk.Wallspace(n, tuple(sorted(walls, key=sorted)))


class TestWallspace:
    def test_parse_round_trip(self):
        w = tk.parse_wallspace("points 4\nwall 0011\nwall 0101\n")
        assert w.n_points == 4
        assert len(w.walls) == 2
        assert tk.parse_wallspace(wallspace_text(w)).walls == w.walls

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="empty side"):
            tk.Wallspace(3, (frozenset(),))

    def test_duplicate_wall_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            tk.Wallspace(3, (frozenset({1}), frozenset({1})))

    def test_parse_errors(self):
        with pytest.raises(tk.WallspaceParseError):
            tk.parse_wallspace("wall 01\n")
        with pytest.raises(tk.WallspaceParseError):
            tk.parse_wallspace("points 2\nwall 012\n")

    def test_dual_cost_does_not_follow_the_point_count(self):
        # every point on no wall shares the principal orientation 0
        w = tk.parse_wallspace("points 100000000\n")
        tracemalloc.start()
        start = time.perf_counter()
        c = tk.sageev_dual(w)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert (len(c.vertices), len(c.edges)) == (1, 0)
        assert elapsed < 1 and peak < 1 << 20

    @pytest.mark.parametrize("n", [0, -3])
    def test_needs_a_point(self, n):
        with pytest.raises(ValueError, match="at least one"):
            tk.Wallspace(n, ())
        with pytest.raises(tk.WallspaceParseError, match="at least one"):
            tk.parse_wallspace(f"points {n}\n")

    @pytest.mark.parametrize("count", ["x", "2.5", "0x4"])
    def test_non_integer_point_count(self, count):
        with pytest.raises(tk.WallspaceParseError, match="line 1: bad point count"):
            tk.parse_wallspace(f"points {count}\nwall 01\n")


class TestSageevDual:
    def test_two_crossing_walls_square(self):
        w = tk.parse_wallspace("points 4\nwall 0011\nwall 0101\n")
        c = tk.sageev_dual(w)
        assert (len(c.vertices), len(c.edges), len(c.squares)) == (4, 4, 1)

    def test_pairwise_crossing_cube(self):
        walls = tuple(
            frozenset(i for i in range(8) if i >> b & 1) for b in range(3)
        )
        c = tk.sageev_dual(tk.Wallspace(8, walls))
        assert (len(c.vertices), len(c.edges), len(c.squares)) == (8, 12, 6)

    def test_nested_walls_path(self):
        w = tk.parse_wallspace("points 4\nwall 1000\nwall 1100\nwall 1110\n")
        c = tk.sageev_dual(w)
        assert (len(c.vertices), len(c.edges), len(c.squares)) == (4, 3, 0)

    def test_vertex_bound(self):
        # every pair of the 12 walls crosses, so all 2^12 orientations are
        # consistent; the search stops past MAX_VERTICES of them
        with pytest.raises(ValueError, match="bound"):
            tk.sageev_dual(pairwise_crossing_walls(12))

    def test_wall_bound(self):
        walls = tuple(frozenset({i + 1}) for i in range(17))
        with pytest.raises(ValueError, match="bound"):
            tk.sageev_dual(tk.Wallspace(18, walls))

    def test_vertex_count_matches_brute_force(self, rng):
        for _ in range(30):
            w = _random_wallspace(rng, max_points=6, max_walls=8)
            c = tk.sageev_dual(w)
            assert len(c.vertices) == brute_consistent_orientations(w)

    def test_duals_are_median(self, rng):
        for _ in range(50):
            w = _random_wallspace(rng, max_points=8, max_walls=10)
            assert tk.is_median(tk.sageev_dual(w))


class TestIsMedian:
    def test_tree(self):
        assert tk.is_median(tree_complex([("o", "x"), ("o", "y"), ("y", "z")]))

    def test_cylinder_not_median(self):
        cyl = make_complex(
            ["1", "2", "3", "4"],
            [
                Edge("e12", "1", "2"),
                Edge("e23", "2", "3"),
                Edge("e34", "3", "4"),
                Edge("e41", "4", "1"),
                Edge("f23", "2", "3"),
                Edge("f41", "4", "1"),
            ],
            [
                ("s1", (("e12", 1), ("e23", 1), ("e34", 1), ("e41", 1))),
                ("s2", (("e12", 1), ("f23", 1), ("e34", 1), ("f41", 1))),
            ],
        )
        assert not tk.is_median(cyl)

    def test_six_cycle_not_median(self):
        c = make_complex(
            [f"h{i}" for i in range(6)],
            [Edge(f"e{i}", f"h{i}", f"h{(i + 1) % 6}") for i in range(6)],
            [],
        )
        assert not tk.is_median(c)

    def test_agrees_with_brute_force(self, rng):
        cases = [
            grid_complex(2, 2),
            path_complex(4),
            hypercube_complex(3),
            tree_complex([("o", "x"), ("o", "y"), ("x", "z")]),
        ]
        for _ in range(10):
            cases.append(tk.sageev_dual(_random_wallspace(rng, 5, 5)))
        for c in cases:
            assert tk.is_median(c) == brute_median(c)

    def test_size_bound(self):
        with pytest.raises(ValueError, match="bound"):
            tk.is_median(path_complex(tk.MAX_VERTICES))
