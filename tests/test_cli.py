import importlib
import json
import subprocess
import sys
from itertools import combinations, islice
from pathlib import Path

import pytest

from cubartin import cli, constructions, cube_model, graphs
from cubartin import defining_graph as dg

PATH_46 = "vertex a\nvertex b\nvertex c\nedge a b 4\nedge b c 6\n"
BRAID4 = "vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 3\nedge a c 2\n"
GAP = (
    "vertex a\nvertex b\nvertex c\nvertex d\n"
    "edge a b 2\nedge b c 3\nedge a c 4\nedge a d 3\n"
)
WALLS_SQUARE = "points 4\nwall 0011\nwall 0101\n"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def graph_file(tmp_path):
    def write(text, name="graph.txt"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


class TestAnalyze:
    def test_positive(self, capsys, graph_file):
        code, out, _ = run(capsys, "analyze", "--graph", graph_file(PATH_46))
        assert code == 0
        assert f"verdict: {dg.COCOMPACTLY_CUBULATED}" in out
        assert "plan:" in out

    def test_negative_exits_1(self, capsys, graph_file):
        code, out, _ = run(capsys, "analyze", "--graph", graph_file(BRAID4))
        assert code == 1
        assert f"verdict: {dg.NOT_COCOMPACTLY_CUBULATED}" in out
        assert "witness: edge" in out

    def test_outside_warns_exits_0(self, capsys, graph_file):
        code, out, _ = run(capsys, "analyze", "--graph", graph_file(GAP))
        assert code == 0
        assert f"verdict: {dg.OUTSIDE_CLASSIFICATION}" in out
        assert "warning:" in out

    def test_parse_error_exits_2(self, capsys, graph_file):
        code, _, err = run(capsys, "analyze", "--graph", graph_file("nonsense\n"))
        assert code == 2
        assert "error:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "analyze", "--graph", "/does/not/exist")
        assert code == 2
        assert "error:" in err

    def test_doc_format_is_json(self, capsys, graph_file):
        code, out, _ = run(
            capsys, "--format", "doc", "analyze", "--graph", graph_file(PATH_46)
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == dg.COCOMPACTLY_CUBULATED


class TestBuildVerify:
    def test_pipeline(self, capsys, graph_file, tmp_path):
        cx = str(tmp_path / "out.complex")
        code, out, _ = run(
            capsys, "build", "--graph", graph_file(PATH_46), "-o", cx
        )
        assert code == 0
        assert "npc: true" in out
        assert "abelianization_checked: true" in out
        code, out, _ = run(capsys, "verify", "--complex", cx)
        assert code == 0
        assert "npc: true" in out
        assert "euler_characteristic: 0" in out

    def test_build_times_circle_route(self, capsys, graph_file, tmp_path):
        text = "vertex a\nvertex b\nvertex c\nedge a b 3\nedge b c 2\nedge a c 2\n"
        cx = str(tmp_path / "out.complex")
        code, out, _ = run(capsys, "build", "--graph", graph_file(text), "-o", cx)
        assert code == 0

    def test_build_refuses_negative(self, capsys, graph_file, tmp_path):
        code, out, _ = run(
            capsys,
            "build",
            "--graph",
            graph_file(BRAID4),
            "-o",
            str(tmp_path / "x"),
        )
        assert code == 1
        assert "refused: true" in out

    def test_build_to_an_unwritable_path_exits_2(self, capsys, graph_file, tmp_path):
        out_path = tmp_path / "missing" / "out.complex"
        code, out, err = run(capsys, "build", "--graph", graph_file(PATH_46), "-o", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert "Traceback" not in err

    def test_build_refuses_a_label_past_the_bound(self, capsys, graph_file, tmp_path):
        bound = constructions.MAX_LABEL
        for label in (bound + 1, bound + 2, 10**9):
            graph = graph_file(f"vertex a\nvertex b\nedge a b {label}\n")
            out_path = tmp_path / "x"
            code, out, err = run(capsys, "build", "--graph", graph, "-o", str(out_path))
            assert code == 2
            assert out == ""
            assert f"label {label} exceeds the bound {bound}" in err
            assert not out_path.exists()
            # analyze has no bound
            code, out, _ = run(capsys, "analyze", "--graph", graph)
            assert code == 0
            assert f"verdict: {dg.COCOMPACTLY_CUBULATED}" in out
        graph = graph_file(f"vertex a\nvertex b\nedge a b {bound}\n")
        code, out, _ = run(capsys, "build", "--graph", graph, "-o", str(tmp_path / "y"))
        assert code == 0

    def test_salvetti_cube_bound(self, capsys, graph_file, tmp_path):
        """K_n with every label 2 has a Salvetti cube per clique of size >= 3:
        K_12 has 4017 and builds, K_13 has 8100 and is refused, as is a
        complex file with one cube record past the bound."""
        bound = cube_model.MAX_CUBES
        names = [f"g{i}" for i in range(13)]

        def complete(n):
            vs = names[:n]
            return "".join(f"vertex {v}\n" for v in vs) + "".join(f"edge {u} {w} 2\n" for u, w in combinations(vs, 2))

        code, out, _ = run(capsys, "build", "--graph", graph_file(complete(12)), "-o", str(tmp_path / "k12"))
        assert code == 0 and "npc: true" in out
        out_path = tmp_path / "k13"
        code, out, err = run(capsys, "build", "--graph", graph_file(complete(13)), "-o", str(out_path))
        assert (code, out) == (2, "")
        assert f"exceed the bound of {bound}" in err
        assert not out_path.exists()
        # the first 4097 cliques of K_13 are closed under subsets
        cliques = graphs.cliques(names, combinations(names, 2))
        lines = ["cubecomplex 1", "vertex v", *(f"edge {x} v v {x}" for x in names)]
        lines += [f"square sq.{x}.{y} {x}+ {y}+ {x}- {y}-" for x, y in combinations(names, 2)]
        lines += ["cube " + " ".join(c) for c in islice(cliques, bound + 1)]
        lines += ["base v"]
        past = tmp_path / "past.complex"
        past.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", "--complex", str(past))
        assert code == 2
        assert f"exceed the bound of {bound}" in err
        del lines[-2]
        at_bound = cube_model.parse_complex("\n".join(lines) + "\n")
        assert len(at_bound.salvetti_cubes) == bound

    def test_build_refuses_dotted_vertex_name(self, capsys, graph_file, tmp_path):
        text = (
            "vertex c\nvertex l\nvertex k\nvertex c.l.x\n"
            "edge c l 4\nedge c k 2\nedge k c.l.x 2\nedge c c.l.x 2\n"
        )
        out_path = tmp_path / "x"
        code, _, err = run(capsys, "build", "--graph", graph_file(text), "-o", str(out_path))
        assert code == 2
        assert "line 4: vertex name 'c.l.x' contains '.'" in err
        assert not out_path.exists()

    def test_verify_flags_bad_complex(self, capsys, tmp_path):
        bad = tmp_path / "bad.complex"
        bad.write_text(
            "cubecomplex 1\nvertex v\nedge a v v\nsquare s a+ a+ a- a-\n"
        )
        code, out, _ = run(capsys, "verify", "--complex", str(bad))
        assert code == 1
        assert "npc: false" in out
        assert "violations" in out

    def test_verify_names_one_witness_per_vertex(self, capsys, tmp_path):
        # 14 commuting loops at one vertex with no cube: every signed clique
        # of three or more of their ends is empty, and one is reported
        loops = [f"v{i}" for i in range(14)]
        cx = tmp_path / "loops.complex"
        cx.write_text(
            "cubecomplex 1\nvertex v0\n"
            + "".join(f"edge {x} v0 v0\n" for x in loops)
            + "".join(f"square s.{a}.{b} {a}+ {b}+ {a}- {b}-\n" for a, b in combinations(loops, 2))
        )
        code, out, _ = run(capsys, "verify", "--complex", str(cx))
        assert code == 1
        assert "violations: v0: non-flag (empty triangle [('v0', -1), ('v1', -1), ('v10', -1)])\n" in out
        code, out, _ = run(capsys, "--format", "doc", "verify", "--complex", str(cx))
        assert code == 1
        assert len(json.loads(out)["violations"]) == 1

    def test_verify_parse_error_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.complex"
        bad.write_text("vertex v\n")
        code, _, err = run(capsys, "verify", "--complex", str(bad))
        assert code == 2
        assert "error:" in err

    def test_verify_refuses_an_internal_record_that_names_no_edge(self, capsys, tmp_path):
        bad = tmp_path / "bad.complex"
        bad.write_text("cubecomplex 1\nvertex v\ninternal nosuch\n")
        code, out, err = run(capsys, "verify", "--complex", str(bad))
        assert (code, out) == (2, "")
        assert "internal record nosuch names no edge" in err


class TestToolkit:
    @pytest.fixture()
    def square_file(self, tmp_path):
        from cubartin.cube_model import complex_text
        from factories import grid_complex

        p = tmp_path / "grid.complex"
        p.write_text(complex_text(grid_complex(1, 1)))
        return str(p)

    def test_hyperplanes(self, capsys, square_file):
        code, out, _ = run(capsys, "toolkit", "hyperplanes", "--complex", square_file)
        assert code == 0
        assert "count: 2" in out

    def test_hull(self, capsys, square_file):
        code, out, _ = run(
            capsys,
            "toolkit",
            "hull",
            "--complex",
            square_file,
            "--vertices",
            "v0.0,v1.1",
        )
        assert code == 0
        assert "size: 4" in out

    def test_gates(self, capsys, square_file):
        code, out, _ = run(
            capsys,
            "toolkit",
            "gates",
            "--complex",
            square_file,
            "--y1",
            "v0.0",
            "--y2",
            "v1.1",
        )
        assert code == 0
        assert "separation: 2" in out
        assert "edge_duality: true" in out

    def test_product(self, capsys, square_file):
        code, out, _ = run(capsys, "toolkit", "product", "--complex", square_file)
        assert code == 0
        assert "irreducible: false" in out
        assert "factors: 2" in out

    def test_facing(self, capsys, square_file):
        code, out, _ = run(capsys, "toolkit", "facing", "--complex", square_file)
        assert code == 0
        assert "facing_triple: false" in out

    @pytest.fixture()
    def tripod_file(self, tmp_path):
        from cubartin.cube_model import complex_text
        from factories import tree_complex

        p = tmp_path / "tripod.complex"
        p.write_text(complex_text(tree_complex([("o", "x"), ("o", "y"), ("o", "z")])))
        return str(p)

    def test_facing_tripod(self, capsys, tripod_file):
        code, out, _ = run(capsys, "toolkit", "facing", "--complex", tripod_file)
        assert code == 0
        assert out == "command: toolkit facing\nfacing_triple: true\nwitness: 0 1 2\n"

    def test_hyperplanes_tripod(self, capsys, tripod_file):
        code, out, _ = run(capsys, "toolkit", "hyperplanes", "--complex", tripod_file)
        assert code == 0
        assert out == "command: toolkit hyperplanes\ncount: 3\n" + "".join(
            f"h{i}.edges: e.o.{leaf}\nh{i}.sides: 3|1\n" for i, leaf in enumerate("xyz")
        )

    def test_dual(self, capsys, tmp_path):
        walls = tmp_path / "walls.txt"
        walls.write_text(WALLS_SQUARE)
        out_path = str(tmp_path / "dual.complex")
        code, out, _ = run(
            capsys, "toolkit", "dual", "--wallspace", str(walls), "-o", out_path
        )
        assert code == 0
        assert "vertices: 4" in out
        assert "squares: 1" in out
        assert "median: true" in out
        code, out, _ = run(capsys, "verify", "--complex", out_path)
        assert code == 0

    def test_missing_argument_exits_2(self, capsys, square_file):
        code, _, err = run(capsys, "toolkit", "hull", "--complex", square_file)
        assert code == 2
        assert "error:" in err
        code, _, err = run(capsys, "toolkit", "dual")
        assert code == 2

    def test_dual_to_an_unwritable_path_exits_2(self, capsys, tmp_path):
        walls = tmp_path / "walls.txt"
        walls.write_text(WALLS_SQUARE)
        out_path = tmp_path / "missing" / "dual.complex"
        code, out, err = run(capsys, "toolkit", "dual", "--wallspace", str(walls), "-o", str(out_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("points", ["0", "-3", "x"])
    def test_dual_refuses_bad_point_count(self, capsys, tmp_path, points):
        walls = tmp_path / "walls.txt"
        walls.write_text(f"points {points}\n")
        out_path = tmp_path / "dual.complex"
        code, _, err = run(
            capsys, "toolkit", "dual", "--wallspace", str(walls), "-o", str(out_path)
        )
        assert code == 2
        assert "error:" in err
        assert not out_path.exists()

    def test_dual_past_the_vertex_bound_exits_2(self, capsys, tmp_path):
        from factories import wallspace_text

        from cubartin.toolkit import Wallspace

        # 12 pairwise-crossing walls: 2^12 consistent orientations
        walls = tmp_path / "walls.txt"
        walls.write_text(wallspace_text(Wallspace(14, tuple(frozenset({i + 1, 13}) for i in range(12)))))
        out_path = tmp_path / "dual.complex"
        code, out, err = run(
            capsys, "toolkit", "dual", "--wallspace", str(walls), "-o", str(out_path)
        )
        assert code == 2
        assert out == ""
        assert "error: the dual exceeds the bound of 2000 vertices" in err
        assert not out_path.exists()

    def test_non_cat0_complex_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "loop.complex"
        bad.write_text("cubecomplex 1\nvertex v\nedge a v v\n")
        code, _, err = run(capsys, "toolkit", "hyperplanes", "--complex", str(bad))
        assert code == 2
        assert "CAT(0)" in err

    def test_partial_cube_that_is_not_median_exits_2(self, capsys, tmp_path):
        from cubartin.cube_model import complex_text, make_complex
        from factories import hypercube_complex

        # Q3 minus a vertex, with its three squares: each hyperplane still
        # cuts it in two, but the three squares around c000 span no cube
        q3 = hypercube_complex(3)
        edges = [e for e in q3.edges if "c111" not in (e.src, e.dst)]
        kept = {e.eid for e in edges}
        squares = [(sid, ts) for sid, ts in q3.squares if {t[0] for t in ts} <= kept]
        assert len(squares) == 3
        bad = tmp_path / "q3-minus-vertex.complex"
        bad.write_text(complex_text(make_complex(sorted(set(q3.vertices) - {"c111"}), edges, squares)))
        code, out, err = run(capsys, "toolkit", "hull", "--complex", str(bad), "--vertices", "c011,c101")
        assert code == 2
        assert out == ""
        assert "CAT(0)" in err

    def test_empty_complex_exits_2(self, capsys, tmp_path):
        empty = tmp_path / "empty.complex"
        empty.write_text("cubecomplex 1\n")
        code, _, err = run(capsys, "toolkit", "hyperplanes", "--complex", str(empty))
        assert code == 2
        assert "CAT(0)" in err

    def test_complex_past_the_vertex_bound_exits_2(self, capsys, tmp_path):
        from cubartin.cube_model import complex_text
        from factories import path_complex

        path = tmp_path / "path.complex"
        path.write_text(complex_text(path_complex(2000)))
        code, out, err = run(capsys, "toolkit", "hyperplanes", "--complex", str(path))
        assert code == 2
        assert out == ""
        assert "2001 vertices exceed the bound 2000" in err


class TestAlgebra:
    def test_nf(self, capsys):
        code, out, _ = run(
            capsys, "algebra", "nf", "--dihedral", "3", "--word", "abaB"
        )
        assert code == 0
        assert "normal_form:" in out

    def test_equal_true(self, capsys):
        code, out, _ = run(
            capsys,
            "algebra",
            "equal",
            "--dihedral",
            "3",
            "--word",
            "aba",
            "--word2",
            "bab",
        )
        assert code == 0
        assert "equal: true" in out

    def test_equal_false_exits_1(self, capsys):
        code, out, _ = run(
            capsys,
            "algebra",
            "equal",
            "--type",
            "4",
            "--word",
            "ac",
            "--word2",
            "ca",
        )
        assert code == 1
        assert "equal: false" in out

    def test_phi(self, capsys):
        code, out, _ = run(capsys, "algebra", "phi", "--dihedral", "5")
        assert code == 0
        assert "exp_r_zero: true" in out
        assert "phi_delta_is_b_n: true" in out

    def test_phi_even_exits_2(self, capsys):
        code, _, err = run(capsys, "algebra", "phi", "--dihedral", "4")
        assert code == 2

    def test_commutator(self, capsys):
        code, out, _ = run(
            capsys, "algebra", "commutator", "--dihedral", "3", "--word", "sS"
        )
        assert code == 0
        assert "in_commutator_subgroup: true" in out
        code, out, _ = run(
            capsys, "algebra", "commutator", "--dihedral", "3", "--word", "s"
        )
        assert code == 1

    def test_center(self, capsys):
        code, out, _ = run(capsys, "algebra", "center", "--type", "4")
        assert code == 0
        assert "center_generator: Delta" in out
        assert "central: true" in out

    def test_bounded_checks(self, capsys):
        code, out, _ = run(
            capsys,
            "algebra",
            "bounded-checks",
            "--type",
            "3",
            "--L",
            "4",
            "--K",
            "1",
            "--M",
            "1",
        )
        assert code == 0
        assert "label: bounded verification" in out
        assert "ii_verified: true" in out
        assert "iii_verified: true" in out

    @pytest.mark.parametrize("bounds", [("--L", "-1"), ("--K", "-3", "--M", "-1")])
    def test_bounded_checks_negative_bound_exits_2(self, capsys, bounds):
        code, out, err = run(capsys, "algebra", "bounded-checks", "--type", "3", *bounds)
        assert code == 2
        assert out == ""
        assert ">= 0" in err

    def test_missing_context_exits_2(self, capsys):
        code, _, err = run(capsys, "algebra", "nf", "--word", "ab")
        assert code == 2
        assert "error:" in err

    def test_bad_word_exits_2(self, capsys):
        code, _, err = run(
            capsys, "algebra", "nf", "--dihedral", "3", "--word", "a!b"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("nf", "--dihedral", "3", "--word", "x"),
            ("equal", "--type", "4", "--word", "ab", "--word2", "aD"),
        ],
    )
    def test_unknown_letter_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "algebra", *argv)
        assert code == 2
        assert out == ""
        assert "unknown letter" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("nf", "--dihedral", "1001", "--word", "ab"),
            ("phi", "--dihedral", "100001"),
            ("center", "--dihedral", "5000"),
        ],
    )
    def test_dihedral_past_bound_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "algebra", *argv)
        assert code == 2
        assert out == ""
        assert "exceeds the bound 1000" in err

    def test_L_past_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "algebra", "bounded-checks", "--type", "5", "--L", "10")
        assert code == 2
        assert out == ""
        assert "exceeds the bound 9" in err

    @pytest.mark.parametrize("flag", ["--K", "--M"])
    def test_K_and_M_past_bound_exit_2(self, capsys, flag):
        code, out, err = run(capsys, "algebra", "bounded-checks", "--type", "5", flag, "5")
        assert code == 2
        assert out == ""
        assert f"{flag[2]} = 5 exceeds the bound 4" in err


    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--dihedral", "3", "--word", "xx"), "unknown letter 'x'"),
            (("--dihedral", "3", "--word", "rxxq"), "unknown letter 'x'"),
            (("--dihedral", "0", "--word", "s"), "dihedral index must be >= 2"),
            (("--dihedral", "-5", "--word", "s"), "dihedral index must be >= 2"),
            (("--dihedral", "1001", "--word", "s"), "dihedral index 1001 exceeds the bound 1000"),
            (("--dihedral", "1000001", "--word", "s"), "dihedral index 1000001 exceeds the bound 1000"),
        ],
    )
    def test_commutator_input_errors_exit_2(self, capsys, argv, message):
        code, out, err = run(capsys, "algebra", "commutator", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestImports:
    """Each subcommand imports only the layers it calls, in a fresh interpreter."""

    def loaded(self, *argv):
        probe = (
            "import sys\n"
            "from cubartin import cli\n"
            "cli.main(sys.argv[1:])\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('cubartin'))))\n"
        )
        r = subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True)
        assert "Traceback" not in r.stderr, r.stderr
        return {m.removeprefix("cubartin.") for m in r.stdout.splitlines()[-1].split()} - {"cubartin"}

    def test_package_root_loads_no_submodule(self):
        r = subprocess.run(
            [sys.executable, "-c", "import sys, cubartin\nprint([m for m in sys.modules if m.startswith('cubartin.')])"],
            capture_output=True,
            text=True,
        )
        assert (r.returncode, r.stdout) == (0, "[]\n"), r.stderr

    def test_analyze(self, graph_file):
        got = self.loaded("analyze", "--graph", graph_file(PATH_46))
        assert got == {"cli", "defining_graph", "graphs", "coxeter", "words"}

    def test_verify(self, tmp_path):
        cx = tmp_path / "out.complex"
        cx.write_text(cube_model.complex_text(constructions.build_K_odd(5)))
        assert self.loaded("verify", "--complex", str(cx)) == {"cli", "cube_model", "graphs"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("nf", "--type", "5", "--word", "abcABC"),
            ("phi", "--dihedral", "7"),
            ("commutator", "--dihedral", "5", "--word", "rsRS"),
            ("bounded-checks", "--type", "3", "--L", "2"),
        ],
    )
    def test_algebra(self, argv):
        got = self.loaded("algebra", *argv)
        assert "artin_algebra" in got
        assert not got & {"cube_model", "toolkit", "constructions", "defining_graph"}

    def test_build(self, graph_file, tmp_path):
        got = self.loaded("build", "--graph", graph_file(PATH_46), "-o", str(tmp_path / "out.complex"))
        assert "constructions" in got
        assert not got & {"toolkit", "artin_algebra", "garside"}


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(PATH_46)
        outputs = set()
        for _ in range(2):
            r = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "cubartin.cli",
                    "--format",
                    "doc",
                    "analyze",
                    "--graph",
                    str(graph),
                ],
                capture_output=True,
            )
            assert r.returncode == 0
            outputs.add(r.stdout)
        assert len(outputs) == 1

    def test_build_output_file_deterministic(self, tmp_path):
        graph = tmp_path / "g.txt"
        graph.write_text(PATH_46)
        contents = set()
        for name in ("c1", "c2"):
            out = tmp_path / name
            r = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "cubartin.cli",
                    "build",
                    "--graph",
                    str(graph),
                    "-o",
                    str(out),
                ],
                capture_output=True,
            )
            assert r.returncode == 0
            contents.add(out.read_bytes())
        assert len(contents) == 1

    def test_console_script_target_resolves(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["cubartin"]
        module, _, attr = target.partition(":")
        assert (module, attr) == ("cubartin.cli", "main")
        main = getattr(importlib.import_module(module), attr)
        assert main(["analyze", "--graph", "/does/not/exist"]) == 2

    def test_python_m_cubartin_missing_file_exits_2(self):
        r = subprocess.run(
            [sys.executable, "-m", "cubartin", "analyze", "--graph", "/does/not/exist"],
            capture_output=True,
        )
        assert r.returncode == 2
        assert r.stdout == b""
        assert b"cannot read" in r.stderr

    def test_console_script_installed(self):
        r = subprocess.run(
            ["cubartin", "analyze", "--graph", "/does/not/exist"],
            capture_output=True,
        )
        assert r.returncode == 2
