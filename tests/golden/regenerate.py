"""The golden `cubartin` corpora: their inputs, how one is run, and the
script that rewrites the expected results in build.json, algebra.json,
analyze.json, verify.json and toolkit.json.

A build case is a defining graph run through `cli.main` in-process, in a
fresh directory, as `build --graph graph.txt -o out.complex`.  Its record
holds the exit code, stdout, stderr, and the SHA-256 and line count of the
`-o` file (None when no file is written).  An algebra case is an argument
list run through `cli.main`; its record holds the arguments, the exit code,
stdout and stderr.  An analyze, verify or toolkit case is an argument list
and the input files it names, run in a fresh directory; its record holds
the arguments, the SHA-256 of each input, the exit code, stdout, stderr and
the `-o` digest.  tests/test_golden.py compares every record.

Run from the repository root to rewrite every file:

    PYTHONPATH=src:tests python tests/golden/regenerate.py

A change that rewrites it names each changed case and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from itertools import combinations
from pathlib import Path

from factories import grid_complex, hypercube_complex, path_complex, tree_complex

from cubartin import cli, constructions
from cubartin.cube_model import complex_text, make_complex
from cubartin.defining_graph import parse_graph, verdict

EXPECTED = Path(__file__).with_name("build.json")
ALGEBRA_EXPECTED = Path(__file__).with_name("algebra.json")
ANALYZE_EXPECTED = Path(__file__).with_name("analyze.json")
VERIFY_EXPECTED = Path(__file__).with_name("verify.json")
TOOLKIT_EXPECTED = Path(__file__).with_name("toolkit.json")


def graph_text(vertices, edges) -> str:
    return "".join(f"vertex {v}\n" for v in vertices) + "".join(f"edge {u} {v} {m}\n" for u, v, m in edges)


def edge(m: int) -> str:
    return graph_text("ab", [("a", "b", m)])


def times_circle(m: int) -> str:
    return graph_text("cuv", [("c", "u", 2), ("c", "v", 2), ("u", "v", m)])


def star(labels) -> str:
    leaves = [f"l{i}" for i in range(len(labels))]
    return graph_text(["s", *leaves], [("s", v, m) for v, m in zip(leaves, labels)])


def salvetti(n: int, leaf_labels=()) -> str:
    """K_n with every label 2, and one leaf per label, at core vertices in turn."""
    core = [f"c{i}" for i in range(n)]
    edges = [(u, v, 2) for u, v in combinations(core, 2)]
    leaves = [f"l{i}" for i in range(len(leaf_labels))]
    edges += [(core[i % n], leaf, m) for i, (leaf, m) in enumerate(zip(leaves, leaf_labels))]
    return graph_text(core + leaves, edges)


def wedge(*texts: str) -> str:
    """The disjoint union of graphs, their vertex names prefixed apart."""
    lines = []
    for i, text in enumerate(texts):
        for line in text.splitlines():
            kind, *names = line.split()
            if kind == "vertex":
                lines.append(f"vertex w{i}{names[0]}")
            else:
                lines.append(f"edge w{i}{names[0]} w{i}{names[1]} {names[2]}")
    return "\n".join(lines) + "\n"


ODD = (3, 5, 7, 9, 11, 51, 101, 401, 1601, 2001)
EVEN = (2, 4, 6, 8, 10, 50, 100, 400, 1600, 2000)
CIRCLE = (3, 4, 5, 6, 7, 8, 51, 101, 400, 2001)

CASES = {
    **{f"odd-{m}": edge(m) for m in ODD},
    **{f"even-{m}": edge(m) for m in EVEN},
    **{f"circle-{m}": times_circle(m) for m in CIRCLE},
    "star-2": star([4, 6]),
    "star-5": star([2, 4, 6, 8, 10]),
    "star-12": star([4 + 2 * (i % 5) for i in range(12)]),
    **{f"salvetti-K{n}": salvetti(n, (4, 6, 8, 10)[: n - 7]) for n in range(8, 13)},
    "salvetti-K3-leaves": salvetti(3, (4, 4, 6, 10)),
    "wedge-odd-even": wedge(edge(5), edge(6)),
    "wedge-star-odd": wedge(star([4, 6, 8]), edge(7)),
    "wedge-salvetti-odd-even": wedge(salvetti(4, (6,)), edge(3), edge(4)),
    "one-vertex": "vertex a\n",
    "free-3": "vertex a\nvertex b\nvertex c\n",
    "negative-braid": graph_text("abc", [("a", "b", 3), ("b", "c", 3), ("a", "c", 2)]),
    # refusals past MAX_LABEL (exit 2) and MAX_CUBES (K_13, 8100 cubes)
    "refuse-odd-20003": edge(20003),
    "refuse-even-20002": edge(20002),
    "refuse-circle-20003": times_circle(20003),
    "refuse-odd-10^9": edge(10**9 + 1),
    "refuse-salvetti-K13": salvetti(13),
}


def _run(argv: list, files: dict) -> tuple:
    """Run `cli.main(argv)` in a fresh directory holding the named files;
    return the exit code, stdout, stderr and the digest of out.complex."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, text in files.items():
                Path(name).write_text(text)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            output = None
            if Path("out.complex").exists():
                data = Path("out.complex").read_bytes()
                output = {"sha256": hashlib.sha256(data).hexdigest(), "lines": data.count(b"\n")}
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), output


def record(text: str) -> dict:
    """Run `build` on the graph text and return its record."""
    code, out, err, output = _run(["build", "--graph", "graph.txt", "-o", "out.complex"], {"graph.txt": text})
    return {"graph": text, "exit": code, "stdout": out, "stderr": err, "output": output}


# -- algebra ---------------------------------------------------------------------

# words in a, b: mixed signs, a long one, Delta-heavy ones and the empty word
DIHEDRAL_WORDS = ("", "a", "B", "abaB", "BaBAbaabAB", "abbaBAab" * 5, "aBaBAbAbbbaa" * 3)
DIHEDRAL = (*range(2, 14), 16, 21, 32, 50, 51, 64, 100, 101)
SPHERICAL_WORDS = ("", "c", "abcABC", "abacabCBAcbc", "cbaCBAabcbca" * 3, "aBcAbC" * 4)
SPHERICAL_EQUAL = (
    ("aba", "bab"),
    ("bc", "cb"),
    ("abcabc", "bcabca"),
    ("abAB", ""),
    ("abcabcabcabc", "cbacbacbacba"),
    ("acacacacac", "cacacacaca"),
)
PHI = (3, 5, 7, 9, 11, 13, 21, 51, 101, 151, 201)
COMMUTATOR = (("s", 3), ("sS", 3), ("rs", 3), ("rsRS", 5), ("rsRStq", 7), ("qRst", 4), ("rrrSSS", 9))
BOUNDED = ((0, 2, 2), (1, 2, 2), (2, 0, 0), (2, 1, 1), (3, 4, 4), (4, 2, 2), (5, 1, 2), (6, 2, 2))


def _algebra_cases() -> dict:
    cases = {}
    for n in DIHEDRAL:
        a = "ab" * n
        for i, w in enumerate((*DIHEDRAL_WORDS, a[:n], a[:n].upper())):
            cases[f"nf-I2({n})-{i}"] = ["nf", "--dihedral", str(n), "--word", w]
        b = "ba" * n
        cases[f"equal-I2({n})-relation"] = ["equal", "--dihedral", str(n), "--word", a[:n], "--word2", b[:n]]
        cases[f"equal-I2({n})-ab-ba"] = ["equal", "--dihedral", str(n), "--word", "ab", "--word2", "ba"]
        cases[f"equal-I2({n})-center"] = [
            "equal", "--dihedral", str(n), "--word", a[: 2 * n] + "a", "--word2", "a" + a[: 2 * n]
        ]
    for m in (3, 4, 5):
        for i, w in enumerate(SPHERICAL_WORDS):
            cases[f"nf-type{m}-{i}"] = ["nf", "--type", str(m), "--word", w]
        for i, (w1, w2) in enumerate(SPHERICAL_EQUAL):
            cases[f"equal-type{m}-{i}"] = ["equal", "--type", str(m), "--word", w1, "--word2", w2]
        cases[f"center-type{m}"] = ["center", "--type", str(m)]
        for L, K, M in BOUNDED:
            cases[f"bounded-type{m}-L{L}-K{K}-M{M}"] = [
                "bounded-checks", "--type", str(m), "--L", str(L), "--K", str(K), "--M", str(M)
            ]
    for n in PHI:
        cases[f"phi-{n}"] = ["phi", "--dihedral", str(n)]
    for w, n in COMMUTATOR:
        cases[f"commutator-{n}-{w}"] = ["commutator", "--dihedral", str(n), "--word", w]
    for n in (2, 3, 4, 7, 100):
        cases[f"center-I2({n})"] = ["center", "--dihedral", str(n)]
    cases.update({
        "doc-nf-type5": ["--format", "doc", "nf", "--type", "5", "--word", "abcABC"],
        "doc-bounded-type4": ["--format", "doc", "bounded-checks", "--type", "4", "--L", "3"],
        "doc-phi-7": ["--format", "doc", "phi", "--dihedral", "7"],
        # refusals and input errors, exit 2
        "refuse-L-10": ["bounded-checks", "--type", "5", "--L", "10"],
        "refuse-K-5": ["bounded-checks", "--type", "5", "--L", "1", "--K", "5"],
        "refuse-M-5": ["bounded-checks", "--type", "3", "--L", "1", "--M", "5"],
        "refuse-L-negative": ["bounded-checks", "--type", "3", "--L", "-1"],
        "refuse-dihedral-1001": ["nf", "--dihedral", "1001", "--word", "ab"],
        "refuse-phi-1001": ["phi", "--dihedral", "1001"],
        "refuse-phi-even": ["phi", "--dihedral", "8"],
        "refuse-dihedral-1": ["nf", "--dihedral", "1", "--word", "a"],
        "refuse-type-6": ["nf", "--type", "6", "--word", "ab"],
        "refuse-bounded-type-6": ["bounded-checks", "--type", "6"],
        "refuse-bounded-no-type": ["bounded-checks", "--dihedral", "3"],
        "refuse-no-context": ["nf", "--word", "ab"],
        "refuse-no-word": ["nf", "--dihedral", "3"],
        "refuse-bad-letter": ["nf", "--dihedral", "3", "--word", "a!b"],
        "refuse-unknown-letter": ["nf", "--dihedral", "3", "--word", "abc"],
        "refuse-unknown-letter-type": ["equal", "--type", "3", "--word", "abd", "--word2", "a"],
        "refuse-commutator-odd": ["commutator", "--dihedral", "3", "--word", "x"],
    })
    return {name: argv[:2] + ["algebra"] + argv[2:] if argv[0] == "--format" else ["algebra"] + argv
            for name, argv in cases.items()}


ALGEBRA_CASES = _algebra_cases()


def algebra_record(argv: list) -> dict:
    """Run the `algebra` arguments and return their record."""
    code, out, err, _ = _run(argv, {})
    return {"argv": argv, "exit": code, "stdout": out, "stderr": err}


# -- analyze, verify and toolkit ------------------------------------------------

def cli_record(case: tuple) -> dict:
    """Run the (argv, files) case and return its record."""
    argv, files = case
    code, out, err, output = _run(argv, files)
    inputs = {name: hashlib.sha256(text.encode()).hexdigest() for name, text in files.items()}
    return {"argv": argv, "inputs": inputs, "exit": code, "stdout": out, "stderr": err, "output": output}


def _analyze_cases() -> dict:
    cases = {name: (["analyze", "--graph", "graph.txt"], {"graph.txt": text}) for name, text in CASES.items()}
    for name in ("odd-5", "circle-7", "star-5", "negative-braid", "one-vertex"):
        cases[f"doc-{name}"] = (["--format", "doc", *cases[name][0]], cases[name][1])
    gap = graph_text("abcd", [("a", "b", 2), ("b", "c", 3), ("a", "c", 4), ("a", "d", 3)])
    cases.update({
        "outside-gap": (["analyze", "--graph", "graph.txt"], {"graph.txt": gap}),
        # input errors, exit 2
        "refuse-parse-error": (["analyze", "--graph", "graph.txt"], {"graph.txt": "vertex a\nedge a b 3\n"}),
        "refuse-label-1": (["analyze", "--graph", "graph.txt"], {"graph.txt": edge(1)}),
        "refuse-missing-file": (["analyze", "--graph", "graph.txt"], {}),
    })
    return cases


# build cases whose written complex `verify` re-checks
WRITTEN = (
    "odd-5", "odd-101", "even-6", "even-100", "circle-5", "circle-51", "star-5", "salvetti-K8",
    "salvetti-K3-leaves", "wedge-odd-even", "wedge-salvetti-odd-even", "one-vertex", "free-3",
)


def written(name: str) -> str:
    """The complex that `build` writes for the build case `name`."""
    return complex_text(constructions.build_from_plan(verdict(parse_graph(CASES[name])).plan))


def _verify_cases() -> dict:
    def case(text, fmt=()):
        return ([*fmt, "verify", "--complex", "in.complex"], {"in.complex": text})

    cases = {f"written-{name}": case(written(name)) for name in WRITTEN}
    cases["doc-written-circle-5"] = case(written("circle-5"), ("--format", "doc"))
    salvetti3 = written("salvetti-K3-leaves")
    loops = [f"v{i}" for i in range(14)]
    cases.update({
        # not NPC, exit 1
        "folded-square": case("cubecomplex 1\nvertex v\nedge a v v\nsquare s a+ a+ a- a-\n"),
        "bigon": case("cubecomplex 1\nvertex v\nedge a v v\nedge b v v\n"
                      "square s a+ b+ a- b-\nsquare t a+ b+ a- b-\n"),
        "salvetti-K3-leaves-without-cube": case(salvetti3.replace("cube c0 c1 c2\n", "")),
        "loops-14": case("cubecomplex 1\nvertex v0\n" + "".join(f"edge {x} v0 v0\n" for x in loops)
                         + "".join(f"square s.{a}.{b} {a}+ {b}+ {a}- {b}-\n" for a, b in combinations(loops, 2))),
        "doc-folded-square": case("cubecomplex 1\nvertex v\nedge a v v\nsquare s a+ a+ a- a-\n", ("--format", "doc")),
        # input errors, exit 2
        "refuse-empty": case("cubecomplex 1\n"),
        "refuse-no-header": case("vertex v\n"),
        "refuse-unknown-vertex": case("cubecomplex 1\nvertex v\nedge a v w\n"),
        "refuse-internal-names-no-edge": case("cubecomplex 1\nvertex v\ninternal nosuch\n"),
        "refuse-missing-file": (["verify", "--complex", "in.complex"], {}),
    })
    return cases


COMPLEXES = {
    "path-1": path_complex(1),
    "path-6": path_complex(6),
    "path-40": path_complex(40),
    "tripod": tree_complex([("o", "x"), ("o", "y"), ("o", "z")]),
    "caterpillar": tree_complex([(f"s{i}", f"s{i + 1}") for i in range(5)] + [(f"s{i}", f"l{i}") for i in range(6)]),
    "grid-1x1": grid_complex(1, 1),
    "grid-2x3": grid_complex(2, 3),
    "grid-5x5": grid_complex(5, 5),
    "grid-3x12": grid_complex(3, 12),
    **{f"cube-{k}": hypercube_complex(k) for k in range(6)},
}

WALLSPACES = {
    "square": "points 4\nwall 0011\nwall 0101\n",
    "cube": "points 8\nwall 00001111\nwall 00110011\nwall 01010101\n",
    "line": "points 6\nwall 011111\nwall 001111\nwall 000111\nwall 000011\nwall 000001\n",
    "mixed": "points 6\nwall 000111\nwall 011000\nwall 010101\nwall 100001\n",
    "no-walls": "points 3\n",
}


def _toolkit_cases() -> dict:
    cases = {}
    for name, c in COMPLEXES.items():
        vs = c.vertices
        files = {"in.complex": complex_text(c)}
        for tool, extra in (
            ("hyperplanes", []),
            ("hull", ["--vertices", f"{vs[0]},{vs[-1]}"]),
            ("gates", ["--y1", vs[0], "--y2", ",".join(vs[-2:])]),
            ("product", []),
            ("facing", []),
        ):
            cases[f"{tool}-{name}"] = (["toolkit", tool, "--complex", "in.complex", *extra], files)
    for name, text in WALLSPACES.items():
        files = {"in.walls": text}
        cases[f"dual-{name}"] = (["toolkit", "dual", "--wallspace", "in.walls", "-o", "out.complex"], files)
    cases["dual-square-no-output"] = (["toolkit", "dual", "--wallspace", "in.walls"], {"in.walls": WALLSPACES["square"]})
    for tool in ("hyperplanes", "product", "facing"):
        argv, files = cases[f"{tool}-grid-2x3"]
        cases[f"doc-{tool}-grid-2x3"] = (["--format", "doc", *argv], files)
    argv, files = cases["dual-cube"]
    cases["doc-dual-cube"] = (["--format", "doc", *argv], files)

    grid = {"in.complex": complex_text(COMPLEXES["grid-2x3"])}
    q3 = hypercube_complex(3)
    q3_edges = [e for e in q3.edges if "c111" not in (e.src, e.dst)]
    kept = {e.eid for e in q3_edges}
    q3_minus = make_complex([v for v in q3.vertices if v != "c111"], q3_edges,
                            [(sid, ts) for sid, ts in q3.squares if {t[0] for t in ts} <= kept])
    crossing = "points 14\n" + "".join("wall " + "".join("1" if j in (i + 1, 13) else "0" for j in range(14)) + "\n"
                                        for i in range(12))
    cases.update({
        # input errors, exit 2
        "refuse-hull-no-complex": (["toolkit", "hull", "--vertices", "a"], {}),
        "refuse-hull-no-vertices": (["toolkit", "hull", "--complex", "in.complex"], grid),
        "refuse-hull-empty-list": (["toolkit", "hull", "--complex", "in.complex", "--vertices", ",,"], grid),
        "refuse-hull-unknown-vertex": (["toolkit", "hull", "--complex", "in.complex", "--vertices", "zz"], grid),
        "refuse-gates-no-y1": (["toolkit", "gates", "--complex", "in.complex", "--y2", "v0.0"], grid),
        "refuse-gates-no-y2": (["toolkit", "gates", "--complex", "in.complex", "--y1", "v0.0"], grid),
        "refuse-gates-unknown-vertex": (["toolkit", "gates", "--complex", "in.complex", "--y1", "v0.0", "--y2", "zz"], grid),
        "refuse-missing-complex-file": (["toolkit", "hyperplanes", "--complex", "in.complex"], {}),
        "refuse-complex-parse-error": (["toolkit", "hyperplanes", "--complex", "in.complex"], {"in.complex": "vertex v\n"}),
        "refuse-loop-edge": (["toolkit", "hyperplanes", "--complex", "in.complex"],
                             {"in.complex": "cubecomplex 1\nvertex v\nedge a v v\n"}),
        "refuse-empty-complex": (["toolkit", "facing", "--complex", "in.complex"], {"in.complex": "cubecomplex 1\n"}),
        "refuse-disconnected": (["toolkit", "product", "--complex", "in.complex"],
                                {"in.complex": "cubecomplex 1\nvertex u\nvertex v\n"}),
        "refuse-q3-minus-vertex": (["toolkit", "hull", "--complex", "in.complex", "--vertices", "c011,c101"],
                                   {"in.complex": complex_text(q3_minus)}),
        "refuse-path-2000": (["toolkit", "hyperplanes", "--complex", "in.complex"],
                             {"in.complex": complex_text(path_complex(2000))}),
        "refuse-dual-no-wallspace": (["toolkit", "dual"], {}),
        "refuse-dual-missing-file": (["toolkit", "dual", "--wallspace", "in.walls"], {}),
        "refuse-dual-points-0": (["toolkit", "dual", "--wallspace", "in.walls", "-o", "out.complex"],
                                 {"in.walls": "points 0\n"}),
        "refuse-dual-points-x": (["toolkit", "dual", "--wallspace", "in.walls"], {"in.walls": "points x\n"}),
        "refuse-dual-bad-bitmask": (["toolkit", "dual", "--wallspace", "in.walls"], {"in.walls": "points 3\nwall 01\n"}),
        "refuse-dual-empty-side": (["toolkit", "dual", "--wallspace", "in.walls"], {"in.walls": "points 3\nwall 000\n"}),
        "refuse-dual-duplicate-wall": (["toolkit", "dual", "--wallspace", "in.walls"],
                                       {"in.walls": "points 3\nwall 001\nwall 001\n"}),
        "refuse-dual-past-vertex-bound": (["toolkit", "dual", "--wallspace", "in.walls", "-o", "out.complex"],
                                          {"in.walls": crossing}),
    })
    return cases


ANALYZE_CASES = _analyze_cases()
VERIFY_CASES = _verify_cases()
TOOLKIT_CASES = _toolkit_cases()
CORPORA = (
    (EXPECTED, CASES, record),
    (ALGEBRA_EXPECTED, ALGEBRA_CASES, algebra_record),
    (ANALYZE_EXPECTED, ANALYZE_CASES, cli_record),
    (VERIFY_EXPECTED, VERIFY_CASES, cli_record),
    (TOOLKIT_EXPECTED, TOOLKIT_CASES, cli_record),
)


def main() -> int:
    for path, cases, run in CORPORA:
        records = {name: run(case) for name, case in cases.items()}
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(records)} cases to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
