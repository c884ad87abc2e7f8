"""The golden `cubartin build` and `cubartin algebra` corpora: their inputs,
how one is run, and the script that rewrites the expected results in
build.json and algebra.json.

A build case is a defining graph run through `cli.main` in-process, in a
fresh directory, as `build --graph graph.txt -o out.complex`.  Its record
holds the exit code, stdout, and the SHA-256 and line count of the `-o`
file (None when no file is written).  An algebra case is an argument list
run through `cli.main`; its record holds the arguments, the exit code,
stdout and stderr.  tests/test_golden.py compares every record.

Run from the repository root to rewrite both files:

    PYTHONPATH=src python tests/golden/regenerate.py

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

from cubartin import cli

EXPECTED = Path(__file__).with_name("build.json")
ALGEBRA_EXPECTED = Path(__file__).with_name("algebra.json")


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


def record(text: str) -> dict:
    """Run `build` on the graph text and return its record."""
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            Path("graph.txt").write_text(text)
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["build", "--graph", "graph.txt", "-o", "out.complex"])
            output = None
            if Path("out.complex").exists():
                data = Path("out.complex").read_bytes()
                output = {"sha256": hashlib.sha256(data).hexdigest(), "lines": data.count(b"\n")}
        finally:
            os.chdir(cwd)
    return {"graph": text, "exit": code, "stdout": out.getvalue(), "output": output}


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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    for path, cases, run in ((EXPECTED, CASES, record), (ALGEBRA_EXPECTED, ALGEBRA_CASES, algebra_record)):
        records = {name: run(case) for name, case in cases.items()}
        path.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(records)} cases to {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
