"""The golden `cubartin build` corpus: its inputs, how one is run, and the
script that rewrites the expected results in build.json.

Each case is a defining graph run through `cli.main` in-process, in a fresh
directory, as `build --graph graph.txt -o out.complex`.  Its record holds
the exit code, stdout, and the SHA-256 and line count of the `-o` file
(None when no file is written).  tests/test_golden.py compares every record.

Run from the repository root to rewrite build.json:

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


def main() -> int:
    records = {name: record(text) for name, text in CASES.items()}
    EXPECTED.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} cases to {EXPECTED}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
