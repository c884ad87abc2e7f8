"""Command-line interface.

Subcommands: analyze, build, verify, toolkit {hyperplanes, hull, gates,
product, facing, dual}, algebra {nf, equal, phi, commutator, center,
bounded-checks}.  Output is line-oriented `key: value` text or a JSON
document (`--format doc`); both are byte-deterministic for fixed inputs.

Exit codes: 0 success, 1 negative verdict or failed check, 2 input error
(any ValueError, printed as `error: ...`).  Each subcommand imports only the
layers it calls.
"""

from __future__ import annotations

import argparse
import json
import sys

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2


def _flatten(payload, prefix=""):
    lines = []
    for key in payload:
        value = payload[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            lines.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            lines.append(f"{name}: {' '.join(str(v) for v in value)}")
        elif isinstance(value, bool):
            lines.append(f"{name}: {'true' if value else 'false'}")
        else:
            lines.append(f"{name}: {value}")
    return lines


def emit(payload: dict, fmt: str) -> None:
    if fmt == "doc":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(_flatten(payload)))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from None


def _load_graph(path: str):
    from .defining_graph import parse_graph

    text = _read(path)
    try:
        return parse_graph(text)
    except ValueError as exc:
        raise ValueError(f"graph parse error: {exc}") from None


def _load_complex(path: str):
    from .cube_model import parse_complex

    text = _read(path)
    try:
        return parse_complex(text)
    except ValueError as exc:
        raise ValueError(f"complex parse error: {exc}") from None


def _structure(c):
    from .toolkit import CubicalStructure, NotCat0Error

    try:
        return CubicalStructure(c)
    except NotCat0Error as exc:
        raise ValueError(f"not a CAT(0) complex: {exc}") from None


def _plan_summary(plan) -> list[str]:
    from . import defining_graph as dg

    out = []
    for piece in plan.pieces:
        if isinstance(piece, dg.Circle):
            out.append(f"circle({piece.vertex})")
        elif isinstance(piece, dg.OddEdge):
            out.append(f"K_{piece.n}({piece.u},{piece.v})")
        elif isinstance(piece, dg.EvenEdge):
            out.append(f"K_{{{piece.n},{piece.generator}}}({piece.u},{piece.v})")
        else:
            leaves = ",".join(f"K_{{{n},{s}}}" for s, _, n in piece.leaves)
            out.append(f"amalgam(S({','.join(piece.interior.vertices)});{leaves})")
    if plan.times_circle is not None:
        out.append(f"x S^1({plan.times_circle})")
    return out


def _nf_text(ctx, nf) -> str:
    factors = ["".join(ctx.table.words[f]) for f in nf.factors]
    return f"Delta^{nf.inf} . [{' '.join(factors)}]"


# -- core subcommands --------------------------------------------------------

def cmd_analyze(args) -> int:
    from . import defining_graph as dg

    g = _load_graph(args.graph)
    v = dg.verdict(g)
    payload = {
        "command": "analyze",
        "verdict": v.kind,
        "theorem": v.theorem,
        "justification": v.justification,
    }
    if v.witness is not None:
        u, w, m = v.witness
        payload["witness"] = f"edge {u} {w} {m}"
    if v.plan is not None:
        payload["plan"] = _plan_summary(v.plan)
    if v.kind == dg.OUTSIDE_CLASSIFICATION:
        payload["warning"] = "graph is outside both classification theorems"
    emit(payload, args.format)
    return EXIT_NEGATIVE if v.kind == dg.NOT_COCOMPACTLY_CUBULATED else EXIT_OK


def cmd_build(args) -> int:
    from . import constructions, cube_model
    from .defining_graph import verdict
    from .snf import abelian_invariants

    g = _load_graph(args.graph)
    v = verdict(g)
    if v.plan is None:
        payload = {
            "command": "build",
            "verdict": v.kind,
            "refused": True,
            "justification": v.justification,
        }
        emit(payload, args.format)
        return EXIT_NEGATIVE
    top = max(g.edges.values(), default=0)
    if top > constructions.MAX_LABEL:
        raise ValueError(f"label {top} exceeds the bound {constructions.MAX_LABEL}")
    c = constructions.build_from_plan(v.plan)
    violations = cube_model.check_npc(c)
    if violations:
        raise ValueError(f"built complex fails NPC: {violations[0]}")
    extracted = constructions.extracted_presentation(c)
    artin = constructions.artin_presentation(g)
    ab_built = abelian_invariants(extracted.exponent_matrix(), len(extracted.generators))
    ab_artin = abelian_invariants(artin.exponent_matrix(), len(artin.generators))
    if ab_built != ab_artin:
        raise ValueError(f"presentation mismatch: abelianization {ab_built} != {ab_artin}")
    _write(args.output, cube_model.complex_text(c))
    payload = {
        "command": "build",
        "verdict": v.kind,
        "output": args.output,
        "vertices": len(c.vertices),
        "edges": len(c.edges),
        "squares": len(c.squares),
        "npc": True,
        "abelianization_checked": True,
    }
    emit(payload, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import cube_model

    c = _load_complex(args.complex)
    if not c.vertices:
        raise ValueError("empty complex")
    violations = cube_model.check_npc(c)
    links = {
        v: f"{len(link.link_vertices)} ends, {len(link.link_edges)} corners"
        for v, link in cube_model.vertex_links(c).items()
    }
    payload = {
        "command": "verify",
        "npc": not violations,
        "euler_characteristic": cube_model.euler_characteristic(c),
        "links": links,
    }
    if violations:
        payload["violations"] = [f"{w.vertex}: {w.kind} ({w.detail})" for w in violations]
    emit(payload, args.format)
    return EXIT_OK if not violations else EXIT_NEGATIVE


# -- toolkit subcommands -----------------------------------------------------

def _vertex_list(text: str) -> list[str]:
    vs = [v for v in text.split(",") if v]
    if not vs:
        raise ValueError("empty vertex list")
    return vs


def _require(value, message: str):
    if value is None:
        raise ValueError(message)
    return value


def cmd_toolkit(args) -> int:
    if args.tool == "dual":
        from .cube_model import complex_text
        from .toolkit import is_median, parse_wallspace, sageev_dual

        c = sageev_dual(parse_wallspace(_read(_require(args.wallspace, "dual needs --wallspace"))))
        payload = {
            "command": "toolkit dual",
            "vertices": len(c.vertices),
            "edges": len(c.edges),
            "squares": len(c.squares),
            "median": is_median(c),
        }
        if args.output:
            _write(args.output, complex_text(c))
            payload["output"] = args.output
        emit(payload, args.format)
        return EXIT_OK
    s = _structure(_load_complex(_require(args.complex, f"{args.tool} needs --complex")))
    if args.tool == "hyperplanes":
        payload = {
            "command": "toolkit hyperplanes",
            "count": len(s.hyperplanes),
        }
        for h in s.hyperplanes:
            plus = sum(x >> h.hid & 1 for x in s.coords.values())
            payload[f"h{h.hid}"] = {
                "edges": sorted(h.edges),
                "sides": f"{len(s.coords) - plus}|{plus}",
            }
    elif args.tool == "hull":
        hull = s.convex_hull(_vertex_list(_require(args.vertices, "hull needs --vertices")))
        payload = {
            "command": "toolkit hull",
            "vertices": sorted(hull),
            "size": len(hull),
        }
    elif args.tool == "gates":
        y1 = s.convex_hull(_vertex_list(_require(args.y1, "gates needs --y1")))
        y2 = s.convex_hull(_vertex_list(_require(args.y2, "gates needs --y2")))
        gp = s.gates(y1, y2)
        dual_ok, _ = s.check_gate_edge_duality(gp)
        payload = {
            "command": "toolkit gates",
            "v1": sorted(gp.v1),
            "v2": sorted(gp.v2),
            "separation": gp.delta_sep,
            "edge_duality": dual_ok,
        }
    elif args.tool == "product":
        pp = s.product_decompose()
        payload = {
            "command": "toolkit product",
            "irreducible": len(pp.classes) == 1,
            "factors": len(pp.classes),
        }
        for i, (cls, factor) in enumerate(zip(pp.classes, pp.factors)):
            payload[f"factor{i}"] = {
                "hyperplanes": sorted(cls),
                "vertices": len(factor),
            }
    else:  # facing, as argparse restricts the choices
        found, witness = s.has_facing_triple()
        payload = {"command": "toolkit facing", "facing_triple": found}
        if witness:
            payload["witness"] = list(witness)
    emit(payload, args.format)
    return EXIT_OK


# -- algebra subcommands -------------------------------------------------------

def _algebra_context(args):
    from . import artin_algebra as alg

    if getattr(args, "dihedral", None) is not None:
        return alg.DihedralContext(args.dihedral)
    if getattr(args, "type", None) is not None:
        return alg.SphericalContext(args.type)
    raise ValueError("need --dihedral n or --type m")


def cmd_algebra(args) -> int:
    from . import artin_algebra as alg
    from .words import concat, exp_sum, parse_word, power, word_str

    if args.op == "nf":
        ctx = _algebra_context(args)
        nf = ctx.nf(parse_word(_require(args.word, "nf needs --word")))
        emit(
            {
                "command": "algebra nf",
                "word": args.word,
                "normal_form": _nf_text(ctx, nf),
                "infimum": nf.inf,
                "canonical_length": nf.canonical_length,
            },
            args.format,
        )
        return EXIT_OK
    if args.op == "equal":
        ctx = _algebra_context(args)
        equal = ctx.equal(
            parse_word(_require(args.word, "equal needs --word")),
            parse_word(_require(args.word2, "equal needs --word2")),
        )
        emit(
            {
                "command": "algebra equal",
                "words": [args.word, args.word2],
                "equal": equal,
            },
            args.format,
        )
        return EXIT_OK if equal else EXIT_NEGATIVE
    if args.op == "phi":
        if args.dihedral is None:
            raise ValueError("phi needs --dihedral n (odd)")
        # the context refuses an index past its bound before phi is built
        ctx = alg.DihedralContext(args.dihedral)
        phi = alg.build_phi(args.dihedral)
        expanded = alg.expand_prime(phi)
        checks = {
            "exp_r_zero": exp_sum(phi, "r") == 0,
            "phi_delta_is_b_n": ctx.equal(
                concat(expanded, ctx.delta_word), power((("b", 1),), args.dihedral)
            ),
        }
        emit(
            {
                "command": "algebra phi",
                "n": args.dihedral,
                "phi": word_str(phi),
                **checks,
            },
            args.format,
        )
        return EXIT_OK if all(checks.values()) else EXIT_NEGATIVE
    if args.op == "commutator":
        if args.dihedral is None:
            raise ValueError("commutator needs --dihedral n")
        p = alg.aprime_presentation(args.dihedral)
        w = alg.expand_prime(parse_word(_require(args.word, "commutator needs --word")))
        # membership is tested in the A'_n presentation on r, s, t
        word_rst = alg.even_rewrite(w)
        member = alg.commutator_membership(p, word_rst)
        emit(
            {
                "command": "algebra commutator",
                "word": args.word,
                "in_commutator_subgroup": member,
            },
            args.format,
        )
        return EXIT_OK if member else EXIT_NEGATIVE
    if args.op == "center":
        ctx = _algebra_context(args)
        report = alg.center_check(ctx)
        emit({"command": "algebra center", **report}, args.format)
        return EXIT_OK if report["central"] else EXIT_NEGATIVE
    if args.op == "bounded-checks":
        if args.type is None:
            raise ValueError("bounded-checks needs --type 3|4|5")
        ctx = alg.SphericalContext(args.type)
        report = alg.bounded_lemma_checks(ctx, L=args.L, K=args.K, M=args.M)
        report["violations"] = [" ".join(str(x) for x in v) for v in report["violations"]]
        emit({"command": "algebra bounded-checks", **report}, args.format)
        ok = report["ii_verified"] and report["iii_verified"]
        return EXIT_OK if ok else EXIT_NEGATIVE
    raise ValueError(f"unknown algebra op {args.op}")  # pragma: no cover


# -- argument parsing ----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubartin",
        description="Cocompact cubulation of 2-dimensional Artin groups.",
    )
    parser.add_argument(
        "--format", choices=("text", "doc"), default="text",
        help="output as key:value lines (text) or a JSON document (doc)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classification verdict for a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("build", help="build and verify the cube complex")
    p.add_argument("--graph", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="re-check an existing complex file")
    p.add_argument("--complex", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("toolkit", help="cubical geometry queries")
    p.add_argument(
        "tool", choices=("hyperplanes", "hull", "gates", "product", "facing", "dual")
    )
    p.add_argument("--complex")
    p.add_argument("--wallspace")
    p.add_argument("--vertices", help="comma-separated vertex ids (hull)")
    p.add_argument("--y1", help="comma-separated vertex ids (gates)")
    p.add_argument("--y2", help="comma-separated vertex ids (gates)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_toolkit)

    p = sub.add_parser("algebra", help="Garside word algebra")
    p.add_argument(
        "op", choices=("nf", "equal", "phi", "commutator", "center", "bounded-checks")
    )
    p.add_argument("--dihedral", type=int, help="dihedral Artin index n")
    p.add_argument("--type", type=int, help="third label m in {3,4,5}")
    p.add_argument("--word", help="ASCII word, uppercase = inverse")
    p.add_argument("--word2", help="second word (equal)")
    p.add_argument("--L", type=int, default=6)
    p.add_argument("--K", type=int, default=2)
    p.add_argument("--M", type=int, default=2)
    p.set_defaults(func=cmd_algebra)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
