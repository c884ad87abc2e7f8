"""Word problem and identity checks for spherical Artin groups.

An ArtinContext holds a spherical Artin group <S | s t s ... = t s t ...>
with its integer Coxeter table (see coxeter.py) and Garside structure.
Two families are built through it: the dihedral groups
A_n = <a, b | aba... = bab...> (n letters per side), with the index-2
subgroup A'_n generated by r = ab, s = a b^-1, t = a^-1 b (and
q = ba = s^-1 r t^-1); and the three-generator groups with labels
(m_ab, m_bc, m_ac) = (3, 2, m), m in {3, 4, 5}, whose Coxeter groups are
A3, B3 and H3 of order 24 / 48 / 120.

Equality is decided by Garside normal forms; the tests check them against
a bounded BFS over length-preserving positive rewritings, the same
braid-move closure that names Coxeter elements.  Lemma instances about
centers and subgroup intersections are checked at explicit bounds and
reported as bounded verification, never as proofs.
"""

from __future__ import annotations

from .coxeter import CoxeterTable
from .garside import GarsideContext, GarsideElement
from .snf import abelian_invariants
from .presentations import Presentation
from .words import (
    Word,
    artin_relation,
    concat,
    free_reduce,
    invert,
    parse_word,
    power,
    substitute,
    word_str,
)


class ArtinContext:
    """Spherical Artin group on gens with labels {(s, t): m_st}."""

    def __init__(self, gens: tuple[str, ...], labels: dict):
        self.gens = gens
        self.table = t = CoxeterTable(gens, labels)
        self.garside = GarsideContext(t)
        self.delta_word = tuple((g, 1) for g in t.words[t.w0])
        # Delta is central exactly when tau fixes every generator; otherwise
        # tau is an involution, so Delta^2 is central
        self.delta_central = all(t.tau[t.rmult[0][g]] == t.rmult[0][g] for g in gens)
        self.z_word = self.delta_word if self.delta_central else power(self.delta_word, 2)

    def nf(self, w: Word) -> GarsideElement:
        return self.garside.word_nf(w)

    def equal(self, w1: Word, w2: Word) -> bool:
        return self.nf(w1) == self.nf(w2)


# the slowest command at the bound, `algebra phi --dihedral 999`, takes
# 0.5-0.7 s and peaks at 27 MB as a process (Python 3.11, 2 vCPUs)
MAX_DIHEDRAL = 1000
# bounded_lemma_checks takes 0.4-0.8 s per type at L = 9 with K = M = 4 on
# the same machine, x3 per step of L; K and M only add lookup targets
MAX_L, MAX_K, MAX_M = 9, 4, 4


def _dihedral_index(n: int) -> int:
    if n < 2:
        raise ValueError("dihedral index must be >= 2")
    if n > MAX_DIHEDRAL:
        raise ValueError(f"dihedral index {n} exceeds the bound {MAX_DIHEDRAL}")
    return n


def DihedralContext(n: int) -> ArtinContext:
    """A_n on a, b: the dihedral Artin group with label n."""
    return ArtinContext(("a", "b"), {("a", "b"): _dihedral_index(n)})


def SphericalContext(m: int) -> ArtinContext:
    """Three-generator spherical Artin group, labels (3, 2, m)."""
    if m not in (3, 4, 5):
        raise ValueError("m must be one of 3, 4, 5")
    return ArtinContext(("a", "b", "c"), {("a", "b"): 3, ("b", "c"): 2, ("a", "c"): m})


# -- the index-2 subgroup A'_n ----------------------------------------------

APRIME_GENS = ("r", "s", "t")

_EXPAND = {
    "r": parse_word("ab"),
    "s": parse_word("aB"),
    "t": parse_word("Ab"),
    "q": parse_word("ba"),
}

# every ordered pair of +/- letters in a, b as a word in r, s, t
_PAIR_TABLE: dict[tuple, Word] = {}


for _pair, _val in {
    ("a+", "a+"): "rT",
    ("a+", "b+"): "r",
    ("a+", "b-"): "s",
    ("a+", "a-"): "",
    ("a-", "a+"): "",
    ("a-", "a-"): "tR",
    ("a-", "b+"): "t",
    ("a-", "b-"): "tRs",
    ("b+", "a+"): "SrT",
    ("b+", "b+"): "Sr",
    ("b+", "a-"): "S",
    ("b+", "b-"): "",
    ("b-", "a+"): "T",
    ("b-", "b-"): "Rs",
    ("b-", "a-"): "R",
    ("b-", "b+"): "",
}.items():
    _k = tuple((p[0], 1 if p[1] == "+" else -1) for p in _pair)
    _PAIR_TABLE[_k] = parse_word(_val)


def even_rewrite(w: Word) -> Word:
    """Rewrite an even-length word in a, b as a word in r, s, t."""
    if len(w) % 2:
        raise ValueError("word has odd length")
    for g, _ in w:
        if g not in ("a", "b"):
            raise ValueError(f"unknown letter {g!r}")
    return free_reduce(x for i in range(0, len(w), 2) for x in _PAIR_TABLE[w[i], w[i + 1]])


def expand_prime(w: Word) -> Word:
    """Expand a word in r, s, t, q back to a, b."""
    return substitute(w, _EXPAND)


def delta_conjugation(ctx: ArtinContext, w: Word) -> Word:
    """Conjugation by Delta on A'_n letters: the identity when Delta is
    central (even n); otherwise (odd n) it swaps r and q and inverts s and t."""
    if ctx.delta_central:
        return w
    mapping = {"r": "q", "q": "r", "s": "s", "t": "t"}
    out = []
    for g, e in w:
        if g not in mapping:
            raise ValueError(f"letter {g!r} is not an A'_n generator")
        if g in ("s", "t"):
            out.append((g, -e))
        else:
            out.append((mapping[g], e))
    return tuple(out)


def build_phi(n: int) -> Word:
    """phi(s, t, r) = s^-1 * prod_{i=(n-3)/2 .. 0} r^-i t^-1 r^i."""
    if n % 2 == 0 or n < 3:
        raise ValueError("phi is defined for odd n >= 3")
    w = [("s", -1)]
    for i in range((n - 3) // 2, -1, -1):
        w += [("r", -1)] * i + [("t", -1)] + [("r", 1)] * i
    return free_reduce(w)


def psi_word(n: int) -> Word:
    """psi = phi(s, t, r) * phi(s^-1, t^-1, q), with q = s^-1 r t^-1."""
    phi = build_phi(n)
    bar = substitute(
        phi, {"s": (("s", -1),), "t": (("t", -1),), "r": (("q", 1),)}
    )
    return free_reduce(concat(phi, bar))


def aprime_presentation(n: int) -> Presentation:
    """Presentation of A'_n on exactly {r, s, t}: rewrite the Artin relator
    and its a-conjugate through the even-word table."""
    l, r = artin_relation("a", "b", _dihedral_index(n))
    relator = free_reduce(concat(l, invert(r)))
    conj = free_reduce(concat(parse_word("a"), relator, parse_word("A")))
    return Presentation(
        APRIME_GENS,
        (even_rewrite(relator), even_rewrite(conj)),
    )


def commutator_membership(p: Presentation, w: Word) -> bool:
    """Whether w lies in the commutator subgroup: trivial image in the
    abelianization, i.e. its exponent vector v is in the relator row lattice
    L.  That holds exactly when adding v as a relator leaves the abelian
    invariants unchanged: Z^n/L maps onto Z^n/(L + <v>), a finitely
    generated abelian group is Hopfian (Vasconcelos, Trans. AMS 138, 1969),
    so an isomorphic quotient is the group itself, and then v is in L."""
    index = {g: i for i, g in enumerate(p.generators)}
    vec = [0] * len(p.generators)
    for g, e in w:
        if g not in index:
            raise ValueError(f"unknown generator {g!r}")
        vec[index[g]] += e
    m = p.exponent_matrix()
    return abelian_invariants(m + [vec], len(vec)) == abelian_invariants(m, len(vec))


# -- lemma instance checks -----------------------------------------------------

def center_check(ctx) -> dict:
    """Verify centrality of the designated center generator against every
    Artin generator, and non-centrality of Delta where expected."""
    z = ctx.z_word
    delta = ctx.delta_word
    per_gen = {}
    for g in ctx.gens:
        gw = ((g, 1),)
        per_gen[g] = ctx.equal(concat(z, gw), concat(gw, z))
    delta_central = all(
        ctx.equal(concat(delta, ((g, 1),)), concat(((g, 1),), delta))
        for g in ctx.gens
    )
    z_is_delta = ctx.z_word == ctx.delta_word
    return {
        "center_generator": "Delta" if z_is_delta else "Delta^2",
        "central": all(per_gen.values()),
        "per_generator": per_gen,
        "delta_central": delta_central,
    }


def bounded_lemma_checks(ctx: ArtinContext, L: int = 6, K: int = 2, M: int = 2) -> dict:
    """Bounded verification of the intersection lemma instances.

    (ii): no nonempty reduced word over {a, b} (or {b, c}) of length <= L
    equals z^k for 0 < |k| <= K.
    (iii): no c^j (0 < |j| <= M) equals g z^k with g over {a, b} of length
    <= L and |k| <= K.
    The reduced words are walked by length and then letter order, each
    normal form one multiplication by a letter past its prefix's.  Both
    clauses are then lookups: (ii) of nf(w) among the forms of z^k, and
    (iii) of nf(g) among those of c^j z^-k, since g z^k = c^j exactly when
    g = c^j z^-k.  Violations list (ii) in walk order, then (iii) by
    (j, k) and walk order.  Results are bounded verification at (L, K, M),
    not proofs.
    """
    if min(L, K, M) < 0:
        raise ValueError("bounds L, K and M must be >= 0")
    for name, value, bound in (("L", L, MAX_L), ("K", K, MAX_K), ("M", M, MAX_M)):
        if value > bound:
            raise ValueError(f"{name} = {value} exceeds the bound {bound}")
    g = ctx.garside
    z_powers = {g.word_nf(power(ctx.z_word, k)): k for k in range(-K, K + 1) if k}
    targets: dict[GarsideElement, list] = {}
    for j, k in [(j, k) for j in range(-M, M + 1) if j for k in range(-K, K + 1)]:
        targets.setdefault(g.word_nf(concat(power((("c", 1),), j), power(ctx.z_word, -k))), []).append((j, k))
    ii, iii = [], []
    for pair in (("a", "b"), ("b", "c")):
        steps = {(s, e): g.from_letter(s, e) for s in pair for e in (1, -1)}
        level = [((), g.identity)]
        for length in range(L + 1):
            if length:
                level = [(w + (x,), g.mul(nf, step)) for w, nf in level for x, step in steps.items()
                         if not w or w[-1] != (x[0], -x[1])]
            for w, nf in level:
                if nf in z_powers:
                    ii.append(("ii", pair, word_str(w), z_powers[nf]))
                if pair == ("a", "b"):
                    iii += [("iii", word_str(w), k, j) for j, k in targets.get(nf, ())]
    violations = ii + sorted(iii, key=lambda v: (v[3], v[2]))
    return {
        "label": "bounded verification",
        "bounds": {"L": L, "K": K, "M": M},
        "ii_verified": not ii,
        "iii_verified": not iii,
        "violations": violations,
    }
