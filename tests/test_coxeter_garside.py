import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import bubble_normal_form, in_row_span, smith_normal_form

from cubartin.coxeter import CoxeterTable
from cubartin.garside import GarsideContext, GarsideElement
from cubartin.snf import abelian_invariants
from cubartin.words import concat, invert, parse_word


def from_word(t, word) -> int:
    """The table element of a word of generator names."""
    i = 0
    for g in word:
        i = t.rmult[i][g]
    return i


def positive_word(ctx, nf):
    """Some positive word for a positive element (inf >= 0)."""
    if nf.inf < 0:
        raise ValueError("element is not positive")
    t = ctx.table
    letters = list(t.words[t.w0]) * nf.inf
    for f in nf.factors:
        letters += list(t.words[f])
    return tuple((g, 1) for g in letters)


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def determinant(m) -> int:
    """Exact determinant by fraction-free Gaussian elimination (Bareiss)."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def triangle_labels(m):
    """Labels (m_ab, m_bc, m_ac) = (3, 2, m): A3, B3, H3 for m = 3, 4, 5."""
    return {("a", "b"): 3, ("b", "c"): 2, ("a", "c"): m}


def dihedral_table(n):
    return CoxeterTable(("a", "b"), {("a", "b"): n})


def triangle_table(m):
    return CoxeterTable(("a", "b", "c"), triangle_labels(m))


# -- Coxeter tables -----------------------------------------------------------

TABLES = [(f"I2({n})", ("a", "b"), {("a", "b"): n}, 2 * n) for n in range(2, 16)] + [
    (name, ("a", "b", "c"), triangle_labels(m), size)
    for name, m, size in (("A3", 3, 24), ("B3", 4, 48), ("H3", 5, 120))
]


@pytest.mark.parametrize(
    "gens,labels,size", [t[1:] for t in TABLES], ids=[t[0] for t in TABLES]
)
class TestCoxeterPresentation:
    """The table as a permutation action, checked against the Coxeter
    presentation <S | s^2, (st)^m_st> without the braid closure: a transitive
    action on |W| points by involutions that satisfy exactly these relations
    is the regular action of W."""

    def test_generators_are_involutive_permutations(self, gens, labels, size):
        t = CoxeterTable(gens, labels)
        for g in gens:
            perm = [t.rmult[i][g] for i in range(t.size)]
            assert sorted(perm) == list(range(t.size))
            assert all(perm[perm[i]] == i != perm[i] for i in range(t.size))

    def test_pair_orders(self, gens, labels, size):
        t = CoxeterTable(gens, labels)
        for (s, u), m in labels.items():
            for i in range(t.size):
                j = i
                for k in range(1, m + 1):
                    j = t.rmult[t.rmult[j][s]][u]
                    assert (j == i) == (k == m)

    def test_transitive(self, gens, labels, size):
        t = CoxeterTable(gens, labels)
        seen, stack = {0}, [0]
        while stack:
            i = stack.pop()
            for j in t.rmult[i].values():
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        assert len(seen) == t.size == size

    def test_derived_tables_match_definitions(self, gens, labels, size):
        t = CoxeterTable(gens, labels)
        for i in range(t.size):
            assert from_word(t, t.words[i]) == i
            assert t.mult(i, t.inv[i]) == 0
            assert t.tau[i] == t.mult(t.mult(t.w0, i), t.w0)
            for g in t.gens:
                assert t.lmult[i][g] == from_word(t, (g,) + t.words[i])
                shorter = t.length[t.rmult[i][g]] < t.length[i]
                assert (g in t.right_descents[i]) == shorter
                shorter = t.length[t.lmult[i][g]] < t.length[i]
                assert (g in t.left_descents[i]) == shorter
        assert [i for i in range(t.size) if t.length[i] == max(t.length)] == [t.w0]


class TestDihedral:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_size_and_w0(self, n):
        t = dihedral_table(n)
        assert t.size == 2 * n
        assert t.length[t.w0] == n

    def test_braid_relation(self):
        t = dihedral_table(3)
        assert from_word(t, "aba") == from_word(t, "bab")
        assert from_word(t, "aba") == t.w0

    def test_involutions(self):
        t = dihedral_table(5)
        assert from_word(t, "aa") == 0
        assert from_word(t, "bb") == 0

    def test_tau_swaps_generators_odd(self):
        t = dihedral_table(5)
        assert t.tau[from_word(t, "a")] == from_word(t, "b")

    def test_tau_fixes_generators_even(self):
        t = dihedral_table(4)
        assert t.tau[from_word(t, "a")] == from_word(t, "a")

    def test_descents(self):
        t = dihedral_table(3)
        ab = from_word(t, "ab")
        assert t.left_descents[ab] == frozenset({"a"})
        assert t.right_descents[ab] == frozenset({"b"})

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            dihedral_table(1)


class TestTriangle:
    @pytest.mark.parametrize(
        "m,size,longest", [(3, 24, 6), (4, 48, 9), (5, 120, 15)]
    )
    def test_sizes(self, m, size, longest):
        t = triangle_table(m)
        assert t.size == size
        assert t.length[t.w0] == longest

    def test_relations_hold(self):
        for m in (3, 4, 5):
            t = triangle_table(m)
            assert from_word(t, "abab" + "ab"[: 2 * (3 - 2) - 2]) != 0  # sanity
            assert from_word(t, "ababab") == 0  # (ab)^3
            assert from_word(t, "bcbc") == 0  # (bc)^2
            assert from_word(t, "ac" * m) == 0

    def test_words_are_reduced(self):
        t = triangle_table(4)
        for i in range(t.size):
            assert from_word(t, t.words[i]) == i
            assert len(t.words[i]) == t.length[i]

    def test_inverse(self):
        t = triangle_table(3)
        for i in range(t.size):
            assert t.mult(i, t.inv[i]) == 0

    def test_rejects_other_labels(self):
        with pytest.raises(ValueError):
            triangle_table(6)

    @pytest.mark.parametrize(
        "gens,labels",
        [
            (("a", "b", "c"), {("a", "b"): 3, ("b", "c"): 3}),
            (("a", "b"), {("a", "b"): 3, ("b", "a"): 3}),
            (("a", "b"), {("a", "c"): 3}),
            (("a", "b"), {("a", "b"): 2.5}),
            (tuple("abcd"), {p: 2 for p in [("a", "b"), ("a", "c"), ("a", "d"),
                                             ("b", "c"), ("b", "d"), ("c", "d")]}),
        ],
    )
    def test_rejects_malformed_labels(self, gens, labels):
        with pytest.raises(ValueError):
            CoxeterTable(gens, labels)


# -- Garside normal forms ------------------------------------------------------

def random_word(rng, gens, length):
    return tuple((rng.choice(gens), rng.choice((1, -1))) for _ in range(length))


def assert_normal(ctx, nf):
    t = ctx.table
    for f in nf.factors:
        assert f != 0 and f != t.w0
    for x, y in zip(nf.factors, nf.factors[1:]):
        assert ctx.left_weight_pair(x, y) == (x, y)


class TestGarsideDihedral:
    def test_relator_trivial(self):
        for n in (2, 3, 4, 5, 6, 7):
            ctx = GarsideContext(dihedral_table(n))
            lhs = parse_word("ab" * n)[:n]
            rhs = parse_word("ba" * n)[:n]
            assert ctx.equal(lhs, rhs)

    def test_delta_identities(self):
        ctx = GarsideContext(dihedral_table(3))
        assert ctx.word_nf(parse_word("aba")) == GarsideElement(1, ())
        assert ctx.word_nf(parse_word("abaABA")) == ctx.identity

    def test_inverse_letter(self):
        ctx = GarsideContext(dihedral_table(4))
        for g in "ab":
            w = ((g, 1), (g, -1))
            assert ctx.word_nf(w) == ctx.identity
            assert ctx.word_nf(((g, -1), (g, 1))) == ctx.identity

    def test_free_group_distinction(self):
        ctx = GarsideContext(dihedral_table(3))
        assert not ctx.equal(parse_word("ab"), parse_word("ba"))
        assert not ctx.equal(parse_word("a"), parse_word("b"))

    def test_nf_is_left_weighted(self, rng):
        for n in (3, 4, 6):
            ctx = GarsideContext(dihedral_table(n))
            for _ in range(50):
                nf = ctx.word_nf(random_word(rng, "ab", rng.randint(0, 8)))
                assert_normal(ctx, nf)

    def test_nf_is_multiplicative(self, rng):
        for n in (3, 4):
            ctx = GarsideContext(dihedral_table(n))
            for _ in range(50):
                w1 = random_word(rng, "ab", rng.randint(0, 6))
                w2 = random_word(rng, "ab", rng.randint(0, 6))
                assert ctx.word_nf(concat(w1, w2)) == ctx.mul(
                    ctx.word_nf(w1), ctx.word_nf(w2)
                )

    def test_inverse_word_inverts(self, rng):
        ctx = GarsideContext(dihedral_table(5))
        for _ in range(50):
            w = random_word(rng, "ab", rng.randint(0, 6))
            assert ctx.word_nf(concat(w, invert(w))) == ctx.identity

    def test_positive_word_round_trip(self, rng):
        ctx = GarsideContext(dihedral_table(4))
        for _ in range(30):
            w = tuple((rng.choice("ab"), 1) for _ in range(rng.randint(0, 6)))
            nf = ctx.word_nf(w)
            assert nf.inf >= 0
            assert ctx.word_nf(positive_word(ctx, nf)) == nf
        with pytest.raises(ValueError, match="positive"):
            positive_word(ctx, GarsideElement(-1, ()))

    def test_delta_conjugation_shift(self):
        # Delta a = tau(a) Delta in B_3 (Delta = aba, tau swaps a and b)
        ctx = GarsideContext(dihedral_table(3))
        assert ctx.equal(parse_word("abaa"), parse_word("baba"))


# I2(2-12), A3, B3, H3 and the reducible triangles (2, 2, m)
GARSIDE_CONTEXTS = (
    [GarsideContext(dihedral_table(n)) for n in range(2, 13)]
    + [GarsideContext(triangle_table(m)) for m in (3, 4, 5)]
    + [
        GarsideContext(CoxeterTable(("a", "b", "c"), {("a", "b"): m, ("b", "c"): 2, ("a", "c"): 2}))
        for m in (2, 3, 4, 5, 7)
    ]
)


@st.composite
def garside_words(draw):
    """A context of GARSIDE_CONTEXTS and two words over its generators."""
    ctx = draw(st.sampled_from(GARSIDE_CONTEXTS))
    letter = st.tuples(st.sampled_from(ctx.table.gens), st.sampled_from((1, -1)))
    w1, w2 = (tuple(draw(st.lists(letter, max_size=24))) for _ in range(2))
    return ctx, w1, w2


@settings(max_examples=300, deadline=None)
@given(garside_words())
def test_word_nf_and_mul_match_the_bubble(case):
    ctx, w1, w2 = case
    assert ctx.word_nf(w1) == bubble_normal_form(ctx, w1)
    assert ctx.mul(ctx.word_nf(w1), ctx.word_nf(w2)) == bubble_normal_form(ctx, concat(w1, w2))


class TestGarsideSL2Oracle:
    """B_3 -> SL2(Z) has kernel generated by Delta^4, so the SL2 image
    together with the total exponent is a complete invariant."""

    A = ((1, 1), (0, 1))
    B = ((1, 0), (-1, 1))

    @classmethod
    def image(cls, w):
        m = ((1, 0), (0, 1))
        inv = {
            cls.A: ((1, -1), (0, 1)),
            cls.B: ((1, 0), (1, 1)),
        }
        for g, e in w:
            x = cls.A if g == "a" else cls.B
            if e == -1:
                x = inv[x]
            m = (
                (
                    m[0][0] * x[0][0] + m[0][1] * x[1][0],
                    m[0][0] * x[0][1] + m[0][1] * x[1][1],
                ),
                (
                    m[1][0] * x[0][0] + m[1][1] * x[1][0],
                    m[1][0] * x[0][1] + m[1][1] * x[1][1],
                ),
            )
        return m, sum(e for _, e in w)

    def test_all_short_words(self):
        ctx = GarsideContext(dihedral_table(3))
        buckets = {}
        words = [()]
        for _ in range(5):
            words = [w + (l,) for w in words for l in (("a", 1), ("a", -1), ("b", 1), ("b", -1))]
            for w in words:
                key = self.image(w)
                nf = ctx.word_nf(w)
                if key in buckets:
                    assert buckets[key] == nf
                else:
                    buckets[key] = nf


class TestGarsideTriangle:
    def test_braid_relations(self):
        for m in (3, 4, 5):
            ctx = GarsideContext(triangle_table(m))
            assert ctx.equal(parse_word("aba"), parse_word("bab"))
            assert ctx.equal(parse_word("bc"), parse_word("cb"))
            lhs = parse_word("ac" * m)[:m]
            rhs = parse_word("ca" * m)[:m]
            assert ctx.equal(lhs, rhs)

    def test_nf_multiplicative(self, rng):
        ctx = GarsideContext(triangle_table(3))
        for _ in range(30):
            w1 = random_word(rng, "abc", rng.randint(0, 5))
            w2 = random_word(rng, "abc", rng.randint(0, 5))
            assert ctx.word_nf(concat(w1, w2)) == ctx.mul(
                ctx.word_nf(w1), ctx.word_nf(w2)
            )
            assert_normal(ctx, ctx.word_nf(w1))


# -- Smith normal form ----------------------------------------------------------

def minors_gcd(m, k):
    from itertools import combinations
    from math import gcd

    rows, cols = len(m), len(m[0])
    g = 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            sub = [[m[i][j] for j in ci] for i in ri]
            g = gcd(g, determinant(sub))
    return g


class TestSnf:
    def test_diag_examples(self):
        d, _, _ = smith_normal_form([[2, 0], [0, 0]])
        assert [d[0][0], d[1][1]] == [2, 0]
        d, _, _ = smith_normal_form([[2, 4], [6, 8]])
        assert [d[0][0], d[1][1]] == [2, 4]

    def test_transforms_multiply(self):
        m = [[6, 4, 2], [2, 8, 4]]
        d, u, v = smith_normal_form(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert determinant(u) in (1, -1)
        assert determinant(v) in (1, -1)

    def test_divisibility_chain(self, rng):
        for _ in range(30):
            m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(4)]
            d, u, v = smith_normal_form(m)
            assert mat_mul(mat_mul(u, m), v) == d
            assert determinant(u) in (1, -1)
            assert determinant(v) in (1, -1)
            diag = [d[i][i] for i in range(4)]
            for x, y in zip(diag, diag[1:]):
                assert x >= 0
                if x == 0:
                    assert y == 0
                else:
                    assert y % x == 0
            # invariant factors match gcds of k x k minors
            prev = 1
            for k in range(1, 5):
                g = minors_gcd(m, k)
                expected = 0 if g == 0 else g // prev if prev else 0
                assert diag[k - 1] == expected
                if g == 0:
                    break
                prev = g

    def test_abelian_invariants(self):
        assert abelian_invariants([], 3) == ((), 3)
        assert abelian_invariants([[2, 0], [0, 3]], 2) == ((6,), 0)
        assert abelian_invariants([[1, -1]], 2) == ((), 1)
        # Z^2 / <(2, 0), (0, 2)> = Z/2 x Z/2
        assert abelian_invariants([[2, 0], [0, 2]], 2) == ((2, 2), 0)

    def test_in_row_span(self):
        m = [[2, 0], [0, 3]]
        assert in_row_span(m, [4, 3])
        assert not in_row_span(m, [1, 0])
        assert in_row_span([], [0, 0])
        assert not in_row_span([], [1, 0])

    def test_in_row_span_randomized(self, rng):
        for _ in range(30):
            m = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
            coeffs = [rng.randint(-3, 3) for _ in range(3)]
            vec = [sum(coeffs[i] * m[i][j] for i in range(3)) for j in range(3)]
            assert in_row_span(m, vec)
