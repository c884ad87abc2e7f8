import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import brute_bounded_lemma_checks, positive_equal, subgroup_presentation

from cubartin import artin_algebra as aa
from cubartin.snf import abelian_invariants
from cubartin.words import (
    concat,
    exp_sum,
    free_reduce,
    invert,
    parse_word,
    power,
)


def even_words(rng, length_pairs):
    letters = [(g, e) for g in "ab" for e in (1, -1)]
    return tuple(rng.choice(letters) for _ in range(2 * length_pairs))


class TestContexts:
    def test_dihedral_rejects_small(self):
        with pytest.raises(ValueError):
            aa.DihedralContext(1)

    def test_dihedral_bound(self):
        assert aa.DihedralContext(aa.MAX_DIHEDRAL).table.size == 2 * aa.MAX_DIHEDRAL
        with pytest.raises(ValueError, match="exceeds the bound"):
            aa.DihedralContext(aa.MAX_DIHEDRAL + 1)

    def test_unknown_letter_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown letter 'x'"):
            aa.DihedralContext(3).nf(parse_word("abX"))

    def test_spherical_orders(self):
        assert aa.SphericalContext(3).table.size == 24
        assert aa.SphericalContext(4).table.size == 48
        assert aa.SphericalContext(5).table.size == 120
        with pytest.raises(ValueError, match="3, 4, 5"):
            aa.SphericalContext(6)

    def test_coxeter_enumerate(self):
        # any labelling of a finite rank-3 group, not only (3, 2, m)
        ctx = aa.ArtinContext(("a", "b", "c"), {("a", "b"): 4, ("b", "c"): 2, ("a", "c"): 3})
        assert ctx.table.size == 48
        assert ctx.equal(parse_word("abab"), parse_word("baba"))
        with pytest.raises(ValueError, match="finite"):
            aa.ArtinContext(("a", "b", "c"), {("a", "b"): 3, ("b", "c"): 3, ("a", "c"): 3})

    def test_relation_holds(self):
        for n in (2, 3, 4, 7):
            ctx = aa.DihedralContext(n)
            l, r = aa.artin_relation("a", "b", n)
            assert ctx.equal(l, r)

    def test_z_word(self):
        assert aa.DihedralContext(4).z_word == aa.DihedralContext(4).delta_word
        assert aa.DihedralContext(3).z_word == power(parse_word("aba"), 2)
        assert aa.SphericalContext(4).z_word == aa.SphericalContext(4).delta_word


class TestEvenRewrite:
    def test_basic_pairs(self):
        assert aa.even_rewrite(parse_word("ab")) == parse_word("r")
        assert aa.even_rewrite(parse_word("aB")) == parse_word("s")
        assert aa.even_rewrite(parse_word("Ab")) == parse_word("t")
        assert aa.even_rewrite(parse_word("aA")) == ()

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            aa.even_rewrite(parse_word("a"))

    def test_round_trip_randomized(self, rng):
        for n in (3, 4, 5):
            ctx = aa.DihedralContext(n)
            for _ in range(60):
                w = even_words(rng, rng.randint(0, 5))
                back = aa.expand_prime(aa.even_rewrite(w))
                assert ctx.equal(back, w)

    def test_pair_table_exact_in_free_group(self, rng):
        # the rewrite is exact letter for letter, not just up to relations
        for _ in range(60):
            w = even_words(rng, rng.randint(1, 5))
            back = aa.expand_prime(aa.even_rewrite(w))
            assert free_reduce(back) == free_reduce(w)


class TestDeltaConjugation:
    def test_even_is_identity(self):
        ctx = aa.DihedralContext(4)
        w = parse_word("rsT")
        assert aa.delta_conjugation(ctx, w) == w

    def test_odd_action(self):
        ctx = aa.DihedralContext(3)
        assert aa.delta_conjugation(ctx, parse_word("r")) == parse_word("q")
        assert aa.delta_conjugation(ctx, parse_word("s")) == parse_word("S")
        assert aa.delta_conjugation(ctx, parse_word("t")) == parse_word("T")

    def test_matches_actual_conjugation(self, rng):
        for n in (3, 5, 7, 9, 11):
            ctx = aa.DihedralContext(n)
            delta = ctx.delta_word
            for _ in range(20):
                w = tuple(
                    (rng.choice("rstq"), rng.choice((1, -1)))
                    for _ in range(rng.randint(0, 4))
                )
                lhs = aa.expand_prime(aa.delta_conjugation(ctx, w))
                rhs = concat(invert(delta), aa.expand_prime(w), delta)
                assert ctx.equal(lhs, rhs)

    def test_involution(self, rng):
        ctx = aa.DihedralContext(5)
        for _ in range(20):
            w = tuple(
                (rng.choice("rstq"), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 5))
            )
            assert aa.delta_conjugation(ctx, aa.delta_conjugation(ctx, w)) == w

    def test_unknown_letter_rejected(self):
        with pytest.raises(ValueError, match="generator"):
            aa.delta_conjugation(aa.DihedralContext(3), parse_word("x"))


class TestPhiPsi:
    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_phi_delta_is_b_power(self, n):
        ctx = aa.DihedralContext(n)
        lhs = concat(aa.expand_prime(aa.build_phi(n)), ctx.delta_word)
        assert ctx.equal(lhs, power(parse_word("b"), n))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_phi_has_no_r_exponent(self, n):
        assert exp_sum(aa.build_phi(n), "r") == 0

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_psi_z_is_b_power(self, n):
        ctx = aa.DihedralContext(n)
        lhs = concat(aa.expand_prime(aa.psi_word(n)), ctx.z_word)
        assert ctx.equal(lhs, power(parse_word("b"), 2 * n))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_psi_in_commutator_subgroup(self, n):
        p = aa.aprime_presentation(n)
        psi = aa.psi_word(n)
        # eliminate q = s^-1 r t^-1 to land on the r, s, t generators
        from cubartin.words import substitute

        psi_rst = substitute(psi, {"q": parse_word("SrT")})
        assert aa.commutator_membership(p, psi_rst)

    def test_phi_even_rejected(self):
        with pytest.raises(ValueError):
            aa.build_phi(4)


class TestAprimePresentation:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_reidemeister_schreier(self, n):
        p = aa.aprime_presentation(n)
        assert p.generators == ("r", "s", "t")
        l, r = aa.artin_relation("a", "b", n)
        from cubartin.presentations import Presentation

        big = Presentation(("a", "b"), (free_reduce(concat(l, invert(r))),))
        rs = subgroup_presentation(big, {"a": 1, "b": 1})
        assert abelian_invariants(
            p.exponent_matrix(), len(p.generators)
        ) == abelian_invariants(rs.exponent_matrix(), len(rs.generators))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_relators_hold_in_group(self, n):
        ctx = aa.DihedralContext(n)
        for rel in aa.aprime_presentation(n).relators:
            assert ctx.equal(aa.expand_prime(rel), ())

    def test_odd_abelianization(self):
        # for odd n the Artin relator is the (2, n) torus knot relator, and
        # the index-2 cover has H_1 = Z + Z/n (Alexander polynomial at -1)
        for n in (3, 5, 7):
            p = aa.aprime_presentation(n)
            assert abelian_invariants(p.exponent_matrix(), 3) == ((n,), 1)


class TestReidemeisterSchreier:
    def test_free_group_kernel(self):
        from cubartin.presentations import Presentation

        p = Presentation(("a", "b"), ())
        sub = subgroup_presentation(p, {"a": 1, "b": 0})
        # index-2 subgroup of F_2 is free of rank 3
        assert len(sub.generators) == 3
        assert sub.relators == ()

    def test_trivial_sign_rejected(self):
        from cubartin.presentations import Presentation

        with pytest.raises(ValueError, match="trivial"):
            subgroup_presentation(Presentation(("a",), ()), {"a": 0})

    def test_kernel_of_z_mod_2(self):
        from cubartin.presentations import Presentation

        p = Presentation(("a",), ())
        sub = subgroup_presentation(p, {"a": 1})
        # kernel of Z -> Z/2 is Z
        assert len(sub.generators) == 1
        assert sub.relators == ()


class TestCommutatorMembership:
    def test_free_abelian(self):
        from cubartin.presentations import Presentation

        p = Presentation(("a", "b"), ())
        assert aa.commutator_membership(p, parse_word("abAB"))
        assert not aa.commutator_membership(p, parse_word("a"))

    def test_unknown_generator(self):
        from cubartin.presentations import Presentation

        with pytest.raises(ValueError, match="unknown"):
            aa.commutator_membership(Presentation(("a",), ()), parse_word("x"))


class TestPositiveOracle:
    def test_agrees_with_garside_dihedral(self, rng):
        for n in (3, 4, 5):
            ctx = aa.DihedralContext(n)
            for _ in range(40):
                w1 = tuple((rng.choice("ab"), 1) for _ in range(rng.randint(0, 6)))
                w2 = tuple((rng.choice("ab"), 1) for _ in range(rng.randint(0, 6)))
                assert positive_equal(ctx, w1, w2) == ctx.equal(w1, w2)

    def test_agrees_with_garside_spherical(self, rng):
        ctx = aa.SphericalContext(3)
        for _ in range(30):
            w1 = tuple((rng.choice("abc"), 1) for _ in range(rng.randint(0, 5)))
            w2 = tuple((rng.choice("abc"), 1) for _ in range(rng.randint(0, 5)))
            assert positive_equal(ctx, w1, w2) == ctx.equal(w1, w2)

    def test_rejects_negative_letters(self):
        with pytest.raises(ValueError, match="positive"):
            positive_equal(aa.DihedralContext(3), parse_word("A"), parse_word("a"))


class TestCenter:
    def test_dihedral_odd(self):
        report = aa.center_check(aa.DihedralContext(3))
        assert report["center_generator"] == "Delta^2"
        assert report["central"]
        assert not report["delta_central"]

    def test_dihedral_even(self):
        report = aa.center_check(aa.DihedralContext(4))
        assert report["center_generator"] == "Delta"
        assert report["central"] and report["delta_central"]

    def test_spherical(self):
        for m, gen in ((3, "Delta^2"), (4, "Delta"), (5, "Delta")):
            report = aa.center_check(aa.SphericalContext(m))
            assert report["center_generator"] == gen
            assert report["central"]


class TestBoundedLemmas:
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_small_bounds_verified(self, m):
        report = aa.bounded_lemma_checks(aa.SphericalContext(m), L=4, K=1, M=1)
        assert report["label"] == "bounded verification"
        assert report["ii_verified"] and report["iii_verified"]
        assert report["violations"] == []
        assert report["bounds"] == {"L": 4, "K": 1, "M": 1}

    @pytest.mark.parametrize("bounds", [{"L": -1}, {"K": -3, "M": -1}, {"M": -1}])
    def test_negative_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match=">= 0"):
            aa.bounded_lemma_checks(aa.SphericalContext(3), **bounds)

    def test_L_past_bound_rejected(self):
        with pytest.raises(ValueError, match="exceeds the bound"):
            aa.bounded_lemma_checks(aa.SphericalContext(5), L=aa.MAX_L + 1)

    @pytest.mark.parametrize("bounds", [{"K": aa.MAX_K + 1}, {"M": aa.MAX_M + 1}, {"K": 10**6, "M": 10**6}])
    def test_K_and_M_past_bound_rejected(self, bounds):
        with pytest.raises(ValueError, match="exceeds the bound 4"):
            aa.bounded_lemma_checks(aa.SphericalContext(5), L=1, **bounds)


def all_two_triangle(z_word=None) -> aa.ArtinContext:
    """Z^3 as the triangle with every label 2; z = abc unless z_word is given."""
    ctx = aa.ArtinContext(("a", "b", "c"), {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 2})
    if z_word is not None:
        ctx.z_word = parse_word(z_word)
    return ctx


# the all-2 triangle, where clause (iii) fails; with z = b, where clause (ii)
# fails on both pairs; and the three spherical types, where both hold
BOUNDED_CONTEXTS = (all_two_triangle(), all_two_triangle("b"), *(aa.SphericalContext(m) for m in (3, 4, 5)))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(BOUNDED_CONTEXTS),
    st.integers(0, 4),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_bounded_checks_match_brute_force(ctx, L, K, M):
    assert aa.bounded_lemma_checks(ctx, L, K, M) == brute_bounded_lemma_checks(ctx, L, K, M)


def test_all_two_triangle_violations_in_order():
    report = aa.bounded_lemma_checks(all_two_triangle(), L=4, K=2, M=2)
    assert report["violations"] == brute_bounded_lemma_checks(all_two_triangle(), 4, 2, 2)["violations"]
    assert len(report["violations"]) == 24
    # g z^k = c^j needs j = k and g = a^-k b^-k in Z^3, found by (j, k) and then walk order
    assert report["violations"][:7] == [("iii", w, -2, -2) for w in ("aabb", "abab", "abba", "baab", "baba", "bbaa")] + [
        ("iii", "ab", -1, -1)
    ]
    assert report["ii_verified"] and not report["iii_verified"]
