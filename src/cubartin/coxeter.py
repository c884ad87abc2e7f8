"""Finite Coxeter groups with exact arithmetic multiplication tables.

Two families are enumerated: dihedral groups I2(n) (combinatorial model,
rotation/reflection pairs) and the rank-3 groups with Coxeter matrix
(m_ab, m_bc, m_ac) = (3, 2, m) for m in {3, 4, 5} via the geometric
reflection representation.  The m = 4 and m = 5 cases need cos(pi/4) and
cos(pi/5), handled by exact quadratic extensions Q(sqrt 2) and Q(sqrt 5).

Every group is materialized as a CoxeterTable: indexed elements, length
function, reduced words, multiplication, descent sets, and the longest
element w0.  Tables back the Garside machinery downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class QuadExt:
    """p + q * sqrt(d) with rational p, q; d = 1 encodes plain rationals."""

    p: Fraction
    q: Fraction
    d: int

    def _check(self, other: "QuadExt"):
        if self.d != other.d:
            raise ValueError("mixed quadratic fields")

    def __add__(self, other):
        self._check(other)
        return QuadExt(self.p + other.p, self.q + other.q, self.d)

    def __sub__(self, other):
        self._check(other)
        return QuadExt(self.p - other.p, self.q - other.q, self.d)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return QuadExt(self.p * other, self.q * other, self.d)
        self._check(other)
        return QuadExt(
            self.p * other.p + self.q * other.q * self.d,
            self.p * other.q + self.q * other.p,
            self.d,
        )

    __rmul__ = __mul__

    def __neg__(self):
        return QuadExt(-self.p, -self.q, self.d)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0


def qnum(p, q=0, d=1) -> QuadExt:
    return QuadExt(Fraction(p), Fraction(q), d)


class CoxeterTable:
    """Finite group enumeration over hashable elements with right tables."""

    def __init__(self, gens: tuple[str, ...], gen_elems: dict, mul, identity):
        self.gens = gens
        elements = [identity]
        index = {identity: 0}
        self.words: list[tuple[str, ...]] = [()]
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                for g in gens:
                    e = mul(elements[i], gen_elems[g])
                    if e not in index:
                        index[e] = len(elements)
                        elements.append(e)
                        self.words.append(self.words[i] + (g,))
                        nxt.append(index[e])
            frontier = nxt
        self.size = len(elements)
        self.length = [len(w) for w in self.words]
        self._rmult = {
            (i, g): index[mul(elements[i], gen_elems[g])]
            for i in range(self.size)
            for g in gens
        }
        longest = max(range(self.size), key=lambda i: self.length[i])
        if sum(1 for i in range(self.size) if self.length[i] == self.length[longest]) != 1:
            raise ValueError("longest element not unique; group not finite Coxeter?")
        self.w0 = longest

    def rmult(self, i: int, g: str) -> int:
        return self._rmult[(i, g)]

    def from_word(self, word) -> int:
        i = 0
        for g in word:
            i = self.rmult(i, g)
        return i

    def mult(self, i: int, j: int) -> int:
        for g in self.words[j]:
            i = self.rmult(i, g)
        return i

    def lmult(self, g: str, i: int) -> int:
        return self.mult(self.from_word((g,)), i)

    def inv(self, i: int) -> int:
        return self.from_word(tuple(reversed(self.words[i])))

    def right_descents(self, i: int) -> frozenset:
        return frozenset(g for g in self.gens if self.length[self.rmult(i, g)] < self.length[i])

    def left_descents(self, i: int) -> frozenset:
        return frozenset(g for g in self.gens if self.length[self.lmult(g, i)] < self.length[i])

    def tau(self, i: int) -> int:
        """Conjugation by the longest element (an automorphism permuting gens)."""
        return self.mult(self.mult(self.w0, i), self.w0)


def dihedral_table(n: int) -> CoxeterTable:
    """I2(n) on generators a, b; elements are (rotation, reflection bit)."""
    if n < 2:
        raise ValueError("dihedral order parameter must be >= 2")

    def mul(x, y):
        k1, e1 = x
        k2, e2 = y
        if e1 == 0:
            return ((k1 + k2) % n, e2)
        return ((k1 - k2) % n, 1 - e2)

    # a is a reflection; ab is the rotation by one step
    gen_elems = {"a": (0, 1), "b": (n - 1, 1)}
    table = CoxeterTable(("a", "b"), gen_elems, mul, (0, 0))
    assert table.size == 2 * n
    return table


# cos(pi/m) as (rational part, sqrt coefficient); the sqrt matches the field
_COS = {
    2: (Fraction(0), Fraction(0)),
    3: (Fraction(1, 2), Fraction(0)),
    4: (Fraction(0), Fraction(1, 2)),  # sqrt(2)/2
    5: (Fraction(1, 4), Fraction(1, 4)),  # (1 + sqrt 5)/4
}


def triangle_table(m: int) -> CoxeterTable:
    """Rank-3 Coxeter group with labels (m_ab, m_bc, m_ac) = (3, 2, m)."""
    if m not in (3, 4, 5):
        raise ValueError("only m in {3, 4, 5} is spherical here")
    d = {3: 1, 4: 2, 5: 5}[m]

    def cos_of(label):
        p, q = _COS[label]
        return QuadExt(p, q, d)

    gens = ("a", "b", "c")
    labels = {("a", "b"): 3, ("b", "c"): 2, ("a", "c"): m}

    def bilinear(i, j):
        if i == j:
            return qnum(1, 0, d)
        lab = labels[tuple(sorted((gens[i], gens[j])))]
        return -cos_of(lab)

    zero, one = qnum(0, 0, d), qnum(1, 0, d)
    B = [[bilinear(i, j) for j in range(3)] for i in range(3)]
    gen_mats = {}
    for i, g in enumerate(gens):
        rows = []
        for k in range(3):
            row = []
            for j in range(3):
                entry = one if k == j else zero
                if k == i:
                    entry = entry - 2 * B[i][j]
                row.append(entry)
            rows.append(tuple(row))
        gen_mats[g] = tuple(rows)

    def mat_mul(x, y):
        return tuple(
            tuple(
                sum((x[i][k] * y[k][j] for k in range(3)), start=zero)
                for j in range(3)
            )
            for i in range(3)
        )

    identity = tuple(tuple(one if i == j else zero for j in range(3)) for i in range(3))
    return CoxeterTable(gens, gen_mats, mat_mul, identity)
