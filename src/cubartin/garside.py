"""Left-greedy Garside normal forms over a finite Coxeter table.

Simple elements are the lifts of Coxeter group elements; Delta lifts the
longest element w0.  A group element is written Delta^k s_1 ... s_l with
every consecutive pair left-weighted (no letter can be transferred from the
head of s_{i+1} to the tail of s_i) and no factor trivial or Delta.  Such
forms are canonical, so the word problem is structural equality.

Conjugation by Delta acts on simples as tau(x) = w0 x w0, which shifts
factors past Delta powers during multiplication.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import CoxeterTable
from .words import Word


@dataclass(frozen=True)
class GarsideElement:
    inf: int  # power of Delta
    factors: tuple[int, ...]  # table element indices, left-weighted

    @property
    def canonical_length(self) -> int:
        return len(self.factors)


class GarsideContext:
    def __init__(self, table: CoxeterTable):
        self.table = table
        self.identity = GarsideElement(0, ())

    # -- factor surgery ----------------------------------------------------

    def left_weight_pair(self, x: int, y: int) -> tuple[int, int]:
        """Transfer head letters of y onto x until the pair is left-weighted:
        x absorbs every s that is a left descent of y and no right descent
        of x (so l(xs) > l(x))."""
        t = self.table
        changed = True
        while changed:
            changed = False
            for s in t.gens:
                if s in t.left_descents[y] and s not in t.right_descents[x]:
                    x = t.rmult[x][s]
                    y = t.lmult[y][s]
                    changed = True
        return x, y

    def normalize_factors(self, inf: int, factors) -> GarsideElement:
        """Bubble adjacent pairs to left-weighted form, pull Deltas into the
        infimum, and drop trivial factors."""
        t = self.table
        fs = [f for f in factors if f != 0]
        changed = True
        while changed:
            changed = False
            for i in range(len(fs) - 1):
                x, y = self.left_weight_pair(fs[i], fs[i + 1])
                if (x, y) != (fs[i], fs[i + 1]):
                    fs[i], fs[i + 1] = x, y
                    changed = True
            fs = [f for f in fs if f != 0]
        while fs and fs[0] == t.w0:
            # Delta^inf (Delta f2 ...) = Delta^(inf+1) f2 ...
            fs.pop(0)
            inf += 1
        return GarsideElement(inf, tuple(fs))

    # -- arithmetic ----------------------------------------------------------

    def tau_power(self, f: int, k: int) -> int:
        return self.table.tau[f] if k % 2 else f

    def mul(self, u: GarsideElement, v: GarsideElement) -> GarsideElement:
        shifted = [self.tau_power(f, v.inf) for f in u.factors]
        return self.normalize_factors(u.inf + v.inf, shifted + list(v.factors))

    def from_letter(self, g: str, e: int) -> GarsideElement:
        t = self.table
        if g not in t.gens:
            raise ValueError(f"unknown letter {g!r}, not one of {' '.join(t.gens)}")
        if e == 1:
            return GarsideElement(0, (t.rmult[0][g],))
        # g^-1 = Delta^-1 (Delta g^-1); the complement lifts w0 g
        comp = t.rmult[t.w0][g]
        if comp == 0:
            return GarsideElement(-1, ())
        return GarsideElement(-1, (comp,))

    def word_nf(self, w: Word) -> GarsideElement:
        out = self.identity
        for g, e in w:
            out = self.mul(out, self.from_letter(g, e))
        return out

    def equal(self, w1: Word, w2: Word) -> bool:
        return self.word_nf(w1) == self.word_nf(w2)
