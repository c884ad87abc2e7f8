"""Left-greedy Garside normal forms over a finite Coxeter table.

Simple elements are the lifts of Coxeter group elements; Delta lifts the
longest element w0.  A group element is written Delta^k s_1 ... s_l with
every consecutive pair left-weighted (no letter can be transferred from the
head of s_{i+1} to the tail of s_i) and no factor trivial or Delta.  Such
forms are canonical, so the word problem is structural equality.

Conjugation by Delta acts on simples as tau(x) = w0 x w0, which shifts
factors past Delta powers during multiplication.  A product appends the
right factor's simples one at a time, and each append is one right-to-left
sweep of left-weighting over adjacent pairs, so a word of n letters costs
n sweeps rather than a pass to a fixpoint after every letter (Epstein et
al., *Word Processing in Groups*, ch. 9; Charney, Math. Ann. 292, 1992).
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

    # -- arithmetic ----------------------------------------------------------

    def mul(self, u: GarsideElement, v: GarsideElement) -> GarsideElement:
        """u v, from Delta^p A Delta^q B = Delta^(p+q) tau^q(A) B.

        Each simple of B is appended and swept right to left.  Left-weighting
        (x, y) moves the head of y onto x, so only the pair to its left can
        break; once a pair comes out unchanged, all pairs to its left are as
        they were, left-weighted, and the sweep stops.  Only the appended
        simple can end trivial (an emptied older s_i would make s_{i-1} s_i
        simple, so that pair was not left-weighted), and a Delta can only
        lead, since (x, Delta) is left-weighted only for x = Delta; leading
        Deltas go into the infimum.
        """
        t = self.table
        fs = [t.tau[f] for f in u.factors] if v.inf % 2 else list(u.factors)
        for y in v.factors:
            fs.append(y)
            i = len(fs) - 1
            while i:
                pair = self.left_weight_pair(fs[i - 1], fs[i])
                if pair == (fs[i - 1], fs[i]):
                    break
                fs[i - 1], fs[i] = pair
                i -= 1
            if fs[-1] == 0:
                fs.pop()
        d = 0
        while d < len(fs) and fs[d] == t.w0:
            d += 1
        return GarsideElement(u.inf + v.inf + d, tuple(fs[d:]))

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
