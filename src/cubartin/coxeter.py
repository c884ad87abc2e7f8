"""Finite Coxeter groups as integer multiplication tables.

A Coxeter group is given by generators S and labels m_st >= 2 for every
pair s != t.  Its table is enumerated from words alone, with no matrix
model.  Two classical facts make that possible:

- Matsumoto (1964): any two reduced words of an element are linked by
  braid moves s t s ... <-> t s t ... (m_st letters a side), so the braid
  closure of one reduced word is the set of all of them and names the
  element;
- Tits (1969): l(w s) < l(w) exactly when some reduced word of w ends in s,
  and then w s is that word without its last letter; otherwise a reduced
  word of w s is a reduced word of w followed by s.

A breadth-first enumeration over these word sets gives, as lists indexed
by element, the first reduced word found, the length, right and left
multiplication by generators, right and left descent sets, inverses, and
tau, the conjugation by the longest element w0.  Tables back the Garside
machinery downstream.
"""

from __future__ import annotations

from itertools import combinations

from .words import artin_relation


def braid_moves(labels: dict) -> list[tuple[tuple, tuple]]:
    """Both directions of every braid relation, as tuples of letters."""
    moves = []
    for (s, t), m in labels.items():
        st, ts = (tuple(g for g, _ in side) for side in artin_relation(s, t, m))
        moves += [(st, ts), (ts, st)]
    return moves


def braid_closure(letters: tuple, moves) -> set:
    """Every word reachable from letters by the given moves.  Braid moves
    preserve length, so the closure is finite."""
    seen = {letters}
    queue = [letters]
    while queue:
        cur = queue.pop()
        for src, dst in moves:
            k = len(src)
            for i in range(len(cur) - k + 1):
                if cur[i : i + k] == src:
                    nxt = cur[:i] + dst + cur[i + k :]
                    if nxt not in seen:
                        seen.add(nxt)
                        queue.append(nxt)
    return seen


def is_spherical_triangle(p: int, q: int, r: int) -> bool:
    """Whether labels p, q, r >= 2 on a triangle give a finite Coxeter
    group, that is, 1/p + 1/q + 1/r > 1, decided in integers."""
    return q * r + p * r + p * q > p * q * r


def _check_labels(gens: tuple, labels: dict) -> None:
    m = {}
    for (s, t), k in labels.items():
        if not isinstance(k, int) or k < 2:
            raise ValueError("Coxeter labels must be integers >= 2")
        m[s, t] = m[t, s] = k
    pairs = list(combinations(gens, 2))
    if len(labels) != len(pairs) or any(p not in m for p in pairs):
        raise ValueError("every pair of generators needs exactly one label")
    if len(gens) > 3:
        raise ValueError("Coxeter tables are built for rank at most 3")
    if len(gens) == 3:
        p, q, r = (m[pair] for pair in pairs)
        if not is_spherical_triangle(p, q, r):
            raise ValueError(f"labels {(p, q, r)} do not give a finite group")


class CoxeterTable:
    """A finite Coxeter group of rank <= 3 with every table built once.

    Elements are indices in breadth-first order, 0 the identity and w0 the
    last.  rmult[i][g] is i g and lmult[i][g] is g i; length, words,
    right_descents, left_descents, inv and tau are lists over elements.
    """

    def __init__(self, gens: tuple[str, ...], labels: dict):
        _check_labels(gens, labels)
        self.gens = gens
        self.moves = braid_moves(labels)
        index = {(): 0}  # every reduced word -> its element
        self.words: list[tuple[str, ...]] = [()]
        down: list[dict] = [{}]  # right descent g -> element w g
        self.rmult: list[dict[str, int]] = []
        i = 0
        while i < len(self.words):
            row = dict(down[i])  # w g for each right descent g is known
            for g in gens:
                if g in row:
                    continue
                word = self.words[i] + (g,)
                if word not in index:
                    j = len(self.words)
                    self.words.append(word)
                    reduced = braid_closure(word, self.moves)
                    for v in reduced:
                        index[v] = j
                    down.append({v[-1]: index[v[:-1]] for v in reduced})
                row[g] = index[word]
            self.rmult.append(row)
            i += 1
        self.size = len(self.words)
        self.length = [len(w) for w in self.words]
        self.w0 = self.size - 1  # the unique longest element comes last
        self.right_descents = [frozenset(d) for d in down]
        self.inv = [index[w[::-1]] for w in self.words]
        self.left_descents = [self.right_descents[k] for k in self.inv]
        # g i = (i^-1 g)^-1
        self.lmult = [
            {g: self.inv[self.rmult[k][g]] for g in gens} for k in self.inv
        ]
        # tau(i g) = tau(i) sigma(g) with sigma(g) = w0 g w0, a generator,
        # along the breadth-first tree: element j is (j g) g for its last letter g
        sigma = {
            g: self.words[self.mult(self.rmult[self.w0][g], self.w0)][0]
            for g in gens
        }
        self.tau = [0]
        for j in range(1, self.size):
            g = self.words[j][-1]
            self.tau.append(self.rmult[self.tau[self.rmult[j][g]]][sigma[g]])

    def mult(self, i: int, j: int) -> int:
        for g in self.words[j]:
            i = self.rmult[i][g]
        return i
