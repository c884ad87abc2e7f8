"""Free words over named alphabets.

A word is a tuple of (generator, exponent) letters with exponent +1 or -1.
The ASCII convention for single-letter alphabets: lowercase is a generator,
the corresponding uppercase letter is its inverse, so "abA" means a b a^-1.
"""

from __future__ import annotations

Letter = tuple[str, int]
Word = tuple[Letter, ...]


def parse_word(text: str) -> Word:
    """Parse an ASCII word (lowercase = generator, uppercase = inverse)."""
    letters = []
    for ch in text.strip():
        if ch.isspace():
            continue
        if ch.islower():
            letters.append((ch, 1))
        elif ch.isupper():
            letters.append((ch.lower(), -1))
        else:
            raise ValueError(f"bad letter {ch!r} in word {text!r}")
    return tuple(letters)


def word_str(w: Word) -> str:
    """Inverse of parse_word for single-letter alphabets."""
    out = []
    for g, e in w:
        if len(g) != 1 or not g.islower():
            raise ValueError(f"generator {g!r} has no single-letter ASCII form")
        out.append(g if e == 1 else g.upper())
    return "".join(out)


def invert(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def concat(*ws: Word) -> Word:
    out: list[Letter] = []
    for w in ws:
        out.extend(w)
    return tuple(out)


def power(w: Word, n: int) -> Word:
    if n < 0:
        return power(invert(w), -n)
    return w * n


def free_reduce(w: Word) -> Word:
    out: list[Letter] = []
    for letter in w:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def cyclic_reduce(w: Word) -> Word:
    w = free_reduce(w)
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = free_reduce(w[1:-1])
    return w


def exp_sum(w: Word, gen: str) -> int:
    """Sum of the exponents at a generator (Exp accessor)."""
    return sum(e for g, e in w if g == gen)


def substitute(w: Word, table: dict[str, Word]) -> Word:
    """Replace each generator by a word; generators absent from the table stay."""
    out: list[Letter] = []
    for g, e in w:
        if g in table:
            rep = table[g] if e == 1 else invert(table[g])
            out.extend(rep)
        else:
            out.append((g, e))
    return free_reduce(tuple(out))


def alternating_word(x: str, y: str, n: int) -> Word:
    """The length-n alternating word x y x y ..."""
    return tuple(((x, y)[i % 2], 1) for i in range(n))


def artin_relation(u: str, v: str, m: int) -> tuple[Word, Word]:
    """The two sides of the Artin relation uvu... = vuv... (m letters each)."""
    return alternating_word(u, v, m), alternating_word(v, u, m)
