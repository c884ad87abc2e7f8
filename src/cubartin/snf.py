"""Invariant factors of integer matrices, for abelianizations.

Plain list-of-lists integer matrices; everything is exact (python ints).
The cokernel Z^n / row-span(m) is read off the diagonal of the Smith normal
form of m, so only the diagonal is computed, not the unimodular transforms.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


def invariant_factors(m: IntMatrix) -> list[int]:
    """The nonzero invariant factors d_1 | d_2 | ... of m, as positive ints."""
    d = [row[:] for row in m]
    factors = []
    while True:
        # a pivot of least absolute value in the block left, moved to (0, 0)
        nonzero = [(abs(x), i, j) for i, row in enumerate(d) for j, x in enumerate(row) if x]
        if not nonzero:
            return factors
        _, i, j = min(nonzero)
        d[0], d[i] = d[i], d[0]
        for row in d:
            row[0], row[j] = row[j], row[0]
        # clear the pivot's column and row; a remainder becomes the new pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(1, len(d)):
                if d[i][0]:
                    q = d[i][0] // d[0][0]
                    d[i] = [x - q * y for x, y in zip(d[i], d[0])]
                    if d[i][0]:
                        d[0], d[i] = d[i], d[0]
                        dirty = True
            for j in range(1, len(d[0])):
                if d[0][j]:
                    q = d[0][j] // d[0][0]
                    for row in d:
                        row[j] -= q * row[0]
                    if d[0][j]:
                        for row in d:
                            row[0], row[j] = row[j], row[0]
                        dirty = True
        # the pivot must divide the block left: else add a row it does not
        # divide to the pivot row, and pivot again
        p = d[0][0]
        bad = next((row for row in d[1:] if any(x % p for x in row)), None)
        if bad is not None:
            d[0] = [x + y for x, y in zip(d[0], bad)]
            continue
        factors.append(abs(p))
        d = [row[1:] for row in d[1:]]


def abelian_invariants(relators: IntMatrix, ngens: int) -> tuple[tuple[int, ...], int]:
    """Invariant factors (>1) and free rank of Z^ngens / row-span(relators)."""
    factors = invariant_factors(relators)
    return tuple(x for x in factors if x > 1), ngens - len(factors)
