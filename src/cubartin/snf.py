"""Smith normal form over the integers, with transformation matrices.

Plain list-of-lists integer matrices; everything is exact (python ints).
Used for abelianizations: the cokernel of a relator matrix is read off the
diagonal of its Smith form.
"""

from __future__ import annotations

IntMatrix = list[list[int]]


def identity(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U m V = D, U and V unimodular, d_i | d_{i+1}."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    d = [row[:] for row in m]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):  # row dst += q * row src
        for k in range(cols):
            d[dst][k] += q * d[src][k]
        for k in range(rows):
            u[dst][k] += q * u[src][k]

    def add_col(dst, src, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # pick a pivot of least absolute value in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # clear the row and column; restart if a remainder shrinks the pivot
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(i, t, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(j, t, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        # enforce divisibility d[t][t] | d[i][j] on the remaining block
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if d[i][j] % d[t][t] != 0:
                    add_row(t, i, 1)
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return d, u, v


def diagonal(d: IntMatrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def abelian_invariants(relators: IntMatrix, ngens: int) -> tuple[tuple[int, ...], int]:
    """Invariant factors (>1) and free rank of Z^ngens / row-span(relators)."""
    if not relators:
        return (), ngens
    d, _, _ = smith_normal_form(relators)
    diag = diagonal(d)
    torsion = tuple(x for x in diag if x > 1)
    rank = sum(1 for x in diag if x != 0)
    return torsion, ngens - rank


def in_row_span(relators: IntMatrix, vec: list[int]) -> bool:
    """Whether an integer vector lies in the row lattice of the matrix."""
    if not relators:
        return all(x == 0 for x in vec)
    d, _, v = smith_normal_form(relators)
    cols = len(vec)
    # vec in row-span(m) iff vec @ V is divisible by the diagonal of D
    w = [sum(vec[i] * v[i][j] for i in range(cols)) for j in range(cols)]
    diag = diagonal(d)
    for j in range(cols):
        dj = diag[j] if j < len(diag) else 0
        if dj == 0:
            if w[j] != 0:
                return False
        elif w[j] % dj != 0:
            return False
    return True
