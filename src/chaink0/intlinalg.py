"""Exact integer linear algebra: Smith normal form, kernels, solving.

Everything operates on dense lists of lists of Python ints, so there is no
overflow anywhere.  A Smith normal form answers solve, kernel and image
itself.  Reading its D, diagonal or rank first runs the modular diagonal,
whose entries stay below the determinant of a full-rank minor.  Reading a
transform first, as solve, kernel and image do, runs the exact reduction,
whose minimal pivots do not bound coefficients: transform entries reach
tens of thousands of bits on dense 20 x 20 inputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm


def zeros(rows: int, cols: int) -> list[list[int]]:
    return [[0] * cols for _ in range(rows)]


def eye(n: int) -> list[list[int]]:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = 1
    return m


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    rows, inner = len(a), len(b)
    cols = len(b[0]) if b else 0
    out = zeros(rows, cols)
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            c = ai[k]
            if c:
                bk = b[k]
                for j in range(cols):
                    oi[j] += c * bk[j]
    return out


def _replay(n: int, steps: list, inverse: bool, negated=()) -> list[list[int]]:
    """eye(n) with the flat step record i, j, q, ... replayed as row operations:
    a swap of rows i and j when q is None, else row i += q * row j or, when
    inverse, row j -= q * row i.  The rows in negated are negated last."""
    m = eye(n)
    for i, j, q in zip(*[iter(steps)] * 3):
        if q is None:
            m[i], m[j] = m[j], m[i]
        elif inverse:
            m[j] = [b - q * a for a, b in zip(m[i], m[j])]
        else:
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
    for i in negated:
        m[i] = [-x for x in m[i]]
    return m


@dataclass
class SmithNormalForm:
    """U @ M @ V == D with U, V unimodular and D a nonnegative divisor chain.

    D is the modular diagonal, or the exact reduction's by-product when a
    transform is read first.  Each transform is replayed from the exact
    reduction's step record when first read: u and v_inv as row operations,
    u_inv and v on the rows of their transposes.  `homology` and the rank
    readers read only D; solve, kernel_basis and image_basis each read the
    transforms they need (u and v, v, u_inv) before D.
    """

    m: list[list[int]]
    cols: int

    @cached_property
    def _record(self) -> list:
        """The exact reduction's (row_steps, col_steps, negated); sets _diagonal if unset."""
        diag, *record = _reduce(self.m, self.cols)
        self.__dict__.setdefault("_diagonal", diag)
        return record

    @cached_property
    def _diagonal(self) -> list[int]:
        return _modular_diagonal(self.m, self.cols)

    @cached_property
    def d(self) -> list[list[int]]:
        d = zeros(len(self.m), self.cols)
        for i, x in enumerate(self._diagonal):
            d[i][i] = x
        return d

    @cached_property
    def u(self) -> list[list[int]]:
        return _replay(len(self.m), self._record[0], False, self._record[2])

    @cached_property
    def u_inv(self) -> list[list[int]]:
        return [list(c) for c in zip(*_replay(len(self.m), self._record[0], True,
                                              self._record[2]))]

    @cached_property
    def v(self) -> list[list[int]]:
        return [list(c) for c in zip(*_replay(self.cols, self._record[1], False))]

    @cached_property
    def v_inv(self) -> list[list[int]]:
        return _replay(self.cols, self._record[1], True)

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x)

    def diagonal(self) -> list[int]:
        return list(self._diagonal)

    @cached_property
    def _sparse_uv(self) -> tuple[list, list]:
        """The non-zero (k, x) of each row of u and of v: solve sums over these."""
        return tuple([[(k, x) for k, x in enumerate(row) if x] for row in t]
                     for t in (self.u, self.v))

    def solve(self, b: list[int]) -> list[int] | None:
        """One x with M @ x == b over Z, or None: y = D^-1 (U b), x = V y."""
        u, v = self._sparse_uv
        ub = [sum(x * b[k] for k, x in row) for row in u]
        y = [0] * self.cols
        for i, (c, di) in enumerate(zip_longest(ub, self._diagonal, fillvalue=0)):
            if di and c % di == 0:
                y[i] = c // di
            elif c:
                return None
        return [sum(x * y[k] for k, x in row) for row in v]

    def kernel_basis(self) -> list[list[int]]:
        """The columns of V past the rank, V read first: a Z-basis of ker(M)."""
        return [list(c) for c in zip(*self.v)][self.rank:]

    def image_basis(self) -> list[list[int]]:
        """d_j times column j of U^-1, for each d_j != 0: a Z-basis of M's columns."""
        u_inv = self.u_inv
        return [[dj * row[j] for row in u_inv] for j, dj in enumerate(self._diagonal) if dj]


def smith_normal_form(m: list[list[int]], cols: int | None = None) -> SmithNormalForm:
    cols = cols if cols is not None else (len(m[0]) if m else 0)
    return SmithNormalForm([list(r) for r in m], cols)


def _minor_det(m: list[list[int]], cols: int) -> tuple[int, int]:
    """The rank r of m and |det| of a nonsingular r x r minor (1 when r = 0), by
    fraction-free (Bareiss) elimination: its entries are minors of m."""
    a = [list(row) for row in m if any(row)]
    r, prev = 0, 1
    for c in range(cols):
        i = next((i for i in range(r, len(a)) if a[i][c]), None)
        if i is None:
            continue
        a[r], a[i] = a[i], a[r]
        top, p = a[r], a[r][c]
        for row in a[r + 1:]:
            x = row[c]
            row[c + 1:] = [(p * b - x * q) // prev for b, q in zip(row[c + 1:], top[c + 1:])]
        r, prev = r + 1, p
    return r, abs(prev)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x * a + y * b == g == gcd(a, b), for a >= 0 and b > 0."""
    x = pow(a // (g := gcd(a, b)), -1, b // g)
    return g, x, (g - x * a) // b


def _modular_diagonal(m: list[list[int]], cols: int) -> list[int]:
    """The diagonal of the Smith normal form of m, computed modulo D.

    Let r be the rank and D = |det| of a nonsingular r x r minor.  Each of
    the first r invariant factors of m divides D, so they are also the first
    r invariant factors of [m | D*I], whose column lattice contains D*Z^rows
    (Kannan-Bachem; Domich-Kannan-Trotter).  That lattice is reduced to
    diagonal form with every entry taken modulo D."""
    rows, n = len(m), min(len(m), cols)
    r, det = _minor_det(m, cols)
    if det == 1:  # every invariant factor divides D
        return [1] * r + [0] * (n - r)
    a = [[x % det for x in row] for row in m]
    pivots = []
    for t in range(n):
        best = (det, t, t)  # the pivot: least gcd(x, D) < D, a unit ends the scan
        for i in range(t, rows):
            for j, x in enumerate(a[i][t:], t):
                if x and (h := gcd(x, det)) < best[0]:
                    best = (h, i, j)
            if best[0] == 1:
                break
        if best[0] == det:
            break
        _, i, j = best
        a[t], a[i] = a[i], a[t]
        for row in a[t:]:
            row[t], row[j] = row[j], row[t]
        while True:
            # Column pass: clear column t below the pivot with row operations.
            top, p = a[t], a[t][t]
            unit = pow(p, -1, det) if gcd(p, det) == 1 else None
            for i in range(t + 1, rows):
                row, x = a[i], a[i][t]
                if x and unit is not None:
                    c = x * unit % det
                    row[t:] = [(b - c * q) % det for b, q in zip(row[t:], top[t:])]
                elif x:
                    g, s, u = _xgcd(p, x)
                    a[t] = [(s * q + u * b) % det for q, b in zip(top, row)]
                    a[i] = [(p // g * b - x // g * q) % det for q, b in zip(top, row)]
                    top, p = a[t], g
            # Column t is p * e_t: folding in D * e_t makes the pivot gcd(p, D).
            p = top[t] = gcd(p, det)
            # Row pass: clear row t with column operations.  An xgcd step fills column
            # t again, so the column pass restarts, each time with a lower pivot.
            top[t + 1:] = [y if y % p else 0 for y in top[t + 1:]]
            j = next((j for j in range(t + 1, cols) if top[j]), None)
            if j is None:
                break
            g, s, u = _xgcd(p, top[j])
            top[t], top[j] = g, 0
            for row in a[t + 1:]:
                row[t], row[j] = u * row[j] % det, p // g * row[j] % det
        pivots.append(p)
    # Pivots padded with D, sorted by pairwise gcd/lcm: the first r are m's factors.
    diag = pivots + [det] * (rows - len(pivots))
    for i in range(r):
        for j in range(i + 1, len(diag)):
            diag[i], diag[j] = gcd(diag[i], diag[j]), lcm(diag[i], diag[j])
    return diag[:r] + [0] * (n - r)


def _reduce(m: list[list[int]], cols: int) -> tuple:
    """The exact reduction: (D's diagonal, row_steps, col_steps, negated)."""
    rows = len(m)
    d = [list(r) for r in m]
    row_steps, col_steps = [], []

    def row_add(i, j, q):  # row i += q * row j
        d[i] = [a + q * b for a, b in zip(d[i], d[j])]
        row_steps.extend((i, j, q))

    def col_add(i, j, q):  # col i += q * col j
        for k in range(rows):
            d[k][i] += q * d[k][j]
        col_steps.extend((i, j, q))

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        row_steps.extend((i, j, None))

    def col_swap(i, j):
        for k in range(rows):
            d[k][i], d[k][j] = d[k][j], d[k][i]
        col_steps.extend((i, j, None))

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                a = abs(d[i][j])
                if a and (best is None or a < best[0]):
                    best = (a, i, j)
                    if a == 1:
                        return best
        return best

    n = min(rows, cols)

    def diagonalize(start: int) -> None:
        """Clear the trailing block so d is diagonal from position start on.

        The pivot is re-selected as the globally minimal nonzero entry after
        every reduction step.
        """
        t = start
        while t < n:
            piv = find_pivot(t)
            if piv is None:
                break
            _, pi, pj = piv
            if pi != t:
                row_swap(t, pi)
            if pj != t:
                col_swap(t, pj)
            p = d[t][t]
            # One remainder step against the minimal pivot, then re-pivot.
            stepped = False
            for i in range(t + 1, rows):
                if d[i][t] % p:
                    row_add(i, t, -(d[i][t] // p))
                    stepped = True
                    break
            if not stepped:
                for j in range(t + 1, cols):
                    if d[t][j] % p:
                        col_add(j, t, -(d[t][j] // p))
                        stepped = True
                        break
            if stepped:
                continue
            # Pivot divides its whole row and column: clear them exactly.
            for i in range(t + 1, rows):
                if d[i][t]:
                    row_add(i, t, -(d[i][t] // p))
            for j in range(t + 1, cols):
                if d[t][j]:
                    col_add(j, t, -(d[t][j] // p))
            t += 1

    diagonalize(0)

    # Enforce the divisibility chain d1 | d2 | ... by folding an offending
    # diagonal entry into row t and re-diagonalizing the trailing block.
    t = 0
    while t < n - 1:
        if d[t][t] != 0 and any(d[j][j] % d[t][t] for j in range(t + 1, n)):
            j = next(j for j in range(t + 1, n) if d[j][j] % d[t][t])
            row_add(t, j, 1)
            diagonalize(t)
        else:
            t += 1

    negated = [i for i in range(n) if d[i][i] < 0]
    for i in negated:
        d[i] = [-x for x in d[i]]
    return [d[i][i] for i in range(n)], row_steps, col_steps, negated
