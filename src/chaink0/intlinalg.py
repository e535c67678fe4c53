"""Exact integer linear algebra: Smith normal form, kernels, solving.

Everything operates on dense lists of lists of Python ints, so there is no
overflow anywhere.  The SNF pivot is always a nonzero entry of minimal
absolute value (ties broken by lowest row, then column), which keeps
intermediate coefficients from exploding on desk-scale inputs.  The
reduction computes D and records its steps; each transform is built from
that record the first time it is read (see SmithNormalForm).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


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

    Each transform is replayed from the step record when first read: u and
    v_inv as row operations, u_inv and v on the rows of their transposes.
    `homology` reads none of them, `IntegerSolver` reads u and v, and
    `image_basis` reads u_inv.
    """

    d: list[list[int]]
    cols: int
    row_steps: list      # flat i, j, q per step: row i += q * row j, or a swap
    col_steps: list      # the same for columns
    negated: list[int]   # rows negated after every other step

    @cached_property
    def u(self) -> list[list[int]]:
        return _replay(len(self.d), self.row_steps, False, self.negated)

    @cached_property
    def u_inv(self) -> list[list[int]]:
        return [list(c) for c in zip(*_replay(len(self.d), self.row_steps, True,
                                              self.negated))]

    @cached_property
    def v(self) -> list[list[int]]:
        return [list(c) for c in zip(*_replay(self.cols, self.col_steps, False))]

    @cached_property
    def v_inv(self) -> list[list[int]]:
        return _replay(self.cols, self.col_steps, True)

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x)

    def diagonal(self) -> list[int]:
        n = min(len(self.d), len(self.d[0]) if self.d else 0)
        return [self.d[i][i] for i in range(n)]


def smith_normal_form(m: list[list[int]], cols: int | None = None) -> SmithNormalForm:
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
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
        every reduction step, which is what keeps coefficients from exploding.
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
    return SmithNormalForm(d, cols, row_steps, col_steps, negated)


class IntegerSolver:
    """Factored form of a matrix for solving M @ x = b repeatedly."""

    def __init__(self, m: list[list[int]], cols: int | None = None):
        self.rows = len(m)
        self.cols = cols if cols is not None else (len(m[0]) if self.rows else 0)
        self.snf = smith_normal_form(m, self.cols)
        # The non-zero (k, x) of each row of u and v: solve sums over these.
        self._u, self._v = ([[(k, x) for k, x in enumerate(row) if x] for row in t]
                            for t in (self.snf.u, self.snf.v))

    def solve(self, b: list[int]) -> list[int] | None:
        """One solution of M @ x = b over Z, or None."""
        s = self.snf
        ub = [sum(x * b[k] for k, x in row) for row in self._u]
        y = [0] * self.cols
        n = min(self.rows, self.cols)
        for i in range(self.rows):
            if i < n and s.d[i][i] != 0:
                if ub[i] % s.d[i][i] != 0:
                    return None
                y[i] = ub[i] // s.d[i][i]
            elif ub[i] != 0:
                return None
        return [sum(x * y[k] for k, x in row) for row in self._v]

    def kernel_basis(self) -> list[list[int]]:
        """Columns (as vectors) forming a Z-basis of ker(M)."""
        s = self.snf
        n = min(self.rows, self.cols)
        basis = []
        for j in range(self.cols):
            if j >= n or s.d[j][j] == 0:
                basis.append([s.v[i][j] for i in range(self.cols)])
        return basis


def image_basis(m: list[list[int]]) -> list[list[int]]:
    """Vectors forming a Z-basis of the column lattice of M."""
    s = smith_normal_form(m)
    return [[dj * row[j] for row in s.u_inv] for j, dj in enumerate(s.diagonal()) if dj]

