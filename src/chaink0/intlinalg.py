"""Exact integer linear algebra: Smith normal form, kernels, solving.

Everything operates on dense lists of lists of Python ints, so there is no
overflow anywhere.  The SNF pivot is always a nonzero entry of minimal
absolute value (ties broken by lowest row, then column), which keeps
intermediate coefficients from exploding on desk-scale inputs.
"""
from __future__ import annotations

from dataclasses import dataclass


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


@dataclass
class SmithNormalForm:
    """U @ M @ V == D with U, V unimodular and D a nonnegative divisor chain."""

    d: list[list[int]]
    u: list[list[int]]
    v: list[list[int]]
    u_inv: list[list[int]]
    v_inv: list[list[int]]

    @property
    def rank(self) -> int:
        return sum(1 for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))
                   if self.d[i][i] != 0)

    def diagonal(self) -> list[int]:
        n = min(len(self.d), len(self.d[0]) if self.d else 0)
        return [self.d[i][i] for i in range(n)]


def smith_normal_form(m: list[list[int]], cols: int | None = None) -> SmithNormalForm:
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    d = [list(r) for r in m]
    u, u_inv = eye(rows), eye(rows)
    v, v_inv = eye(cols), eye(cols)

    def row_add(i, j, q):  # row i += q * row j
        for k in range(cols):
            d[i][k] += q * d[j][k]
        for k in range(rows):
            u[i][k] += q * u[j][k]
        for k in range(rows):
            u_inv[k][j] -= q * u_inv[k][i]

    def col_add(i, j, q):  # col i += q * col j
        for k in range(rows):
            d[k][i] += q * d[k][j]
        for k in range(cols):
            v[k][i] += q * v[k][j]
        for k in range(cols):
            v_inv[j][k] -= q * v_inv[i][k]

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for k in range(rows):
            u_inv[k][i], u_inv[k][j] = u_inv[k][j], u_inv[k][i]

    def col_swap(i, j):
        for k in range(rows):
            d[k][i], d[k][j] = d[k][j], d[k][i]
        for k in range(cols):
            v[k][i], v[k][j] = v[k][j], v[k][i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def row_negate(i):
        for k in range(cols):
            d[i][k] = -d[i][k]
        for k in range(rows):
            u[i][k] = -u[i][k]
        for k in range(rows):
            u_inv[k][i] = -u_inv[k][i]

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

    for i in range(n):
        if d[i][i] < 0:
            row_negate(i)

    return SmithNormalForm(d, u, v, u_inv, v_inv)


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
    rows = len(m)
    n = min(rows, len(m[0]) if rows else 0)
    basis = []
    for j in range(n):
        dj = s.d[j][j]
        if dj != 0:
            basis.append([dj * s.u_inv[i][j] for i in range(rows)])
    return basis

