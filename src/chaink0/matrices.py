"""Dense matrices over the supported rings, plus the lattice flattening that
reduces ring-linear problems to exact integer linear algebra.

Matrices act on column vectors; composition is right-to-left everywhere.
"""
from __future__ import annotations

from . import intlinalg
from .rings import Ring, RingElement, RingMismatch, UnsupportedRing


class ShapeError(ValueError):
    """Matrix dimensions are not conformable."""


class Mat:
    """An immutable rows x cols matrix of RingElements over one ring."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring: Ring, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix size {rows} x {cols}")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries, got {len(entries)}")
        for e in entries:
            if not isinstance(e, RingElement) or e.ring != ring:
                raise RingMismatch("entry over the wrong ring")
        for name, value in zip(Mat.__slots__, (ring, rows, cols, entries)):
            object.__setattr__(self, name, value)

    @classmethod
    def _of(cls, ring: Ring, rows: int, cols: int, entries) -> "Mat":
        """Unchecked: the entries are already rows * cols RingElements over ring."""
        m = object.__new__(cls)
        for name, value in zip(Mat.__slots__, (ring, rows, cols, tuple(entries))):
            object.__setattr__(m, name, value)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("matrices are immutable")

    # --- constructors -----------------------------------------------------
    @classmethod
    def from_rows(cls, ring: Ring, rows_data) -> "Mat":
        """Build from nested lists; plain ints are coerced through the ring."""
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        flat = []
        for r in rows_data:
            if len(r) != cols:
                raise ShapeError("ragged rows")
            for x in r:
                flat.append(x if isinstance(x, RingElement) else ring.from_int(x))
        return cls(ring, rows, cols, flat)

    @classmethod
    def zero(cls, ring: Ring, rows: int, cols: int) -> "Mat":
        if rows < 0 or cols < 0:
            raise ShapeError(f"negative matrix size {rows} x {cols}")
        return cls._of(ring, rows, cols, [ring.zero] * (rows * cols))

    @classmethod
    def identity(cls, ring: Ring, n: int) -> "Mat":
        if n < 0:
            raise ShapeError(f"negative matrix size {n} x {n}")
        z, o = ring.zero, ring.one
        return cls._of(ring, n, n, [o if i == j else z for i in range(n) for j in range(n)])

    @classmethod
    def block(cls, grid) -> "Mat":
        """Glue a grid of blocks with consistent edge dimensions."""
        if not grid or not grid[0]:
            raise ShapeError("empty block grid")
        ring = grid[0][0].ring
        col_widths = [b.cols for b in grid[0]]
        entries = []
        for row_blocks in grid:
            h = row_blocks[0].rows
            for j, b in enumerate(row_blocks):
                if b.ring != ring:
                    raise RingMismatch("blocks over different rings")
                if b.rows != h or b.cols != col_widths[j]:
                    raise ShapeError("inconsistent block dimensions")
            for i in range(h):
                for b in row_blocks:
                    entries.extend(b.entries[i * b.cols:(i + 1) * b.cols])
        return cls._of(ring, sum(rb[0].rows for rb in grid), sum(col_widths), entries)

    @classmethod
    def from_coord_columns(cls, ring: Ring, rows: int, columns) -> "Mat":
        """Unchecked: the rows x len(columns) matrix whose column j has the
        flattened coordinates columns[j], ring.flat_rank integers per entry."""
        k = ring.flat_rank
        return cls._of(ring, rows, len(columns), [ring.from_coords(c[i * k:(i + 1) * k])
                                                  for i in range(rows) for c in columns])

    @classmethod
    def diag(cls, ring: Ring, *blocks) -> "Mat":
        """The block-diagonal matrix of `blocks`; zero-size blocks pad with
        zero rows or columns, and no blocks at all give the 0 x 0 matrix."""
        rows, cols = sum(b.rows for b in blocks), sum(b.cols for b in blocks)
        entries = [ring.zero] * (rows * cols)
        top = left = 0
        for b in blocks:
            if b.ring != ring:
                raise RingMismatch("blocks over different rings")
            for i in range(b.rows):
                at = (top + i) * cols + left
                entries[at:at + b.cols] = b.row(i)
            top, left = top + b.rows, left + b.cols
        return cls._of(ring, rows, cols, entries)

    # --- access -------------------------------------------------------------
    def __getitem__(self, ij) -> RingElement:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def submatrix(self, rows, cols) -> "Mat":
        """The entries at the given row and column indices, in that order."""
        rows, cols = list(rows), list(cols)
        e, w = self.entries, self.cols
        return Mat._of(self.ring, len(rows), len(cols),
                       [e[i * w + j] for i in rows for j in cols])

    # --- arithmetic -----------------------------------------------------
    def __add__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat._of(self.ring, self.rows, self.cols,
                       [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._check_same_shape(other)
        return Mat._of(self.ring, self.rows, self.cols,
                       [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self) -> "Mat":
        return Mat._of(self.ring, self.rows, self.cols, [-a for a in self.entries])

    def __matmul__(self, other: "Mat") -> "Mat":
        """The product on raw ring data, skipping zero entries on both sides."""
        ring = self.ring
        if ring != other.ring:
            raise RingMismatch("matrix product over different rings")
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        mul, add, is_zero = ring._mul, ring._add, ring._is_zero
        b_rows = [[(j, y.data) for j, y in enumerate(other.row(k)) if not is_zero(y.data)]
                  for k in range(self.cols)]
        out = []
        for i in range(self.rows):
            acc = [None] * other.cols
            for x, b_row in zip(self.row(i), b_rows):
                if not is_zero(x.data):
                    for j, y in b_row:
                        p = mul(x.data, y)
                        acc[j] = p if acc[j] is None else add(acc[j], p)
            out.extend(ring.zero if v is None else RingElement(ring, v) for v in acc)
        return Mat._of(ring, self.rows, other.cols, out)

    def scale(self, c: RingElement) -> "Mat":
        return Mat(self.ring, self.rows, self.cols, [c * a for a in self.entries])

    def map_entries(self, fn, ring: Ring | None = None) -> "Mat":
        return Mat(ring or self.ring, self.rows, self.cols,
                   [fn(a) for a in self.entries])

    def _check_same_shape(self, other: "Mat") -> None:
        if self.ring != other.ring:
            raise RingMismatch("matrices over different rings")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError(f"{self.rows}x{self.cols} vs {other.rows}x{other.cols}")

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols and self.ring == other.ring
                and [a.data for a in self.entries] == [b.data for b in other.entries])

    def __hash__(self):
        return hash((self.ring, self.rows, self.cols, self.entries))

    @property
    def is_zero(self) -> bool:
        return all(map(self.ring._is_zero, [a.data for a in self.entries]))

    def is_idempotent(self) -> bool:
        return self.rows == self.cols and (self @ self) == self

    def __repr__(self):
        body = "; ".join(
            ", ".join(self.ring.format(a) for a in self.row(i)) for i in range(self.rows)
        )
        return f"Mat({self.rows}x{self.cols} over {self.ring!r}: [{body}])"

    # --- lattice flattening -----------------------------------------------
    def flatten(self) -> list[list[int]]:
        """Block regular representation: an rows*k x cols*k integer matrix.

        flatten(A) @ coords(x) == coords(A @ x) for ring column vectors x.
        """
        k = self.ring.flat_rank
        if k is None:
            raise UnsupportedRing(f"{self.ring.kind} has no finite flattening")
        out = intlinalg.zeros(self.rows * k, self.cols * k)
        for i in range(self.rows):
            for j in range(self.cols):
                blk = self.ring.regular_representation(self[i, j])
                for a in range(k):
                    row = out[i * k + a]
                    for b in range(k):
                        row[j * k + b] = blk[a][b]
        return out


def solve_linear(m: Mat, rhs: Mat) -> Mat | None:
    """One X with m @ X = rhs over the ring, or None when there is none.

    Every column of rhs, as integer coordinates, is solved against one Smith
    normal form of the integer flattening of m, and X is built from the
    solutions in one step.  Laurent rings are unsupported.
    """
    ring = m.ring
    if rhs.ring != ring:
        raise RingMismatch("right-hand side over the wrong ring")
    if rhs.rows != m.rows:
        raise ShapeError("right-hand side has wrong height")
    snf = intlinalg.smith_normal_form(m.flatten(), m.cols * ring.flat_rank)
    cols = []
    for j in range(rhs.cols):
        x = snf.solve([c for e in rhs.entries[j::rhs.cols] for c in ring.coords(e)])
        if x is None:
            return None
        cols.append(x)
    return Mat.from_coord_columns(ring, m.cols, cols)


def ring_kernel_coords(m: Mat) -> list[list[int]]:
    """Z-basis (in flattened coords) of the ring-column-vector kernel of m."""
    return intlinalg.smith_normal_form(m.flatten(), m.cols * m.ring.flat_rank).kernel_basis()
