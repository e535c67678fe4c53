"""Exact arithmetic in the supported coefficient rings.

Four rings are supported: the integers, group rings Z[G] for a finite group
given by an explicit multiplication table, Laurent extensions R[t, t^-1] of
the first two, and imaginary quadratic rings Z[sqrt(d)] with d < 0 squarefree.
All coefficients are arbitrary-precision integers; no operation ever divides.

Elements are immutable and kept in canonical form, so equality is
structural: an integer is an int, an element of Z[G] or Z[sqrt(d)] is the
tuple of its integer coordinates, and a Laurent element is the sorted tuple
of its (exponent, base data) terms with nonzero base data.
"""
from __future__ import annotations

import operator
import re
from functools import cached_property


class RingMismatch(ValueError):
    """Operands belong to different rings."""


class UnsupportedRing(ValueError):
    """The operation is not defined over this ring."""


def _is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        while n % p == 0:
            n //= p
        p += 1
    return True


class RingElement:
    """A canonical element of one of the supported rings.

    Arithmetic is delegated to the owning ring and takes ring elements only;
    mixing rings raises RingMismatch.
    """

    __slots__ = ("ring", "data")

    def __init__(self, ring: "Ring", data):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("ring elements are immutable")

    def _same_ring(self, other) -> bool:
        if not isinstance(other, RingElement):
            return False
        if other.ring != self.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")
        return True

    def __add__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.data, other.data))

    def __sub__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return RingElement(self.ring, self.ring._add(self.data, self.ring._neg(other.data)))

    def __mul__(self, other):
        if not self._same_ring(other):
            return NotImplemented
        return RingElement(self.ring, self.ring._mul(self.data, other.data))

    def __neg__(self):
        return RingElement(self.ring, self.ring._neg(self.data))

    def __eq__(self, other):
        if not isinstance(other, RingElement):
            return NotImplemented
        return self.ring == other.ring and self.data == other.data

    def __hash__(self):
        return hash((self.ring, self.data))

    @property
    def is_zero(self) -> bool:
        return self.ring._is_zero(self.data)

    def __repr__(self):
        return f"<{self.ring.kind} {self.ring.format(self)}>"


class Ring:
    """Descriptor of a coefficient ring; also the factory for its elements.

    Each ring provides from_int, the raw-data arithmetic _add, _mul, _neg and
    _is_zero, literal (a JSON-compatible value that parse_literal reads back
    bit-exactly), format and descriptor.  Two rings are equal exactly when
    their keys are.
    """

    kind: str = ""
    key: tuple = ()
    # flat_rank is the rank of the ring as a Z-lattice; None when unbounded.
    flat_rank: int | None = None

    def __eq__(self, other):
        return self is other or (isinstance(other, Ring) and self.key == other.key)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self.key)

    @cached_property
    def zero(self) -> RingElement:
        return self.from_int(0)

    @cached_property
    def one(self) -> RingElement:
        return self.from_int(1)

    # --- integer-lattice structure --------------------------------------
    def coords(self, a: RingElement) -> list[int]:
        """Coordinates of a on the canonical integer basis."""
        raise UnsupportedRing(f"{self.kind} has no finite integer basis")

    def from_coords(self, v: list[int]) -> RingElement:
        raise UnsupportedRing(f"{self.kind} has no finite integer basis")

    def regular_representation(self, a: RingElement) -> list[list[int]]:
        """Matrix of left multiplication by a on the canonical basis."""
        raise UnsupportedRing(f"{self.kind} has no finite regular representation")


_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


class IntegerRing(Ring):
    """Z; an element's data is a plain int."""

    kind = "integers"
    key = ("integers",)
    flat_rank = 1

    def from_int(self, n: int) -> RingElement:
        return RingElement(self, n)

    def _add(self, x, y):
        return x + y

    def _mul(self, x, y):
        return x * y

    def _neg(self, x):
        return -x

    def _is_zero(self, x):
        return x == 0

    def coords(self, a):
        return [a.data]

    def from_coords(self, v):
        return RingElement(self, v[0])

    def regular_representation(self, a):
        return [[a.data]]

    def literal(self, a):
        return str(a.data)

    def parse_literal(self, lit):
        # Only the strings literal() writes, so the round trip is bit-exact.
        if not isinstance(lit, str) or not _DECIMAL.fullmatch(lit):
            raise ValueError(f"not a canonical decimal integer literal: {lit!r}")
        return RingElement(self, int(lit))

    def format(self, a):
        return str(a.data)

    def descriptor(self):
        return {"kind": "integers"}

    def __repr__(self):
        return "Z"


ZZ = IntegerRing()


class _LatticeRing(Ring):
    """A ring that is a free Z-module of rank flat_rank whose first basis
    vector is 1; an element's data is the tuple of its coordinates."""

    def from_int(self, n):
        return RingElement(self, (n,) + (0,) * (self.flat_rank - 1))

    def _add(self, x, y):
        return tuple(map(operator.add, x, y))

    def _neg(self, x):
        return tuple(map(operator.neg, x))

    def _is_zero(self, x):
        return not any(x)

    def coords(self, a):
        return list(a.data)

    def from_coords(self, v):
        return RingElement(self, tuple(v))


class GroupRing(_LatticeRing):
    """Z[G] for a finite group given by a multiplication table on indices.

    table[i][j] is the index of g_i * g_j; index 0 must be the identity.
    An element's data is its coefficients on g_0, ..., g_(n-1).
    """

    kind = "group_ring"

    def __init__(self, table):
        self.table = tuple(tuple(_json_int(g) for g in row) for row in table)
        self.order = len(self.table)
        self._validate_table()
        self.flat_rank = self.order
        self.key = ("group_ring", self.table)

    def _validate_table(self):
        n = self.order
        idx = set(range(n))
        for row in self.table:
            if len(row) != n or set(row) != idx:
                raise ValueError("multiplication table rows must be permutations")
        for j in range(n):
            if {self.table[i][j] for i in range(n)} != idx:
                raise ValueError("multiplication table columns must be permutations")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("index 0 must be the group identity")
        for i in range(n):
            if 0 not in self.table[i]:
                raise ValueError(f"element {i} has no inverse")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.table[self.table[a][b]][c] != self.table[a][self.table[b][c]]:
                        raise ValueError("multiplication table is not associative")

    def _from_terms(self, terms) -> RingElement:
        """The sum of coeff * g_index over (index, coeff) pairs."""
        v = [0] * self.order
        for i, c in terms:
            if not (0 <= i < self.order):
                raise ValueError(f"group index {i} out of range")
            v[i] += c
        return RingElement(self, tuple(v))

    def generator(self, idx: int) -> RingElement:
        return self._from_terms([(idx, 1)])

    def _mul(self, x, y):
        acc = [0] * self.order
        ys = [(j, d) for j, d in enumerate(y) if d]
        for row, c in zip(self.table, x):
            if c:
                for j, d in ys:
                    acc[row[j]] += c * d
        return tuple(acc)

    def regular_representation(self, a):
        m = [[0] * self.order for _ in range(self.order)]
        for row, c in zip(self.table, a.data):
            if c:
                for k, i in enumerate(row):
                    m[i][k] += c
        return m

    def augment(self, a: RingElement) -> int:
        return sum(a.data)

    def literal(self, a):
        return [[c, i] for i, c in enumerate(a.data) if c]

    def parse_literal(self, lit):
        if not isinstance(lit, list):
            raise ValueError("group ring literal must be a list of [coeff, index]")
        return self._from_terms([(_json_int(i), _json_int(c)) for c, i in lit])

    def format(self, a):
        return " + ".join(f"{c}*g{i}" for i, c in enumerate(a.data) if c) or "0"

    def descriptor(self):
        return {"kind": "group_ring", "table": [list(r) for r in self.table]}

    def __repr__(self):
        return f"Z[G{self.order}]"


class LaurentRing(Ring):
    """R[t, t^-1] over an integer or group-ring base.

    Elements are sorted tuples of (exponent, base_data) with nonzero base
    coefficients.  There is no finite integer basis, so the lattice-flattening
    operations are unsupported here.
    """

    kind = "laurent"
    flat_rank = None

    def __init__(self, base: Ring):
        if not isinstance(base, (IntegerRing, GroupRing)):
            raise UnsupportedRing(
                "Laurent base must be the integers or a group ring")
        self.base = base
        self.key = ("laurent", base)

    def element(self, data) -> RingElement:
        return RingElement(self, self._canon(data))

    def _canon(self, data):
        """Sum the (exponent, base_data) terms of each exponent; drop zeros."""
        acc: dict[int, object] = {}
        for exp, bd in data:
            cur = acc.get(exp)
            acc[exp] = self.base._add(cur, bd) if cur is not None else bd
        return tuple(
            sorted((e, bd) for e, bd in acc.items() if not self.base._is_zero(bd))
        )

    def from_int(self, n):
        return self.include(self.base.from_int(n))

    def t(self, exp: int = 1) -> RingElement:
        return RingElement(self, ((exp, self.base.one.data),))

    def include(self, a: RingElement) -> RingElement:
        """The canonical inclusion of the base ring as Laurent constants."""
        if a.ring != self.base:
            raise RingMismatch("element is not over the Laurent base")
        return RingElement(self, () if a.is_zero else ((0, a.data),))

    def _add(self, x, y):
        return self._canon(x + y)

    def _mul(self, x, y):
        return self._canon([(e1 + e2, self.base._mul(b1, b2))
                            for e1, b1 in x for e2, b2 in y])

    def _neg(self, x):
        return tuple((e, self.base._neg(bd)) for e, bd in x)

    def _is_zero(self, x):
        return x == ()

    def literal(self, a):
        return [[self.base.literal(RingElement(self.base, bd)), e] for e, bd in a.data]

    def parse_literal(self, lit):
        if not isinstance(lit, list):
            raise ValueError("Laurent literal must be a list of [base-literal, exponent]")
        return self.element(
            [(_json_int(e), self.base.parse_literal(bl).data) for bl, e in lit]
        )

    def format(self, a):
        if not a.data:
            return "0"
        return " + ".join(
            f"({self.base.format(RingElement(self.base, bd))})t^{e}" for e, bd in a.data
        )

    def descriptor(self):
        return {"kind": "laurent", "base": self.base.descriptor()}

    def __repr__(self):
        return f"{self.base!r}[t,t^-1]"


class QuadraticRing(_LatticeRing):
    """Z[sqrt(d)] for squarefree d < 0; data (a, b) is a + b*sqrt(d).

    The restriction to imaginary d keeps the norm form positive definite, so
    principality testing by bounded norm enumeration terminates.
    """

    kind = "quadratic"
    flat_rank = 2

    def __init__(self, d: int):
        if _json_int(d) >= 0:
            raise ValueError("only imaginary quadratic rings (d < 0) are supported")
        if d == 1 or not _is_squarefree(d):
            raise ValueError("d must be squarefree and != 0, 1")
        self.d = d
        self.key = ("quadratic", d)

    def _mul(self, x, y):
        a, b = x
        c, e = y
        return (a * c + self.d * b * e, a * e + b * c)

    def regular_representation(self, a):
        x, y = a.data
        return [[x, self.d * y], [y, x]]

    def literal(self, a):
        return list(a.data)

    def parse_literal(self, lit):
        if not isinstance(lit, list) or len(lit) != 2:
            raise ValueError("quadratic literal must be [a, b]")
        return RingElement(self, (_json_int(lit[0]), _json_int(lit[1])))

    def format(self, a):
        return f"{a.data[0]} + {a.data[1]}*sqrt({self.d})"

    def descriptor(self):
        return {"kind": "quadratic", "d": self.d}

    def __repr__(self):
        return f"Z[sqrt({self.d})]"


def _json_int(x) -> int:
    """x when it is an integer and not a boolean; ValueError otherwise."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


# The largest group order a descriptor may give: table validation is cubic in it.
MAX_GROUP_ORDER = 128


def ring_from_descriptor(desc: dict) -> Ring:
    if not isinstance(desc, dict):
        raise ValueError("ring descriptor must be a JSON object")
    kind = desc.get("kind")
    if kind == "integers":
        return ZZ
    if kind == "group_ring":
        if (order := len(desc["table"])) > MAX_GROUP_ORDER:
            raise ValueError(f"group order must be at most {MAX_GROUP_ORDER}, got {order}")
        return GroupRing(desc["table"])
    if kind == "laurent":
        return LaurentRing(ring_from_descriptor(desc["base"]))
    if kind == "quadratic":
        return QuadraticRing(desc["d"])
    raise ValueError(f"unknown ring kind: {kind!r}")


# The cyclic group of order two, used throughout the tests and fixtures.
C2 = GroupRing(((0, 1), (1, 0)))
