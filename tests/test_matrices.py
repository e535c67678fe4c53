"""Ring matrices: block assembly, flattening, exact solving, kernels."""
import random

import pytest

from chaink0 import intlinalg as il
from chaink0.matrices import Mat, ShapeError, ring_kernel_coords, solve_linear
from chaink0.rings import (C2, ZZ, GroupRing, LaurentRing, QuadraticRing, RingMismatch,
                           UnsupportedRing, ring_from_descriptor)
from groups import S3

Q5 = QuadraticRing(-5)
C3 = GroupRing([[(i + j) % 3 for j in range(3)] for i in range(3)])
# Both of order four, with different tables.
C4 = GroupRing([[(i + j) % 4 for j in range(4)] for i in range(4)])
V4 = GroupRing([[i ^ j for j in range(4)] for i in range(4)])
# S3 is the one non-abelian group: only it tells g h from h g.
FINITE_RINGS = (ZZ, C2, C3, Q5, S3)
KERNEL_RINGS = FINITE_RINGS + (LaurentRing(ZZ), LaurentRing(C2), LaurentRing(S3))
# (rows of A, cols of A = rows of B, cols of B), empty shapes included.
SHAPES = ((2, 3, 2), (3, 3, 3), (1, 4, 2), (0, 3, 2), (2, 0, 3), (2, 3, 0), (0, 0, 0))


def random_mat(rng, ring, rows, cols, bound=4):
    k = ring.flat_rank
    return Mat(ring, rows, cols,
               [ring.from_coords([rng.randint(-bound, bound) for _ in range(k)])
                for _ in range(rows * cols)])


def test_identity_law():
    rng = random.Random(0)
    for _ in range(20):
        a = random_mat(rng, ZZ, 2, 3)
        assert Mat.identity(ZZ, 2) @ a == a


def test_block_shape_law():
    a, b = Mat.identity(ZZ, 2), Mat.identity(ZZ, 3)
    blk = Mat.block([[a, Mat.zero(ZZ, 2, 3)], [Mat.zero(ZZ, 3, 2), b]])
    assert blk.rows == 5 and blk.cols == 5
    assert blk.is_idempotent()


def test_small_idempotent():
    e = Mat.from_rows(ZZ, [[0, 1], [0, 1]])
    assert e @ e == e


def test_shape_errors():
    with pytest.raises(ShapeError):
        Mat.identity(ZZ, 2) @ Mat.identity(ZZ, 3)
    with pytest.raises(RingMismatch):
        Mat.identity(ZZ, 2) @ Mat.identity(C2, 2)


@pytest.mark.parametrize("build", [lambda: Mat.identity(ZZ, -1), lambda: Mat.zero(ZZ, -1, 2),
                                   lambda: Mat.zero(ZZ, 2, -1)],
                         ids=["identity", "zero-rows", "zero-cols"])
def test_negative_sizes_are_shape_errors(build):
    with pytest.raises(ShapeError, match="negative matrix size"):
        build()


def test_flatten_multiplicative():
    rng = random.Random(1)
    for ring in FINITE_RINGS:
        for _ in range(20):
            a = random_mat(rng, ring, 2, 3)
            b = random_mat(rng, ring, 3, 2)
            assert il.mat_mul(a.flatten(), b.flatten()) == (a @ b).flatten()


def test_solve_linear_integers():
    two = Mat.from_rows(ZZ, [[2]])
    assert solve_linear(two, Mat.from_rows(ZZ, [[4]])) == Mat.from_rows(ZZ, [[2]])
    assert solve_linear(two, Mat.from_rows(ZZ, [[3]])) is None


def test_solve_linear_group_ring_obstruction():
    # (1+g) x = 2 has no solution in Z[C2]: the (1-g)-isotypic part of the
    # right-hand side is nonzero while the left side kills it.
    m = Mat(C2, 1, 1, [C2.from_coords([1, 1])])
    b = Mat(C2, 1, 1, [C2.from_coords([2, 0])])
    assert solve_linear(m, b) is None
    b2 = Mat(C2, 1, 1, [C2.from_coords([1, 1])])
    got = solve_linear(m, b2)
    assert got is not None and m @ got == b2


def brute_force_solve(m, b, box=4):
    ring = m.ring
    coords = range(-box, box + 1)
    assert m.rows == m.cols == 1
    for a in coords:
        for c in coords:
            x = Mat(ring, 1, 1, [ring.from_coords([a, c])])
            if m @ x == b:
                return x
    return None


def test_solve_linear_matches_brute_force():
    rng = random.Random(2)
    for _ in range(100):
        m = random_mat(rng, C2, 1, 1, bound=2)
        b = random_mat(rng, C2, 1, 1, bound=2)
        exact = solve_linear(m, b)
        brute = brute_force_solve(m, b)
        if brute is None:
            # brute search is bounded; exact may still find a larger solution
            if exact is not None:
                assert m @ exact == b
        else:
            assert exact is not None
            assert m @ exact == b


def test_solve_linear_solves_consistent_systems():
    rng = random.Random(5)
    for ring in FINITE_RINGS:
        for _ in range(10):
            m = random_mat(rng, ring, 2, 3, bound=2)
            b = m @ random_mat(rng, ring, 3, 2, bound=2)
            x = solve_linear(m, b)
            assert x is not None and m @ x == b


def test_solve_linear_solves_all_columns_as_each_column():
    rng = random.Random(20)
    outcomes = set()
    for ring in (ZZ, C2, S3, Q5):
        for _ in range(8):
            m = random_mat(rng, ring, 2, 3, bound=2)
            b = random_mat(rng, ring, 2, 3, bound=2)
            if rng.random() < 0.7:
                b = m @ random_mat(rng, ring, 3, 3, bound=2)
            columns = [solve_linear(m, b.submatrix(range(2), [j])) for j in range(3)]
            x = solve_linear(m, b)
            outcomes.add(x is None)
            if None in columns:
                assert x is None
            else:
                assert x == Mat.block([columns]) and m @ x == b
        x = solve_linear(random_mat(rng, ring, 2, 3), Mat.zero(ring, 2, 0))
        assert (x.rows, x.cols) == (3, 0)
    assert outcomes == {True, False}


def test_solve_linear_rejects_laurent():
    lz = LaurentRing(ZZ)
    m = Mat.identity(lz, 1)
    with pytest.raises(UnsupportedRing):
        solve_linear(m, Mat.zero(lz, 1, 1))


def test_ring_kernel_coords():
    rng = random.Random(3)
    for ring in FINITE_RINGS:
        for _ in range(15):
            m = random_mat(rng, ring, 2, 3)
            kernel = ring_kernel_coords(m)
            assert (m @ Mat.from_coord_columns(ring, 3, kernel)).is_zero


def random_elem(rng, ring, bound=3):
    """A random element, zero about a third of the time."""
    if rng.random() < 0.3:
        return ring.zero
    if isinstance(ring, LaurentRing):
        return ring.element([(e, random_elem(rng, ring.base, bound).data)
                             for e in range(-1, 2)])
    return ring.from_coords([rng.randint(-bound, bound) for _ in range(ring.flat_rank)])


def random_entries_mat(rng, ring, rows, cols, zero=False):
    return Mat(ring, rows, cols, [ring.zero if zero else random_elem(rng, ring)
                                  for _ in range(rows * cols)])


def entrywise_product(a, b):
    """A @ B as sums of RingElement products, the reference for the kernel."""
    return Mat(a.ring, a.rows, b.cols,
               [sum((a[i, k] * b[k, j] for k in range(a.cols)), a.ring.zero)
                for i in range(a.rows) for j in range(b.cols)])


@pytest.mark.parametrize("ring", KERNEL_RINGS, ids=repr)
def test_product_kernel_matches_entrywise_products(ring):
    rng = random.Random(f"kernel:{ring!r}")
    for m, n, p in SHAPES:
        for zero in (False, True):
            a = random_entries_mat(rng, ring, m, n, zero)
            b = random_entries_mat(rng, ring, n, p)
            c = random_entries_mat(rng, ring, p, 2)
            ab = a @ b
            assert (ab.rows, ab.cols) == (m, p)
            assert ab == entrywise_product(a, b)
            assert all(x.ring == ring for x in ab.entries)
            assert ab.is_zero == all(x.is_zero for x in ab.entries)
            assert (a @ b) @ c == a @ (b @ c)
            # A matrix with no rows has no column count as an int list, so the
            # flattening identity is compared only where the inner size is > 0.
            if ring in FINITE_RINGS and n:
                assert ab.flatten() == il.mat_mul(a.flatten(), b.flatten())


def test_entries_over_another_ring_rejected():
    with pytest.raises(RingMismatch):
        Mat(ZZ, 1, 2, [ZZ.one, C2.one])
    with pytest.raises(RingMismatch):
        Mat(C4, 1, 1, [V4.one])


def test_product_of_group_rings_of_equal_order_rejected():
    with pytest.raises(RingMismatch):
        Mat.identity(C4, 2) @ Mat.identity(V4, 2)
    # Same raw data, different rings: not equal.
    assert Mat.identity(C4, 2) != Mat.identity(V4, 2)


def test_block_over_mixed_rings_rejected():
    with pytest.raises(RingMismatch):
        Mat.block([[Mat.identity(ZZ, 1), Mat.identity(C2, 1)]])
    with pytest.raises(RingMismatch):
        Mat.block([[Mat.identity(C4, 1)], [Mat.identity(V4, 1)]])


def test_equal_rings_from_different_parses_multiply():
    fresh = ring_from_descriptor(C2.descriptor())
    assert fresh is not C2 and fresh == C2
    rng = random.Random(4)
    a = random_entries_mat(rng, C2, 3, 3)
    b = Mat(fresh, 3, 3, [fresh.from_coords(C2.coords(x)) for x in a.entries])
    assert a == b and a @ b == b @ a == a @ a == b @ b
