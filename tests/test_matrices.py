"""Ring matrices: block assembly, flattening, exact solving, kernels."""
import random

import pytest

from chaink0 import intlinalg as il
from chaink0.matrices import Mat, ShapeError, ring_kernel_coords, solve_linear
from chaink0.rings import C2, ZZ, LaurentRing, QuadraticRing, RingMismatch, UnsupportedRing

Q5 = QuadraticRing(-5)


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


def test_flatten_multiplicative():
    rng = random.Random(1)
    for ring in (ZZ, C2, Q5):
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


def test_solve_linear_rejects_laurent():
    lz = LaurentRing(ZZ)
    m = Mat.identity(lz, 1)
    with pytest.raises(UnsupportedRing):
        solve_linear(m, Mat.zero(lz, 1, 1))


def test_ring_kernel_coords():
    rng = random.Random(3)
    for ring in (ZZ, C2, Q5):
        for _ in range(15):
            m = random_mat(rng, ring, 2, 3)
            for v in ring_kernel_coords(m):
                col = Mat.from_column_coords(ring, v)
                assert (m @ col).is_zero
