"""Ring arithmetic: axioms, homomorphisms, canonical forms, literals."""
import pytest
from hypothesis import given, settings, strategies as st

from chaink0.rings import (C2, ZZ, GroupRing, LaurentRing, QuadraticRing,
                           RingMismatch, UnsupportedRing, ring_from_descriptor)
from groups import PERMUTATIONS, S3

Q5 = QuadraticRing(-5)
LZ = LaurentRing(ZZ)
LC2 = LaurentRing(C2)


def c2_elems():
    return st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
        lambda ab: C2.from_coords(list(ab)))


def q5_elems():
    return st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
        lambda ab: Q5.from_coords(list(ab)))


def s3_elems():
    return st.lists(st.integers(-9, 9), min_size=6, max_size=6).map(S3.from_coords)


def laurent_elems():
    pair = st.tuples(st.integers(-5, 5), st.integers(-3, 3))

    def build(ps):
        acc = LZ.zero
        for c, e in ps:
            acc = acc + LZ.include(ZZ.from_int(c)) * LZ.t(e)
        return acc

    return st.lists(pair, max_size=4).map(build)


@settings(max_examples=60, deadline=None)
@given(c2_elems(), c2_elems(), c2_elems())
def test_group_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == C2.zero


@settings(max_examples=60, deadline=None)
@given(s3_elems(), s3_elems(), s3_elems())
def test_group_ring_axioms_s3(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + (-a) == S3.zero
    assert a * S3.one == S3.one * a == a


def test_s3_products_compose_permutations():
    for i, p in enumerate(PERMUTATIONS):
        for j, q in enumerate(PERMUTATIONS):
            k = PERMUTATIONS.index(tuple(p[q[x]] for x in range(3)))
            assert S3.generator(i) * S3.generator(j) == S3.generator(k)
    # (0 1)(1 2) != (1 2)(0 1)
    a, b = S3.generator(PERMUTATIONS.index((1, 0, 2))), S3.generator(1)
    assert a * b != b * a


@settings(max_examples=60, deadline=None)
@given(q5_elems(), q5_elems(), q5_elems())
def test_quadratic_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(laurent_elems(), laurent_elems(), laurent_elems())
def test_laurent_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


def test_polynomial_identity():
    t = LZ.t()
    one = LZ.one
    assert (one + t) * (one - t) == one - t * t


def test_quadratic_norm_product():
    s = Q5.from_coords([0, 1])
    one = Q5.one
    assert (one + s) * (one - s) == Q5.from_int(6)


def test_group_inverse():
    g = C2.generator(1)
    assert g * g == C2.one


@settings(max_examples=50, deadline=None)
@given(c2_elems(), c2_elems())
def test_augment_multiplicative(a, b):
    assert C2.augment(a * b) == C2.augment(a) * C2.augment(b)
    assert C2.augment(a + b) == C2.augment(a) + C2.augment(b)


def test_augment_examples():
    # 2g - 3h with g the identity, h the generator
    a = C2.from_coords([2, -3])
    assert C2.augment(a) == -1
    assert C2.augment(C2.zero) == 0
    assert C2.augment(C2.one) == 1


def test_regular_representation_examples():
    assert C2.regular_representation(C2.one) == [[1, 0], [0, 1]]
    assert C2.regular_representation(C2.generator(1)) == [[0, 1], [1, 0]]
    assert Q5.regular_representation(Q5.from_coords([0, 1])) == [[0, -5], [1, 0]]


@settings(max_examples=50, deadline=None)
@given(c2_elems(), c2_elems())
def test_regular_representation_multiplicative(a, b):
    ra, rb = C2.regular_representation(a), C2.regular_representation(b)
    prod = [[sum(ra[i][k] * rb[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert C2.regular_representation(a * b) == prod


@settings(max_examples=50, deadline=None)
@given(s3_elems(), s3_elems())
def test_regular_representation_multiplicative_s3(a, b):
    ra, rb = S3.regular_representation(a), S3.regular_representation(b)
    prod = [[sum(ra[i][k] * rb[k][j] for k in range(6)) for j in range(6)]
            for i in range(6)]
    assert S3.regular_representation(a * b) == prod


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatch):
        ZZ.one + C2.one


@pytest.mark.parametrize("ring", (ZZ, C2, Q5, LZ), ids=repr)
def test_operators_take_ring_elements_only(ring):
    x = ring.one
    for op in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x,
               lambda: x * 2, lambda: 2 * x):
        with pytest.raises(TypeError):
            op()
    assert x != 1 and ring.zero != 0


def test_rings_equal_by_key():
    assert ring_from_descriptor(C2.descriptor()) == C2 and C2 != S3
    assert GroupRing([[0, 1], [1, 0]]) == C2 != GroupRing([[0]])
    assert LaurentRing(GroupRing(C2.table)) == LC2 != LZ
    assert QuadraticRing(-5) == Q5 != QuadraticRing(-1)
    assert len({ZZ, C2, GroupRing(C2.table), Q5, QuadraticRing(-5), LZ, LaurentRing(ZZ)}) == 4


def test_laurent_over_laurent_rejected():
    with pytest.raises(UnsupportedRing):
        LaurentRing(LZ)
    with pytest.raises(UnsupportedRing):
        LaurentRing(Q5)


def test_quadratic_d_validation():
    with pytest.raises(ValueError):
        QuadraticRing(12)  # not squarefree
    with pytest.raises(ValueError):
        QuadraticRing(0)
    with pytest.raises(ValueError):
        QuadraticRing(1)


def test_group_table_validation():
    with pytest.raises(ValueError):
        GroupRing(((0, 1), (1, 1)))  # row not a permutation


@settings(max_examples=40, deadline=None)
@given(c2_elems())
def test_literal_round_trip_c2(a):
    assert C2.parse_literal(C2.literal(a)) == a


@settings(max_examples=40, deadline=None)
@given(s3_elems())
def test_literal_round_trip_s3(a):
    assert S3.parse_literal(S3.literal(a)) == a


@settings(max_examples=40, deadline=None)
@given(laurent_elems())
def test_literal_round_trip_laurent(a):
    assert LZ.parse_literal(LZ.literal(a)) == a


def test_descriptor_round_trip():
    for ring in (ZZ, C2, S3, Q5, LZ, LC2, LaurentRing(S3)):
        assert ring_from_descriptor(ring.descriptor()) == ring
