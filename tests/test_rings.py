"""Ring arithmetic: axioms, homomorphisms, canonical forms, literals."""
import pytest
from hypothesis import given, settings, strategies as st

from chaink0.rings import (C2, ZZ, GroupRing, LaurentRing, QuadraticRing,
                           RingMismatch, UnsupportedRing, ring_from_descriptor)

Q5 = QuadraticRing(-5)
LZ = LaurentRing(ZZ)
LC2 = LaurentRing(C2)


def c2_elems():
    return st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
        lambda ab: C2.from_coords(list(ab)))


def q5_elems():
    return st.tuples(st.integers(-9, 9), st.integers(-9, 9)).map(
        lambda ab: Q5.from_coords(list(ab)))


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
    s = Q5.sqrt_d()
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
    assert Q5.regular_representation(Q5.sqrt_d()) == [[0, -5], [1, 0]]


@settings(max_examples=50, deadline=None)
@given(c2_elems(), c2_elems())
def test_regular_representation_multiplicative(a, b):
    ra, rb = C2.regular_representation(a), C2.regular_representation(b)
    prod = [[sum(ra[i][k] * rb[k][j] for k in range(2)) for j in range(2)]
            for i in range(2)]
    assert C2.regular_representation(a * b) == prod


def test_ring_mismatch_rejected():
    with pytest.raises(RingMismatch):
        ZZ.one + C2.one


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
@given(laurent_elems())
def test_literal_round_trip_laurent(a):
    assert LZ.parse_literal(LZ.literal(a)) == a


def test_descriptor_round_trip():
    for ring in (ZZ, C2, Q5, LZ, LC2):
        assert ring_from_descriptor(ring.descriptor()) == ring
