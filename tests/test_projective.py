"""Projective modules, K0 classes, witnesses, and the ideal-class oracle."""
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from chaink0 import intlinalg
from chaink0.complexes import ProjComplex, ProjModule
from chaink0.matrices import Mat
from chaink0.projective import (K0Class, StableFreenessWitness,
                                ideal_of_module, ideal_product,
                                k0_class_of_complex, minkowski_bound, principality,
                                quadratic_class_oracle, rank, split_k0,
                                verify_stable_freeness)
from chaink0.rings import C2, ZZ, QuadraticRing

Q5 = QuadraticRing(-5)


def ideal_idempotent():
    """Rank-one idempotent presenting the ideal (2, 1 + sqrt(-5))."""
    return Mat.from_rows(Q5, [[Q5.from_coords([-2, 0]), Q5.from_coords([-1, -1])],
                              [Q5.from_coords([1, -1]), Q5.from_coords([3, 0])]])


def second_ideal_idempotent():
    """Rank-one idempotent presenting the ideal (3, 1 + sqrt(-5))."""
    return Mat.from_rows(Q5, [[Q5.from_coords([-3, 0]), Q5.from_coords([2, -2])],
                              [Q5.from_coords([-1, -1]), Q5.from_coords([4, 0])]])


def test_rank_examples():
    assert rank(ProjModule.free(C2, 3)) == 3
    assert rank(ProjModule(Mat.zero(ZZ, 2, 2))) == 0
    p = ProjModule(ideal_idempotent())
    assert rank(p) == 1
    assert 2 * rank(p) == intlinalg.smith_normal_form(p.idem.flatten()).rank


def test_rank_additive_on_conjugated_sums():
    rng = random.Random(0)
    for _ in range(20):
        # u diag(e1, e2) u^{-1} for a random unimodular u over Z
        e1, e2 = rng.randint(0, 1), rng.randint(0, 1)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        u = Mat.from_rows(ZZ, [[1, a], [b, 1 + a * b]])
        uinv = Mat.from_rows(ZZ, [[1 + a * b, -a], [-b, 1]])
        e = u @ Mat.from_rows(ZZ, [[e1, 0], [0, e2]]) @ uinv
        assert e.is_idempotent()
        p, q = ProjModule(e), ProjModule(Mat.identity(ZZ, 2) - e)
        assert rank(p) == e1 + e2
        assert rank(p) + rank(q) == 2


def test_k0_class_of_complex_parity():
    x = ProjComplex.free_complex(ZZ, 1, [2, 3], [Mat.zero(ZZ, 2, 3)])
    c = k0_class_of_complex(x)
    assert [m.ambient_rank for m in c.plus] == [3]
    assert [m.ambient_rank for m in c.minus] == [2]
    empty = k0_class_of_complex(ProjComplex.zero(ZZ))
    assert not empty.plus and not empty.minus


def test_split_k0_free():
    c = K0Class(ZZ, [ProjModule.free(ZZ, 3)], [ProjModule.free(ZZ, 1)])
    rep = split_k0(c)
    assert rep.chi == 2
    assert not rep.sigma.plus and not rep.sigma.minus
    assert rep.sigma_is_witnessed_zero


def test_split_k0_zero_class():
    rep = split_k0(K0Class(ZZ))
    assert rep.chi == 0 and rep.sigma_is_witnessed_zero


def test_split_k0_ideal():
    p = ProjModule(ideal_idempotent())
    rep = split_k0(K0Class(Q5, [], [p]))
    assert rep.chi == -1
    assert rep.sigma.minus == (p,)
    assert rep.sigma.plus[0].is_free and rank(rep.sigma.plus[0]) == 1
    assert rep.sigma_zero_witness is None


def test_verify_stable_freeness():
    free = ProjModule.free(ZZ, 2)
    assert verify_stable_freeness(free, StableFreenessWitness.trivial(free)).ok
    zero = ProjModule(Mat.zero(ZZ, 1, 1))
    w = StableFreenessWitness(1, 1, Mat.from_rows(ZZ, [[0, 1]]),
                              Mat.from_rows(ZZ, [[0], [1]]))
    assert verify_stable_freeness(zero, w).ok
    # no witness of stabilization gap 1 can exist for a nontrivial class;
    # any claimed one must fail the exact identity check
    p = ProjModule(ideal_idempotent())
    fake = StableFreenessWitness(1, 2, Mat.from_rows(
        Q5, [[1, 0, 0], [0, 1, 0]]), Mat.from_rows(Q5, [[1, 0], [0, 1], [0, 0]]))
    assert not verify_stable_freeness(p, fake).ok


def _four_identity_ok(p, w):
    """The former predicate: both inverse identities plus the two implied ones."""
    ring, m = p.ring, p.ambient_rank
    if (w.iso.rows, w.iso.cols) != (w.b, m + w.a):
        return False
    if (w.iso_inverse.rows, w.iso_inverse.cols) != (m + w.a, w.b):
        return False
    stab = Mat.diag(ring, p.idem, Mat.identity(ring, w.a))
    return (w.iso @ w.iso_inverse == Mat.identity(ring, w.b)
            and w.iso_inverse @ w.iso == stab
            and w.iso @ stab == w.iso
            and stab @ w.iso_inverse == w.iso_inverse)


def _perturbed_witnesses(rng, ring):
    """Valid witnesses of P + R = R^2, P = im([[1, x], [0, 0]]), and
    perturbations that keep one, both or neither inverse identity."""
    x = ring.from_coords([rng.randint(-2, 2) for _ in range(ring.flat_rank)])
    o, z = ring.one, ring.zero
    p = ProjModule(Mat.from_rows(ring, [[o, x], [z, z]]))
    iso = Mat.from_rows(ring, [[o, x, z], [z, z, o]])
    inv = Mat.from_rows(ring, [[o, z], [z, z], [z, o]])
    stab = Mat.diag(ring, p.idem, Mat.identity(ring, 1))
    off = Mat.identity(ring, 3) - stab

    def rand(rows, cols):
        return Mat(ring, rows, cols, [
            ring.from_coords([rng.randint(-1, 1) for _ in range(ring.flat_rank)])
            for _ in range(rows * cols)])

    for _ in range(40):
        g = Mat.from_rows(ring, [[o, rand(1, 1)[0, 0]], [z, o]])
        g_inv = Mat.from_rows(ring, [[o, -g[0, 1]], [z, o]])
        a, b = g @ iso, inv @ g_inv
        kind = rng.randrange(5)
        if kind == 1:
            a = a + rand(2, 3)
        elif kind == 2:
            b = b + rand(3, 2)
        elif kind == 3:
            a = a + rand(2, 3) @ off  # keeps a b = 1 only
        elif kind == 4:
            b = b + off @ rand(3, 2)  # keeps a b = 1 only
        yield p, StableFreenessWitness(1, 2, a, b)


@pytest.mark.parametrize("ring", [ZZ, C2], ids=["integers", "c2"])
def test_two_inverse_identities_decide_like_four(ring):
    verdicts = []
    for p, w in _perturbed_witnesses(random.Random(f"witness:{ring.kind}"), ring):
        ok = verify_stable_freeness(p, w).ok
        assert ok == _four_identity_ok(p, w)
        verdicts.append(ok)
    assert True in verdicts and False in verdicts


def test_oracle_on_the_ring_itself():
    v = quadratic_class_oracle(ProjModule.free(Q5, 1))
    assert v.status == "principal"
    assert Q5.coords(v.generator) == [1, 0]


def test_oracle_non_principal_two():
    v = quadratic_class_oracle(ProjModule(ideal_idempotent()))
    assert v.status == "non_principal"
    assert v.norm == 2 and v.minkowski == 3
    assert v.bound >= v.minkowski


def test_oracle_non_principal_three():
    v = quadratic_class_oracle(ProjModule(second_ideal_idempotent()))
    assert v.status == "non_principal"
    assert v.norm == 3


def test_oracle_inconclusive_below_bound():
    v = quadratic_class_oracle(ProjModule(ideal_idempotent()), bound=1)
    assert v.status == "inconclusive"


def test_ideal_square_has_order_two():
    ideal = ideal_of_module(ProjModule(ideal_idempotent()))
    square = ideal_product(ideal, ideal)
    v = principality(square)
    assert v.status == "principal"
    assert Q5.coords(v.generator) == [2, 0]
    assert v.norm == 4


def test_minkowski_bound_value():
    assert minkowski_bound(Q5) == 3


# pi to 60 decimals, rounded down: a finer enclosure than the one under test.
PI_60 = Fraction(3141592653589793238462643383279502884197169399375105820974944,
                 10 ** 60)


def reference_minkowski(n):
    """The least B with pi^2 B^2 >= 16 n, in exact rationals."""
    r = 16 * n / PI_60 ** 2
    b = math.isqrt(math.floor(r))
    while b * b < r:
        b += 1
    return b


def test_minkowski_bound_is_exact():
    """minkowski_bound only reads ring.d, so every |d| is tried, not just the
    squarefree ones; up to 10^4 it also equals the float formula it replaced."""
    for n in range(1, 10 ** 4 + 1):
        b = minkowski_bound(SimpleNamespace(d=-n))
        assert b == reference_minkowski(n) == math.ceil((2.0 / math.pi) * math.sqrt(4 * n))
    rng = random.Random("minkowski")
    for _ in range(2000):
        n = rng.randint(1, 10 ** rng.randint(5, 12))
        assert minkowski_bound(SimpleNamespace(d=-n)) == reference_minkowski(n)


def test_minkowski_bound_raises_when_pi_cannot_decide():
    # 16|d| lies within about 10^-49 (relative) of pi^2 B^2 for B = 10^25.
    n = math.ceil((PI_60 * 10 ** 25) ** 2 / 16)
    with pytest.raises(ArithmeticError, match="does not decide"):
        minkowski_bound(SimpleNamespace(d=-n))

