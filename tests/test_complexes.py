"""Complexes, chain maps, homotopies, cones, and lattice homology."""
import math
import random
import time

import pytest

from chaink0 import intlinalg
from chaink0.complexes import (ChainMap, Homotopy, ProjComplex, ProjModule,
                               _inside, direct_sum, homology, mapping_cone,
                               shift, tensor_with_laurent, validate_complex,
                               verify_chain_map, verify_homotopy)
from chaink0.constructions import swindle_prefix
from chaink0.corpus import random_free_complex
from chaink0.matrices import Mat, ShapeError
from chaink0.rings import C2, ZZ, QuadraticRing, RingMismatch, UnsupportedRing
from chaink0.verdicts import VerificationFailed
from groups import S3
from test_constructions import conjugated_idempotent
from test_instant import unimodular

Q5 = QuadraticRing(-5)


def circle():
    return ProjComplex.free_complex(ZZ, 0, [1, 1], [Mat.from_rows(ZZ, [[0]])])


def cone_point():
    return ProjComplex.free_complex(ZZ, 0, [1, 1], [Mat.from_rows(ZZ, [[1]])])


def test_validate_complex():
    assert validate_complex(circle()).ok
    assert validate_complex(cone_point()).ok
    bad = ProjComplex.free_complex(
        ZZ, 0, [1, 1, 1], [Mat.from_rows(ZZ, [[1]]), Mat.from_rows(ZZ, [[1]])])
    rep = validate_complex(bad)
    assert not rep.ok
    assert any(v.code == "complex.dd_nonzero" and v.degree == 2
               for v in rep.violations)


def test_a_free_module_of_negative_rank_is_a_shape_error():
    with pytest.raises(ShapeError, match="negative matrix size"):
        ProjModule.free(ZZ, -1)


def _seeded_modules(rng, ring, n):
    """The free module of rank n and g D g^-1 for a seeded unimodular g and
    a diagonal D of zeros and ones."""
    g, g_inv = unimodular(rng, ring, n)
    diag = Mat(ring, n, n, [ring.from_int(rng.randint(0, 1)) if r == c else ring.zero
                            for r in range(n) for c in range(n)])
    return [ProjModule.free(ring, n), ProjModule(g @ diag @ g_inv)]


@pytest.mark.parametrize("ring", [ZZ, C2], ids=["integers", "c2"])
@pytest.mark.parametrize("seed", range(4))
def test_inside_agrees_with_the_full_sandwich(seed, ring):
    rng = random.Random(f"inside:{seed}")
    outcomes = set()
    for _ in range(3):
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        for out in _seeded_modules(rng, ring, rows):
            for into in _seeded_modules(rng, ring, cols):
                y = Mat(ring, rows, cols, [
                    ring.from_coords([rng.randint(-3, 3) for _ in range(ring.flat_rank)])
                    for _ in range(rows * cols)])
                for x in (y, out.idem @ y, y @ into.idem, out.idem @ y @ into.idem):
                    full = out.idem @ x @ into.idem == x
                    assert _inside(out, x, into) == full
                    outcomes.add(full)
    assert outcomes == {True, False}


def test_verify_chain_map():
    c = circle()
    assert verify_chain_map(ChainMap.identity(c)).ok
    assert verify_chain_map(ChainMap.zero(c, cone_point())).ok
    broken = ChainMap(c, cone_point(), {1: Mat.from_rows(ZZ, [[1]])})
    rep = verify_chain_map(broken)
    assert not rep.ok


def test_verify_homotopy():
    c = cone_point()
    ident, zero = ChainMap.identity(c), ChainMap.zero(c, c)
    assert verify_homotopy(Homotopy.zero(c), ident, ident).ok
    contraction = Homotopy(c, c, {0: Mat.from_rows(ZZ, [[1]])})
    assert verify_homotopy(contraction, ident, zero).ok
    wrong = Homotopy(c, c, {0: Mat.from_rows(ZZ, [[2]])})
    assert not verify_homotopy(wrong, ident, zero).ok


@pytest.mark.parametrize("cls, part, plural", [
    (ChainMap, "component 0", "chain maps"),
    (Homotopy, "homotopy component 0", "homotopies"),
], ids=["chain-map", "homotopy"])
def test_graded_map_checks_rings_and_shapes(cls, part, plural):
    """Both kinds of graded map reject a component over another ring, here a
    Z[C2] component on a Z complex, and keep their messages."""
    c = cone_point()
    with pytest.raises(RingMismatch, match=f"^{part} over the wrong ring$"):
        cls(c, c, {0: Mat.identity(C2, 1)})
    with pytest.raises(ShapeError, match=f"^{part} has shape 2x1$"):
        cls(c, c, {0: Mat.zero(ZZ, 2, 1)})
    with pytest.raises(AttributeError, match=f"^{plural} are immutable$"):
        cls.zero(c, c).components = {}


def test_homology_circle():
    h = homology(circle())
    assert h.at(0) == (1, ()) and h.at(1) == (1, ())


def test_homology_mod_two():
    x = ProjComplex.free_complex(ZZ, 0, [1, 1], [Mat.from_rows(ZZ, [[2]])])
    h = homology(x)
    assert h.at(0) == (0, (2,)) and h.at(1) == (0, ())


def test_homology_projective_plane():
    rp2 = ProjComplex.free_complex(
        ZZ, 0, [1, 1, 1], [Mat.from_rows(ZZ, [[0]]), Mat.from_rows(ZZ, [[2]])])
    h = homology(rp2)
    assert h.at(0) == (1, ())
    assert h.at(1) == (0, (2,))
    assert h.at(2) == (0, ())


def test_homology_inside_idempotent_image():
    e = Mat.from_rows(Q5, [[Q5.from_coords([-2, 0]), Q5.from_coords([-1, -1])],
                           [Q5.from_coords([1, -1]), Q5.from_coords([3, 0])]])
    x = ProjComplex(Q5, 0, [ProjModule(e)], [])
    assert homology(x).at(0) == (2, ())  # ideal lattice has Z-rank two


def _split_line(ring):
    """[[1, x], [0, 0]]: an idempotent other than 1 whose image is a line in R^2."""
    x = ring.from_coords([0, 1]) if ring is C2 else ring.from_int(1)
    return Mat.from_rows(ring, [[ring.one, x], [ring.zero, ring.zero]])


@pytest.mark.parametrize("ring", [ZZ, C2], ids=["integers", "c2"])
def test_homology_counts_the_trace_of_the_idempotent(ring):
    # The ambient R^2 has Z-rank 2k; the summand has Z-rank k = trace(e).
    e = _split_line(ring)
    k = ring.flat_rank
    alone = ProjComplex(ring, 0, [ProjModule(e)], [])
    assert homology(alone).at(0) == (k, ())
    two = e.scale(ring.from_int(2))
    x = ProjComplex(ring, 0, [ProjModule(e)] * 2, [two])
    assert homology(x).at(0) == (0, (2,) * k) and homology(x).at(1) == (0, ())
    zero = ProjComplex(ring, 0, [ProjModule(e)] * 2, [Mat.zero(ring, 2, 2)])
    assert homology(zero).at(0) == (k, ()) and homology(zero).at(1) == (k, ())


def test_homology_inside_a_c2_summand_with_norm_boundary():
    # d = (1 + g) e: on Z[C2] multiplication by 1 + g has rank 1 and a
    # torsion-free cokernel, so H0 = Z and H1 = Z (spanned by (1 - g) e).
    e = _split_line(C2)
    d = e.scale(C2.from_coords([1, 1]))
    x = ProjComplex(C2, 3, [ProjModule(e)] * 2, [d])
    assert homology(x).at(3) == (1, ()) and homology(x).at(4) == (1, ())


def _count_snf(monkeypatch):
    calls = []
    real = intlinalg.smith_normal_form

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(intlinalg, "smith_normal_form", counting)
    return calls


def test_homology_runs_one_smith_normal_form_per_boundary(monkeypatch):
    """One Smith normal form and one flatten per distinct boundary object:
    a swindle prefix alternates two objects at any window, and two equal
    boundaries that are distinct objects are still reduced twice."""
    rng = random.Random(12)
    dense = Mat.from_rows(ZZ, [[rng.randint(-9, 9) for _ in range(12)]
                               for _ in range(12)])
    rank = intlinalg.smith_normal_form(dense.flatten()).rank
    calls = _count_snf(monkeypatch)
    flattened = []
    real_flatten = Mat.flatten
    monkeypatch.setattr(Mat, "flatten",
                        lambda m: flattened.append(m) or real_flatten(m))
    h = homology(ProjComplex.free_complex(ZZ, 0, [12, 12], [dense]))
    assert len(calls) == len(flattened) == 1
    assert h.betti(0) == h.betti(1) == 12 - rank
    for window in (5, 64):
        swindle = swindle_prefix(ProjModule(_split_line(C2)), window)
        del calls[:], flattened[:]
        h = homology(swindle)
        assert len(swindle.boundaries) == window
        assert len(calls) == len(flattened) == 2
        assert h.at(0) == (2, ()) and h.at(1) == (0, ())
    square_zero = Mat.from_rows(ZZ, [[0, 1], [0, 0]])
    twin = _fresh(square_zero)
    assert twin == square_zero and twin is not square_zero
    del calls[:], flattened[:]
    h = homology(ProjComplex.free_complex(ZZ, 0, [2, 2, 2], [square_zero, twin]))
    assert len(calls) == len(flattened) == 2
    assert h.at(0) == h.at(2) == (1, ()) and h.at(1) == (0, ())


def _fresh(m):
    return Mat._of(m.ring, m.rows, m.cols, m.entries)


def _fresh_copy(x):
    """x with every boundary and module a new object, so that no memo keyed
    by object hits: each degree is reduced and checked on its own."""
    copy = ProjComplex(x.ring, x.bottom_degree,
                       [ProjModule(_fresh(p.idem)) for p in x.modules],
                       [_fresh(d) for d in x.boundaries])
    assert len({id(d) for d in copy.boundaries}) == len(copy.boundaries)
    assert len({id(p.idem) for p in copy.modules}) == len(copy.modules)
    return copy


@pytest.mark.parametrize("ring", [ZZ, C2, S3], ids=["integers", "c2", "s3"])
def test_swindle_homology_and_validation_match_a_fresh_copy(ring):
    """The memos by object change no result: a swindle prefix, whose boundaries
    and modules repeat, reports what its copy without repeats reports."""
    rng = random.Random(f"fresh-swindle:{ring.kind}")
    modules = [ProjModule(conjugated_idempotent(rng, ring, m)) for m in (1, 2, 3)]
    for p in modules:
        for n in (*range(1, 9), 64):
            x = swindle_prefix(p, n)
            copy = _fresh_copy(x)
            assert homology(x) == homology(copy)
            assert validate_complex(x).as_dict() == validate_complex(copy).as_dict()


def _one_shared(*boundaries):
    ranks = [1] * (len(boundaries) + 1)
    return ProjComplex.free_complex(ZZ, 0, ranks, boundaries)


@pytest.mark.parametrize("x, failing", [
    # one [[1]] object as all three boundaries: d d != 0 at degrees 2 and 3
    (_one_shared(*[Mat.from_rows(ZZ, [[1]])] * 3), [2, 3]),
    # the same d followed by itself, then by 0: only the first pair fails
    (_one_shared(*[Mat.from_rows(ZZ, [[1]])] * 2, Mat.zero(ZZ, 1, 1)), [2]),
], ids=["three", "then-zero"])
def test_a_shared_boundary_is_reported_at_every_failing_degree(x, failing):
    rep = validate_complex(x)
    assert [v.degree for v in rep.violations if v.code == "complex.dd_nonzero"] == failing
    assert rep.as_dict() == validate_complex(_fresh_copy(x)).as_dict()


def test_homology_reads_the_trace_of_each_idempotent():
    """Modules of one ambient rank with different idempotents: each trace is
    its own, whichever module shares a rank with it."""
    half = ProjModule(_split_line(ZZ))
    free = ProjModule.free(ZZ, 2)
    zero = Mat.zero(ZZ, 2, 2)
    for mods in ([free, half, free], [half, free, half]):
        h = homology(ProjComplex(ZZ, 0, mods, [zero, zero]))
        assert [h.betti(n) for n in range(3)] == [2 if p is free else 1 for p in mods]
        assert h == homology(_fresh_copy(ProjComplex(ZZ, 0, mods, [zero, zero])))


def test_homology_builds_no_transform(monkeypatch):
    """homology reads only the diagonal, which comes from the modular path:
    the exact reduction never runs, so no step record is built or replayed."""
    rng = random.Random(12)
    dense = Mat.from_rows(ZZ, [[rng.randint(-9, 9) for _ in range(12)]
                               for _ in range(12)])
    swindle = swindle_prefix(ProjModule(_split_line(C2)), 5)

    def forbidden(*args, **kwargs):
        raise AssertionError("homology built a Smith normal form transform")

    monkeypatch.setattr(intlinalg, "_replay", forbidden)
    monkeypatch.setattr(intlinalg, "_reduce", forbidden)
    rank = intlinalg.smith_normal_form(dense.flatten()).rank
    h = homology(ProjComplex.free_complex(ZZ, 0, [12, 12], [dense]))
    assert h.betti(0) == h.betti(1) == 12 - rank
    h = homology(swindle)
    assert h.at(0) == (2, ()) and h.at(1) == (0, ())


def bareiss_abs_det(m):
    """|det m| by fraction-free elimination with row pivoting."""
    a, prev = [list(row) for row in m], 1
    for k in range(len(a)):
        i = next((i for i in range(k, len(a)) if a[i][k]), None)
        if i is None:
            return 0
        a[k], a[i] = a[i], a[k]
        for row in a[k + 1:]:
            row[k + 1:] = [(a[k][k] * x - row[k] * y) // prev
                           for x, y in zip(row[k + 1:], a[k][k + 1:])]
        prev = a[k][k]
    return abs(prev)


def test_dense_48_homology_is_fast_and_exact():
    """The torsion of H_0 of Z^48 --d--> Z^48 is the Smith diagonal of d, so
    its product is |det d|."""
    rng = random.Random(48)
    d = Mat.from_rows(ZZ, [[rng.randint(-9, 9) for _ in range(48)] for _ in range(48)])
    det = bareiss_abs_det(d.flatten())
    assert det > 1
    start = time.perf_counter()
    h = homology(ProjComplex.free_complex(ZZ, 0, [48, 48], [d]))
    assert time.perf_counter() - start < 2
    betti, torsion = h.at(0)
    assert betti == h.betti(1) == 0
    assert math.prod(torsion) == det


def test_homology_rejects_laurent():
    with pytest.raises(UnsupportedRing):
        homology(tensor_with_laurent(circle()))


def test_cone_of_identity_is_acyclic():
    rng = random.Random(4)
    for ring in (ZZ, C2):
        for _ in range(50):
            x = random_free_complex(rng, ring)
            cone = mapping_cone(ChainMap.identity(x))
            assert validate_complex(cone).ok
            assert not homology(cone).groups


def test_cone_of_zero_shifts():
    x = circle()
    cone = mapping_cone(ChainMap.zero(x, ProjComplex.zero(ZZ)))
    h = homology(cone)
    assert h.at(1) == (1, ()) and h.at(2) == (1, ())


def test_cone_of_multiplication():
    pt = ProjComplex.free_complex(ZZ, 0, [1], [])
    f = ChainMap(pt, pt, {0: Mat.from_rows(ZZ, [[2]])})
    assert homology(mapping_cone(f)).at(0) == (0, (2,))


def test_mapping_cone_refuses_a_non_chain_map():
    """The refusal is a VerificationFailed, a ValueError, with the report."""
    seg = ProjComplex.free_complex(ZZ, 0, [1, 1], [Mat.from_rows(ZZ, [[1]])])
    f = ChainMap(seg, seg, {1: Mat.from_rows(ZZ, [[1]])})
    with pytest.raises(VerificationFailed, match=r"^invalid chain map: \[") as ex:
        mapping_cone(f)
    assert [v.code for v in ex.value.report.violations] == ["map.square_fails"]


def test_shift_round_trip():
    x = circle()
    assert shift(shift(x, 1), -1) == x
    assert shift(x, 2).bottom_degree == 2


def test_direct_sum_homology_adds():
    rng = random.Random(5)
    for _ in range(20):
        x = random_free_complex(rng, ZZ)
        y = random_free_complex(rng, ZZ)
        hx, hy, hs = homology(x), homology(y), homology(direct_sum(x, y))
        for n in range(-1, 6):
            assert hs.betti(n) == hx.betti(n) + hy.betti(n)
            # torsion multisets agree after re-normalization to divisor chains
            merged = sorted(hx.torsion(n) + hy.torsion(n))
            assert _divisor_chain(merged) == _divisor_chain(sorted(hs.torsion(n)))


def _divisor_chain(values):
    """Normal form of a finite abelian torsion multiset as a divisor chain."""
    import math
    vals = [v for v in values if v > 1]
    chain = []
    while vals:
        acc = 1
        rest = []
        for v in vals:
            g = math.gcd(acc, v)
            acc = acc * v // g
            if g > 1:
                rest.append(g)
        chain.append(acc)
        vals = [v for v in rest if v > 1]
    return sorted(chain)


def test_direct_sum_with_zero():
    x = circle()
    assert direct_sum(x, ProjComplex.zero(ZZ)) == x


def test_euler_characteristic_matches_betti():
    rng = random.Random(6)
    for _ in range(30):
        x = random_free_complex(rng, ZZ)
        h = homology(x)
        chi_rank = sum((-1) ** n * x.rank_at(n) for n in x.degrees())
        chi_betti = sum((-1) ** n * h.betti(n) for n in range(-1, 8))
        assert chi_rank == chi_betti


def test_tensor_with_laurent_keeps_constants():
    x = ProjComplex.free_complex(ZZ, 0, [1, 1], [Mat.from_rows(ZZ, [[2]])])
    xl = tensor_with_laurent(x)
    assert xl.ring.kind == "laurent"
    assert validate_complex(xl).ok
    assert xl.boundary(1)[0, 0] == xl.ring.from_int(2)
