"""Laurent resolution windows, swindle prefixes, mapping tori, realization."""
import pathlib
import random

import pytest

from chaink0 import cli, complexes, constructions, intlinalg

from chaink0.complexes import (ChainMap, Homotopy, ProjComplex, ProjModule,
                               homology, validate_complex)
from chaink0.constructions import (WindowedLaurentCheck,
                                   algebraic_mapping_torus,
                                   laurent_resolution, laurent_window_check,
                                   realize, swindle_prefix,
                                   torus_invariance_check)
from chaink0.documents import canonical_json, parse_workspace
from chaink0.instant import finiteness_obstruction, verify_domination
from chaink0.matrices import Mat, ShapeError
from chaink0.projective import quadratic_class_oracle, rank
from chaink0.rings import C2, ZZ, QuadraticRing, UnsupportedRing
from chaink0.verdicts import VerificationFailed
from test_golden import REFUSED, SUMMANDS, TORUS_C2

Q5 = QuadraticRing(-5)


def split_line():
    return ProjModule(Mat.from_rows(ZZ, [[1, 1], [0, 0]]))


def c2_half():
    # the augmentation-like idempotent does not exist over Z[C2] with
    # integer coefficients, so use a coordinate projection instead
    return ProjModule(Mat.from_rows(C2, [[1, 0], [0, 0]]))


def test_window_check_full_idempotent():
    chk = laurent_window_check(ProjModule.free(ZZ, 2), 2)
    assert chk.ok and chk.cokernel_rank == 2


def test_window_check_zero_idempotent():
    chk = laurent_window_check(ProjModule(Mat.zero(ZZ, 2, 2)), 2)
    assert chk.ok and chk.cokernel_rank == 0


def conjugated_idempotent(rng, ring, m):
    """g d g^-1 for a random 0/1 diagonal d and g a product of four
    elementary matrices with coefficients in [-2, 2] (g = 1 when m = 1)."""
    def matrix(entry):
        return Mat(ring, m, m, [entry(r, c) for r in range(m) for c in range(m)])

    g = g_inv = Mat.identity(ring, m)
    for _ in range(4 if m > 1 else 0):
        i, j = rng.sample(range(m), 2)
        a = ring.from_coords([rng.randint(-2, 2) for _ in range(ring.flat_rank)])
        up = matrix(lambda r, c: ring.one if r == c else
                    (a if (r, c) == (i, j) else ring.zero))
        down = matrix(lambda r, c: ring.one if r == c else
                      (-a if (r, c) == (i, j) else ring.zero))
        g, g_inv = g @ up, down @ g_inv
    d = [rng.randint(0, 1) for _ in range(m)]
    return g @ matrix(lambda r, c: ring.from_int(d[r] if r == c else 0)) @ g_inv


def test_window_check_various_windows():
    # the certificate's rank is the trace; SNF of the flattening is the reference
    modules = [split_line(), c2_half()]
    for ring in (ZZ, C2):
        rng = random.Random(f"window:{ring.kind}")
        modules += [ProjModule(conjugated_idempotent(rng, ring, m))
                    for m in (2, 2, 2, 3, 3, 3)]
    for p in modules:
        for n in (1, 2, 3, 4, 5, 6, 8):
            chk = laurent_window_check(p, n)
            assert chk.ok and not chk.details, chk.as_dict()
            assert chk.cokernel_rank == len(
                intlinalg.smith_normal_form(p.idem.flatten()).image_basis())


@pytest.mark.parametrize("rows", [[[2]], [[1, 1], [0, 1]]])
def test_window_certificate_rejects_non_idempotent(rows):
    p = ProjModule(Mat.from_rows(ZZ, rows))
    for n in (1, 3):
        chk = laurent_window_check(p, n)
        assert not chk.ok
        assert "e is not idempotent" in chk.details
        assert len(chk.details) > 1, chk.as_dict()


def test_window_check_runs_no_smith_normal_form(monkeypatch):
    p = ProjModule(conjugated_idempotent(random.Random("no-snf"), C2, 2))
    snf_rank = len(intlinalg.smith_normal_form(p.idem.flatten()).image_basis())

    def forbidden(*args, **kwargs):
        raise AssertionError("the window check computed a Smith normal form")

    monkeypatch.setattr(intlinalg, "smith_normal_form", forbidden)
    chk = laurent_window_check(p, 8)
    assert chk.ok and chk.cokernel_rank == snf_rank > 0


def _dense_plus(a, b):
    return [[u + v for u, v in zip(r, q)] for r, q in zip(a, b)]


def _dense_compose(products, *pairs):
    out = {}
    for a, b in pairs:
        rows_of_b = {}
        for (z, j), y in b.items():
            rows_of_b.setdefault(z, []).append((j, y))
        for (i, z), x in a.items():
            for j, y in rows_of_b.get(z, ()):
                if (id(x), id(y)) not in products:
                    products[id(x), id(y)] = intlinalg.mat_mul(x, y)
                prod, acc = products[id(x), id(y)], out.get((i, j))
                out[i, j] = prod if acc is None else _dense_plus(acc, prod)
    return out


def _dense_agrees(got, want, zero):
    return all(got.get(key, zero) == want.get(key, zero)
               for key in got.keys() | want.keys())


def dense_window_check(p, n):
    """The window check with L stored as one block per pair z <= x and every
    block of the four identities formed and compared one at a time."""
    e = p.idem.flatten()
    one, zero = intlinalg.eye(len(e)), intlinalg.zeros(len(e), len(e))
    neg_e = [[-v for v in r] for r in e]
    c = _dense_plus(one, neg_e)
    xs = range(-n, n + 1)
    bnd = {(x, ("c", x)): c for x in xs}
    lift = {(("c", x), x): c for x in xs}
    for x in xs[:-1]:
        bnd[x, ("e", x)], bnd[x + 1, ("e", x)] = e, neg_e
        lift.update(((("e", x), z), e) for z in range(-n, x + 1))
    domain_one = {(j, j): c if j[0] == "c" else e for _, j in bnd}
    phi = {("im", z): e for z in xs}
    tau = {(n, "im"): e}
    idempotent = p.is_free or p.is_idempotent
    details = [] if idempotent else ["e is not idempotent"]
    products = {}
    identities = (
        (_dense_compose(products, (lift, bnd)), domain_one,
         "L after boundary is not the identity"),
        (_dense_compose(products, (bnd, lift), (tau, phi)),
         {(x, x): one for x in xs}, "D L + tau phi is not the identity"),
        (_dense_compose(products, (phi, bnd)), {}, "phi after boundary is nonzero"),
        (_dense_compose(products, (phi, tau)), {("im", "im"): e}, "phi tau is not e"))
    holds = [_dense_agrees(got, want, zero) for got, want, _ in identities]
    details += [fault for (_, _, fault), ok in zip(identities, holds) if not ok]
    return WindowedLaurentCheck(n, idempotent and holds[0],
                                idempotent and all(holds[1:]),
                                sum(e[i][i] for i in range(len(e))),
                                tuple(details))


def test_window_check_matches_the_dense_evaluation():
    modules = [ProjModule(Mat.from_rows(ZZ, rows))
               for rows in ([[2]], [[1, 1], [0, 1]])]
    for ring in (ZZ, C2):
        rng = random.Random(f"dense:{ring.kind}")
        modules += [ProjModule(conjugated_idempotent(rng, ring, m))
                    for m in (1, 2, 3) for _ in range(3)]
    for p in modules:
        for n in range(1, 9):
            assert laurent_window_check(p, n).as_dict() == \
                dense_window_check(p, n).as_dict(), (p.idem, n)


def test_running_sums_compare_every_run():
    """On positions 0..5 of one line the sum is [[0]] from 0 and [[1]] from
    2, where [[1]] is wanted: each mark and each run between or after marks
    yields one pair, so the unwanted [[1]] on 3..5 is compared once."""
    pairs = constructions._running({("l", 0): [[0]], ("l", 2): [[1]]}, {},
                                   {("l", 2): [[1]]}, range(6), [[0]])
    assert list(pairs) == [([[0]], [[0]]), ([[0]], [[0]]), ([[1]], [[1]]),
                           ([[1]], [[0]])]


@pytest.mark.parametrize("module", [split_line, c2_half])
def test_window_check_work_is_linear_in_the_window(module, monkeypatch):
    """Block sums and block comparisons at most double, plus a constant,
    when the window doubles: L is applied as running sums and each run of
    one unchanged block is compared once."""
    counts = {"sums": 0, "comparisons": 0}
    plus = constructions._plus

    def counting_plus(a, b):
        counts["sums"] += 1
        return plus(a, b)

    def counting(pairs_of):
        def pairs(*args):
            for pair in pairs_of(*args):
                counts["comparisons"] += 1
                yield pair
        return pairs

    monkeypatch.setattr(constructions, "_plus", counting_plus)
    for name in ("_running", "_pairs"):
        monkeypatch.setattr(constructions, name,
                            counting(getattr(constructions, name)))
    work = []
    for n in (32, 64, 128):
        counts.update(sums=0, comparisons=0)
        assert laurent_window_check(module(), n).ok
        work.append(dict(counts))
    assert all(work[0].values())
    for small, big in zip(work, work[1:]):
        assert all(big[k] <= 2 * small[k] + 8 for k in counts), work


@pytest.mark.parametrize("window", [3, 8, 24])
def test_window_check_forms_each_product_once(window, monkeypatch):
    """The four block identities are built from products of e, -e and 1 - e
    over 7 distinct operand pairs, each formed once per check."""
    calls = []

    def counting(a, b):
        calls.append((id(a), id(b)))
        return mat_mul(a, b)

    mat_mul = intlinalg.mat_mul
    monkeypatch.setattr(intlinalg, "mat_mul", counting)
    assert laurent_window_check(split_line(), window).ok
    assert len(calls) == len(set(calls)) == 7


def test_laurent_resolution_shape():
    cx, chk = laurent_resolution(split_line(), window=4)
    assert chk.ok
    assert cx.ring.kind == "laurent"
    assert cx.rank_at(0) == cx.rank_at(1) == 2
    assert validate_complex(cx).ok
    # at t = 1 the boundary degenerates to the complementary idempotent:
    # over Z a Laurent element evaluates there to the sum of its coefficients
    ev = cx.boundary(1).map_entries(
        lambda v: ZZ.from_int(sum(c for _, c in v.data)), ZZ)
    assert ev == Mat.identity(ZZ, 2) - split_line().idem


def test_laurent_resolution_rejects_quadratic():
    e = Mat.identity(Q5, 1)
    with pytest.raises(UnsupportedRing):
        laurent_resolution(ProjModule(e))


def test_swindle_prefix_interior_vanishes():
    for p in (split_line(), c2_half(),
              ProjModule.free(ZZ, 1), ProjModule(Mat.zero(ZZ, 1, 1))):
        for n in (2, 4, 8):
            cx = swindle_prefix(p, n)
            assert validate_complex(cx).ok
            h = homology(cx)
            flat_rank = len(intlinalg.smith_normal_form(p.idem.flatten()).image_basis())
            assert h.at(0) == (flat_rank, ())
            for j in range(1, n):
                assert h.at(j) == (0, ())


def test_swindle_prefix_rejects_empty():
    with pytest.raises(ValueError):
        swindle_prefix(split_line(), 0)


def test_laurent_window_check_rejects_empty_window():
    with pytest.raises(ValueError, match="window"):
        laurent_window_check(split_line(), 0)


def test_torus_of_point_boundaries():
    pt = ProjComplex.free_complex(ZZ, 0, [1], [])
    ident = algebraic_mapping_torus(ChainMap.identity(pt))
    ext = ident.ring
    one = ext.from_int(1)
    assert ident.boundary(1)[0, 0] == one - ext.t()
    zero_map = algebraic_mapping_torus(ChainMap.zero(pt, pt))
    assert zero_map.boundary(1)[0, 0] == one


@pytest.mark.parametrize("name, code", [("f", "map.square_fails"),
                                        ("g", "complex.dd_nonzero")])
def test_torus_refuses_an_invalid_endomorphism(name, code):
    """f is not a chain map; g is one, on a complex with d d != 0."""
    f = parse_workspace(canonical_json(REFUSED), [name]).maps[name]
    with pytest.raises(VerificationFailed) as ex:
        algebraic_mapping_torus(f)
    assert [v.code for v in ex.value.report.violations] == [code]


@pytest.mark.parametrize("doc, name, code", [
    (None, "flip", 0), (TORUS_C2, "f", 2), (TORUS_C2, "g", 0), (SUMMANDS, "k", 2)])
def test_one_torus_command_checks_one_chain_map(doc, name, code, tmp_path,
                                                monkeypatch, capsys):
    """The torus checks 1 - t f alone, not f as well: one verify_chain_map
    call per command, on the Laurent map, whether f is a chain map or not."""
    path = pathlib.Path(__file__).parent / "fixtures" / "rp2.json"
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
    checked = []

    def counting(f):
        checked.append(f.source.ring.kind)
        return complexes.verify_chain_map(f)

    for module in (cli, constructions):
        monkeypatch.setattr(module, "verify_chain_map", counting)
    assert cli.main(["torus", "--input", str(path), "--name", name]) == code
    capsys.readouterr()
    assert checked == ["laurent"]


def test_torus_refuses_a_non_endomorphism():
    x = ProjComplex.free_complex(ZZ, 0, [1], [])
    y = ProjComplex.free_complex(ZZ, 0, [2], [])
    with pytest.raises(ShapeError, match="^mapping torus needs an endomorphism$"):
        algebraic_mapping_torus(ChainMap.zero(x, y))


def test_torus_invariance_identity_factorization():
    pt = ProjComplex.free_complex(ZZ, 0, [1], [])
    u = ChainMap.identity(pt)
    t1 = algebraic_mapping_torus(u)
    fwd = ChainMap.identity(t1)
    h = Homotopy.zero(t1)
    rep = torus_invariance_check(u, u, fwd, fwd, h, h)
    assert rep.ok


def test_torus_invariance_rejects_corrupted_homotopy():
    pt = ProjComplex.free_complex(ZZ, 0, [1], [])
    u = ChainMap.identity(pt)
    t1 = algebraic_mapping_torus(u)
    fwd = ChainMap.identity(t1)
    good = Homotopy.zero(t1)
    bad = Homotopy(t1, t1, {0: Mat.identity(t1.ring, 1)})
    rep = torus_invariance_check(u, u, fwd, fwd, bad, good)
    assert not rep.ok
    assert any(v.code.startswith("round_trip_1.") and v.degree == 0
               for v in rep.violations)


def test_realize_free_round_trip():
    for ring in (ZZ, C2):
        for k in (0, 1, 2):
            p = ProjModule.free(ring, 2)
            a, dom = realize(p, k)
            assert verify_domination(dom).ok
            rep = finiteness_obstruction(dom)
            assert rep.chi == (-1) ** k * 2
            assert rep.sigma_is_witnessed_zero


def test_realize_ideal_round_trip():
    e = Mat.from_rows(Q5, [[Q5.from_coords([-2, 0]), Q5.from_coords([-1, -1])],
                           [Q5.from_coords([1, -1]), Q5.from_coords([3, 0])]])
    p = ProjModule(e)
    for k in (0, 1, 2):
        a, dom = realize(p, k)
        assert verify_domination(dom).ok
        rep = finiteness_obstruction(dom)
        assert rep.chi == (-1) ** k * rank(p)
        nonfree = [m for m in rep.sigma.plus + rep.sigma.minus
                   if not m.is_free]
        assert len(nonfree) == 1
        # the residual class survives realization with the same oracle verdict
        assert quadratic_class_oracle(nonfree[0]).status == "non_principal"


def test_realize_rejects_negative_degree():
    with pytest.raises(ValueError):
        realize(split_line(), -1)
