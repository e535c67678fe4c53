"""The instant-obstruction construction, trimming, and free replacement."""
import random

import pytest

from chaink0.complexes import (ChainMap, Homotopy, ProjComplex, ProjModule,
                               direct_sum, homology, mapping_cone,
                               validate_complex, verify_chain_map,
                               verify_homotopy)
from chaink0.corpus import (corpus_dominations, random_domination,
                            random_free_complex)
from chaink0.documents import canonical_json, parse_workspace
from chaink0.instant import (Domination, TrimPreconditionError, _peel,
                             _witness_from_acyclic, build_instant,
                             finiteness_obstruction, free_replacement,
                             stable_freeness_witness, trim_below,
                             verify_domination)
from chaink0.matrices import Mat
from chaink0.projective import (quadratic_class_oracle, rank,
                                verify_stable_freeness)
from chaink0.rings import C2, ZZ, QuadraticRing
from chaink0.verdicts import VerificationFailed
from perturbations import perturb
from test_golden import REFUSED, load_workloads

Q5 = QuadraticRing(-5)


def identity_domination():
    a = ProjComplex.free_complex(ZZ, 0, [1], [])
    return Domination(a, a, ChainMap.identity(a), ChainMap.identity(a),
                      Homotopy.zero(a))


def cone_domination():
    """A = 0 dominated by the contractible two-term cone complex."""
    a = ProjComplex.zero(ZZ)
    c = ProjComplex.free_complex(ZZ, 0, [1, 1], [Mat.from_rows(ZZ, [[1]])])
    return Domination(a, c, ChainMap.zero(a, c), ChainMap.zero(c, a),
                      Homotopy.zero(a))


def ideal_domination():
    e = Mat.from_rows(Q5, [[Q5.from_coords([-2, 0]), Q5.from_coords([-1, -1])],
                           [Q5.from_coords([1, -1]), Q5.from_coords([3, 0])]])
    a = ProjComplex(Q5, 0, [ProjModule(e)], [])
    c = ProjComplex.free_complex(Q5, 0, [2], [])
    return Domination(a, c, ChainMap(a, c, {0: e}), ChainMap(c, a, {0: e}),
                      Homotopy.zero(a))


def test_verify_domination_examples():
    assert verify_domination(identity_domination()).ok
    assert verify_domination(cone_domination()).ok
    a = ProjComplex.free_complex(ZZ, 0, [1], [])
    bad = Domination(a, a, ChainMap.identity(a), ChainMap.identity(a),
                     Homotopy(a, a, {}))
    assert verify_domination(bad).ok  # zero homotopy still fine
    # r = 0 with s = 0 leaves 1 - ri = 1 unwitnessed
    broken = Domination(a, a, ChainMap.identity(a), ChainMap.zero(a, a),
                        Homotopy.zero(a))
    rep = verify_domination(broken)
    assert not rep.ok
    assert any(v.code.startswith("s.") for v in rep.violations)


def test_build_instant_identity():
    inst = build_instant(identity_domination())
    assert inst.F_rank == 1
    assert inst.P == Mat.from_rows(ZZ, [[1]])
    assert inst.j.component(0) == Mat.from_rows(ZZ, [[1]])
    assert inst.u.component(0) == Mat.from_rows(ZZ, [[1]])


def test_build_instant_cone():
    inst = build_instant(cone_domination())
    assert inst.F_rank == 2
    assert inst.P == Mat.from_rows(ZZ, [[0, 1], [0, 1]])
    assert inst.P.is_idempotent()


def test_build_instant_ideal():
    dom = ideal_domination()
    inst = build_instant(dom)
    assert inst.P == dom.A.idem(0)


def test_reduction_identity_domination():
    red = build_instant(identity_domination()).reduction
    assert homology(red).at(0) == (1, ())


def test_reduction_cone_domination():
    red = build_instant(cone_domination()).reduction
    assert validate_complex(red).ok
    assert not homology(red).groups


def test_reduction_ideal_domination():
    red = build_instant(ideal_domination()).reduction
    assert len(red.modules) == 1
    assert red.module(0).idem == ideal_domination().A.idem(0)


def test_corpus_identities_and_homology():
    for ring_name in ("integers", "c2"):
        for dom in corpus_dominations(seed=0, count=15, ring_name=ring_name):
            assert verify_domination(dom).ok
            inst = build_instant(dom)  # certifies K, j, u, u j = r i and h
            red = inst.reduction
            ha, hk = homology(dom.A), homology(red)
            degrees = ({n for n, _, _ in ha.groups}
                       | {n for n, _, _ in hk.groups})
            for n in degrees:
                assert ha.at(n) == hk.at(n)
            u, j, h = inst.u, inst.j, inst.h
            assert verify_chain_map(u).ok and verify_chain_map(j).ok
            assert verify_homotopy(h, ChainMap.identity(red),
                                   j.compose(u)).ok
            assert verify_homotopy(dom.s, ChainMap.identity(dom.A),
                                   u.compose(j)).ok


@pytest.mark.parametrize("ring", [ZZ, C2], ids=["integers", "c2"])
@pytest.mark.parametrize("seed", range(10))
def test_nonzero_homotopy_keeps_class_and_homology(seed, ring):
    """A + cone(1_B), where s != 0 and r i != 1, against A from the same draw."""
    d = random_domination(random.Random(seed), ring)
    d2 = load_workloads().nontrivial_domination(random.Random(seed), ring)
    rep, rep2 = finiteness_obstruction(d), finiteness_obstruction(d2)
    assert ((rep2.chi, rep2.sigma_is_witnessed_zero)
            == (rep.chi, rep.sigma_is_witnessed_zero))
    assert homology(build_instant(d2).reduction) == homology(d.A)


def unimodular(rng, ring, n):
    """(g, g^-1) for g a seeded product of elementary n x n matrices."""
    def elementary(i, j, a):
        return Mat(ring, n, n, [ring.one if r == c else a if (r, c) == (i, j)
                                else ring.zero for r in range(n) for c in range(n)])

    g = g_inv = Mat.identity(ring, n)
    for _ in range(2 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        a = ring.from_coords([rng.randint(-2, 2) for _ in range(ring.flat_rank)])
        g, g_inv = g @ elementary(i, j, a), elementary(i, j, -a) @ g_inv
    return g, g_inv


def conjugate(d, rng):
    """d conjugated by a seeded chain automorphism phi of C: boundaries
    phi d phi^-1, i' = phi i, r' = r phi^-1 and the same s."""
    c, ring = d.C, d.C.ring
    phi = {n: unimodular(rng, ring, c.rank_at(n)) for n in c.degrees()}
    c2 = ProjComplex.free_complex(
        ring, c.bottom_degree, [c.rank_at(n) for n in c.degrees()],
        [phi[n - 1][0] @ c.boundary(n) @ phi[n][1] for n in c.degrees()[1:]])
    i2 = ChainMap(d.A, c2, {n: phi[n][0] @ m for n, m in d.i.components.items()})
    r2 = ChainMap(c2, d.A, {n: m @ phi[n][1] for n, m in d.r.components.items()})
    return Domination(d.A, c2, i2, r2, d.s)


@pytest.mark.parametrize("ring_name", ["integers", "c2"])
def test_conjugated_domination_keeps_class_and_homology(ring_name):
    """Wall's obstruction does not see a change of basis of C (ROADMAP 5(a))."""
    ring = {"integers": ZZ, "c2": C2}[ring_name]
    rng = random.Random(f"conjugate:{ring_name}")
    doms = corpus_dominations(seed=3, count=6, ring_name=ring_name)
    doms += [load_workloads().nontrivial_domination(rng, ring) for _ in range(6)]
    changed = 0
    for d in doms:
        d2 = conjugate(d, rng)
        changed += d2.C != d.C
        rep, rep2 = finiteness_obstruction(d), finiteness_obstruction(d2)
        assert ((rep2.chi, rep2.sigma_is_witnessed_zero)
                == (rep.chi, rep.sigma_is_witnessed_zero))
        assert homology(build_instant(d2).reduction) == homology(d.A)
    assert changed >= len(doms) // 2


def reaches_below_diagonal(inst):
    """Whether some block (-1)^k i_j s^(j-k) r_k, k < j, of P is non-zero."""
    c = inst.domination.C
    at = [sum(c.rank_at(m) for m in range(j)) for j in range(inst.domination.top + 2)]
    return any(not inst.P.submatrix(range(at[j], at[j + 1]), range(at[j])).is_zero
               for j in range(1, len(at) - 1))


@pytest.mark.parametrize("ring_name", ["integers", "c2"])
def test_perturbed_domination_keeps_class_and_homology(ring_name):
    """Homotopy perturbations of corpus and s != 0 dominations stay
    dominations, reach the blocks of P below its diagonal, and keep
    (chi, witnessed_zero) and the homology of A."""
    ring = {"integers": ZZ, "c2": C2}[ring_name]
    rng = random.Random(f"perturb:{ring_name}")
    doms = [f(rng, ring) for _ in range(6)
            for f in (random_domination, load_workloads().nontrivial_domination)]
    reached = 0
    for d in doms:
        d2 = perturb(d, rng)
        assert verify_domination(d2).ok
        rep, rep2 = finiteness_obstruction(d), finiteness_obstruction(d2)
        assert ((rep2.chi, rep2.sigma_is_witnessed_zero)
                == (rep.chi, rep.sigma_is_witnessed_zero))
        inst = build_instant(d2)
        reached += reaches_below_diagonal(inst)
        assert homology(inst.reduction) == homology(d.A)
    assert reached >= len(doms) // 2


def test_obstruction_vanishes_on_free_corpus():
    for ring_name in ("integers", "c2"):
        for dom in corpus_dominations(seed=1, count=10, ring_name=ring_name):
            rep = finiteness_obstruction(dom)
            a = dom.A
            assert rep.chi == sum((-1) ** n * a.rank_at(n) for n in a.degrees())
            assert rep.sigma_is_witnessed_zero


def test_obstruction_identity():
    rep = finiteness_obstruction(identity_domination())
    assert rep.chi == 1 and rep.sigma_is_witnessed_zero


def test_obstruction_circle():
    a = ProjComplex.free_complex(ZZ, 0, [1, 1], [Mat.zero(ZZ, 1, 1)])
    dom = Domination(a, a, ChainMap.identity(a), ChainMap.identity(a),
                     Homotopy.zero(a))
    rep = finiteness_obstruction(dom)
    assert rep.chi == 0 and rep.sigma_is_witnessed_zero


def test_obstruction_ideal_nonzero():
    rep = finiteness_obstruction(ideal_domination())
    assert rep.chi == 1
    nonfree = [m for m in rep.sigma.plus + rep.sigma.minus if not m.is_free]
    assert len(nonfree) == 1
    assert quadratic_class_oracle(nonfree[0]).status == "non_principal"


def test_stable_freeness_witness_explicit():
    inst = build_instant(cone_domination())
    w = stable_freeness_witness(inst)
    assert verify_stable_freeness(ProjModule(inst.P), w).ok


@pytest.mark.parametrize("ring", [ZZ, C2], ids=["integers", "c2"])
@pytest.mark.parametrize("seed", range(4))
def test_peel_splittings_contract_acyclic_cones(seed, ring):
    """On cone(1_B) and on the cone of u for a corpus domination and for one
    with s != 0, the splittings of _peel(t, top - 1) are a contraction
    (d sigma + sigma d = e in every degree) and sigma sigma = 0."""
    rng = random.Random(f"peel:{seed}")
    cones = [mapping_cone(ChainMap.identity(random_free_complex(rng, ring)))]
    for d in (random_domination(rng, ring),
              load_workloads().nontrivial_domination(rng, ring)):
        cones.append(mapping_cone(build_instant(d).u))
    for t in cones:
        sigma, rest = _peel(t, t.top_degree - 1)
        assert sorted(sigma) == list(t.degrees())[:-1]
        assert rest.idem(t.top_degree).is_zero

        def sig(j):
            return sigma.get(j, Mat.zero(ring, t.rank_at(j + 1), t.rank_at(j)))

        for j in t.degrees():
            assert (t.boundary(j + 1) @ sig(j) + sig(j - 1) @ t.boundary(j)
                    == t.idem(j))
            assert (sig(j + 1) @ sig(j)).is_zero


def test_witness_rejects_complex_not_acyclic_at_top():
    x = ProjComplex.free_complex(ZZ, 0, [1, 2], [Mat.from_rows(ZZ, [[1, 0]])])
    with pytest.raises(TrimPreconditionError) as exc:
        _witness_from_acyclic(x, 1, 0, ProjModule.free(ZZ, 2))
    assert exc.value.degree == 1


def test_trim_contractible_cone():
    c = ProjComplex.free_complex(ZZ, 0, [1, 1], [Mat.from_rows(ZZ, [[1]])])
    res = trim_below(c, 0)
    assert all(m.is_zero for m in res.complex.modules)


def test_trim_splits_surjection():
    x = ProjComplex.free_complex(ZZ, 0, [1, 2], [Mat.from_rows(ZZ, [[1, 0]])])
    res = trim_below(x, 0)
    assert res.complex.bottom_degree == 1
    assert homology(res.complex).at(1) == (1, ())
    sigma = res.splittings[0]
    assert x.boundary(1) @ sigma == x.idem(0)
    assert rank(res.complex.module(1)) == 1


def test_trim_precondition_failure():
    bad = ProjComplex.free_complex(ZZ, 0, [1, 1], [Mat.from_rows(ZZ, [[2]])])
    with pytest.raises(TrimPreconditionError) as exc:
        trim_below(bad, 0)
    assert exc.value.degree == 0


def test_trim_preserves_homology_on_corpus():
    checked = 0
    for dom in corpus_dominations(seed=2, count=30, ring_name="integers"):
        x = dom.C  # contractible-summand-rich free complex
        h = homology(x)
        if h.at(x.bottom_degree) != (0, ()) or len(x.modules) < 2:
            continue
        res = trim_below(x, x.bottom_degree)
        h2 = homology(res.complex) if res.complex.modules else None
        for n in range(x.bottom_degree + 1, x.top_degree + 2):
            expect = h.at(n)
            got = h2.at(n) if h2 is not None else (0, ())
            assert got == expect
        checked += 1
    assert checked >= 3


def times_two_spliced(x):
    """x plus R --2--> R in degrees b + 2 and b + 1, b the bottom degree of
    x: homology gains 2-torsion at b + 1 and is unchanged elsewhere."""
    b, ring = x.bottom_degree, x.ring
    return direct_sum(x, ProjComplex.free_complex(ring, b + 1, [1, 1],
                                                  [Mat.from_rows(ring, [[2]])]))


@pytest.mark.parametrize("ring_name", ["integers", "c2"])
def test_trim_raises_exactly_below_nonvanishing_homology(ring_name):
    """For every k from bottom - 1 to top + 1, trim_below(x, k) raises
    TrimPreconditionError(n) exactly when H(x) is nonzero at some degree
    <= k, n the least one; otherwise its splittings satisfy d sigma +
    sigma d = e up to min(k, top).  x runs over corpus A and C complexes,
    cones of identities, and each of them with a x2 boundary spliced in."""
    ring = {"integers": ZZ, "c2": C2}[ring_name]
    rng = random.Random(f"trim:{ring_name}")
    xs = [c for d in corpus_dominations(seed=5, count=4, ring_name=ring_name)
          for c in (d.A, d.C)]
    xs += [mapping_cone(ChainMap.identity(random_free_complex(rng, ring)))
           for _ in range(3)]
    xs += [times_two_spliced(x) for x in xs]
    raised = peeled = 0
    for x in xs:
        h = homology(x)
        bad = [n for n in x.degrees() if h.at(n) != (0, ())]
        lo, hi = x.bottom_degree, x.top_degree
        for k in range(lo - 1, hi + 2):
            if bad and bad[0] <= k:
                with pytest.raises(TrimPreconditionError) as exc:
                    trim_below(x, k)
                assert exc.value.degree == bad[0]
                raised += 1
                continue
            sigma = trim_below(x, k).splittings
            assert sorted(sigma) == list(range(lo, min(k, hi - 1) + 1))

            def sig(j):
                return sigma.get(j, Mat.zero(ring, x.rank_at(j + 1), x.rank_at(j)))

            for j in range(lo, min(k, hi) + 1):
                assert (x.boundary(j + 1) @ sig(j) + sig(j - 1) @ x.boundary(j)
                        == x.idem(j))
            peeled += 1
    assert raised and peeled


def test_free_replacement_trivial():
    from chaink0.projective import StableFreenessWitness
    x = ProjComplex.free_complex(ZZ, 0, [2], [])
    free = ProjModule.free(ZZ, 2)
    out, f, g = free_replacement(x, StableFreenessWitness.trivial(free))
    assert out == x


def test_free_replacement_stably_free_module():
    inst = build_instant(cone_domination())
    w = stable_freeness_witness(inst)
    x = ProjComplex(ZZ, 0, [ProjModule(inst.P)], [])
    out, f, g = free_replacement(x, w)
    assert all(out.module(n).is_free for n in out.degrees())
    assert verify_chain_map(f).ok and verify_chain_map(g).ok
    hx, ho = homology(x), homology(out)
    for n in range(-1, 4):
        assert hx.at(n) == ho.at(n)


def test_free_replacement_rejects_bad_witness():
    inst = build_instant(cone_domination())
    x = ProjComplex(ZZ, 0, [ProjModule(inst.P)], [])
    from chaink0.projective import StableFreenessWitness
    bad = StableFreenessWitness(0, 2, Mat.identity(ZZ, 2), Mat.identity(ZZ, 2))
    with pytest.raises(VerificationFailed, match="^witness fails: "):
        free_replacement(x, bad)


def test_free_replacement_checks_the_witness_of_an_all_free_complex():
    """With nothing to replace, w must still witness the free R^(b - a):
    iso = 5 and iso_inverse = 1 on R^3 are not inverse."""
    from chaink0.projective import StableFreenessWitness
    x = ProjComplex.free_complex(ZZ, 0, [1], [])
    one = Mat.identity(ZZ, 3)
    bad = StableFreenessWitness(2, 3, one.scale(ZZ.from_int(5)), one)
    with pytest.raises(VerificationFailed, match="^witness fails: ") as ex:
        free_replacement(x, bad)
    assert [v.code for v in ex.value.report.violations] == [
        "witness.not_right_inverse", "witness.not_left_inverse"]


@pytest.mark.parametrize("name", ["R", "S"])
def test_free_replacement_refuses_an_invalid_complex(name):
    """d d != 0 is refused before anything else: with a non-free module, the
    replacement is not built (it would fail its own certificate), and with
    every module free, no identity maps are returned."""
    ws = parse_workspace(canonical_json(REFUSED), [name, "w"])
    with pytest.raises(VerificationFailed, match="^invalid complex: ") as ex:
        free_replacement(ws.complexes[name], ws.witnesses["w"])
    assert [v.code for v in ex.value.report.violations] == ["complex.dd_nonzero"]
