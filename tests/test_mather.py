"""Mather's trick as certificates: a domination (A, C, i, r, s) gives

    T(1_A) = T(r i) ~ T(i r),

T(f) the algebraic mapping torus, the cone of 1 - t f over the Laurent
extension; T(i r) is a finite free complex.  Both steps have closed forms:

- [[e, -t s], [0, e]] : T(1_A) -> T(r i) is an isomorphism with inverse
  [[e, t s], [0, e]], since (1 - t) - (1 - t r i) = -t (d s + s d);
- forward diag(i, i) : T(r i) -> T(i r) and backward diag(t r, t r) are
  chain maps, and on the torus of each f = r i, i r the homotopy
  H = [[0, 0], [e, 0]] gives d H + H d = diag(1 - t f, 1 - t f), which is
  1 minus the round trip; torus_invariance_check verifies them.
"""
import random

import pytest

from chaink0.complexes import ChainMap, Homotopy, ProjComplex, verify_chain_map
from chaink0.constructions import algebraic_mapping_torus, torus_invariance_check
from chaink0.corpus import corpus_dominations, random_domination
from chaink0.instant import Domination
from chaink0.matrices import Mat
from chaink0.rings import C2, ZZ
from chaink0.verdicts import Report
from groups import S3
from perturbations import perturb
from test_golden import load_workloads

RINGS = {"integers": ZZ, "c2": C2, "s3": S3}
# Draws per family and ring.
DRAWS = 4


def torus_map(source: ProjComplex, target: ProjComplex, blocks) -> ChainMap:
    """The map of tori with [[a, b], [0, c]] = blocks(n) in each degree n of
    the source, whose module there is x_n + x_(n-1)."""
    def component(n):
        a, b, c = blocks(n)
        return Mat.block([[a, b], [Mat.zero(source.ring, c.rows, a.cols), c]])
    return ChainMap(source, target, {n: component(n) for n in source.degrees()})


def contraction(torus: ProjComplex, x: ProjComplex, lift) -> Homotopy:
    """[[0, 0], [e_n, 0]] : x_n + x_(n-1) -> x_(n+1) + x_n, on the torus of
    an endomorphism of x."""
    zero, r = Mat.zero, x.rank_at
    return Homotopy(torus, torus, {
        n: Mat.block([[zero(torus.ring, r(n + 1), r(n)), zero(torus.ring, r(n + 1), r(n - 1))],
                      [lift(x.idem(n)), zero(torus.ring, r(n), r(n - 1))]])
        for n in torus.degrees()})


def mather_certificates(d: Domination) -> Report:
    """Both certificates of T(1_A) = T(r i) ~ T(i r); the violations of the
    first are prefixed iso., those of the second invariance."""
    a, c = d.A, d.C
    t1 = algebraic_mapping_torus(ChainMap.identity(a))
    t_ri = algebraic_mapping_torus(d.r.compose(d.i))
    t_ir = algebraic_mapping_torus(d.i.compose(d.r))
    ext = t1.ring

    def lift(m):
        return m.map_entries(ext.include, ext)

    def times_t(m):
        return lift(m).scale(ext.t())

    def iso(source, target, sign):
        """[[e, sign t s], [0, e]]."""
        return torus_map(source, target, lambda n: (
            lift(a.idem(n)), times_t(d.s.component(n - 1)).scale(ext.from_int(sign)),
            lift(a.idem(n - 1))))

    rep = Report()
    forward, backward = iso(t1, t_ri, -1), iso(t_ri, t1, 1)
    rep.merge(verify_chain_map(forward), prefix="iso.forward.")
    rep.merge(verify_chain_map(backward), prefix="iso.backward.")
    if backward.compose(forward) != ChainMap.identity(t1):
        rep.add("iso.not_left_inverse")
    if forward.compose(backward) != ChainMap.identity(t_ri):
        rep.add("iso.not_right_inverse")
    fwd = torus_map(t_ri, t_ir, lambda n: (
        lift(d.i.component(n)), Mat.zero(ext, c.rank_at(n), a.rank_at(n - 1)),
        lift(d.i.component(n - 1))))
    bwd = torus_map(t_ir, t_ri, lambda n: (
        times_t(d.r.component(n)), Mat.zero(ext, a.rank_at(n), c.rank_at(n - 1)),
        times_t(d.r.component(n - 1))))
    rep.merge(torus_invariance_check(d.i, d.r, fwd, bwd, contraction(t_ri, a, lift),
                                     contraction(t_ir, c, lift)), prefix="invariance.")
    return rep


def families(ring_name: str) -> list:
    """DRAWS corpus draws and DRAWS dominations with s != 0 over one ring,
    then each of them perturbed."""
    ring = RINGS[ring_name]
    rng = random.Random(f"mather:{ring_name}")
    if ring in (ZZ, C2):
        corpus = corpus_dominations(0, DRAWS, ring_name)
    else:
        corpus = [random_domination(rng, ring) for _ in range(DRAWS)]
    nontrivial = [load_workloads().nontrivial_domination(rng, ring) for _ in range(DRAWS)]
    return corpus + nontrivial + [perturb(d, rng) for d in corpus + nontrivial]


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_mather_trick_is_certified(ring_name):
    doms = families(ring_name)
    assert any(d.s.components for d in doms)
    for d in doms:
        rep = mather_certificates(d)
        assert rep.ok, rep.as_dict()
