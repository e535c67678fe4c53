"""Stabilization and realization constructions: the (1-t)+1 Laurent
resolution with windowed exactness certificates, finite prefixes of the
alternating swindle resolution, the algebraic mapping torus, and
realization of a prescribed projective class as a dominated complex.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from . import intlinalg
from .complexes import (ChainMap, Homotopy, ProjComplex, ProjModule, _cone,
                        tensor_with_laurent, validate_complex, verify_chain_map,
                        verify_homotopy)
from .instant import Domination
from .matrices import Mat, ShapeError
from .rings import GroupRing, IntegerRing, LaurentRing, UnsupportedRing
from .verdicts import Report


@dataclass(frozen=True)
class WindowedLaurentCheck:
    """Exactness evidence on the finite window of Laurent exponents [-N, N].

    D = e(1-t) + (1-e) maps im(e) at [-N, N-1] plus im(1-e) at [-N, N] into
    R^m at [-N, N]; L is its contraction, phi(y) = e sum_x y_x and
    tau(w) = w t^N.  Given e^2 = e, injective is L D = 1 and cokernel_ok is
    D L + tau phi = 1, phi D = 0 and phi tau = e, each compared exactly on
    every block with L applied as running sums, in work linear in N.  So
    phi identifies the window cokernel with im(e).  cokernel_rank is the
    trace of the flattened e: the integer rank of im(e) when e is idempotent.
    """

    window: int
    injective: bool
    cokernel_ok: bool
    cokernel_rank: int
    details: tuple = ()

    @property
    def ok(self) -> bool:
        return self.injective and self.cokernel_ok

    def as_dict(self) -> dict:
        return {"N": self.window, "injective": self.injective,
                "cokernel_ok": self.cokernel_ok,
                "cokernel_rank": self.cokernel_rank,
                "details": list(self.details)}


def _base_ring_checked(ring):
    if not isinstance(ring, (IntegerRing, GroupRing)):
        raise UnsupportedRing(
            f"Laurent extension over {ring.kind} is unsupported")
    return ring


def _plus(a: list, b: list) -> list:
    return [[u + v for u, v in zip(r, q)] for r, q in zip(a, b)]


def _compose(products: dict, *pairs) -> dict:
    """The sum of the block maps a b over the (a, b) pairs.  A block map is
    {(row, column): integer block} with absent blocks zero; the result holds
    every block that some product reaches.  The blocks are a few shared
    matrices, so products, kept across one check, forms each once."""
    out: dict = {}
    for a, b in pairs:
        rows_of_b: dict = {}
        for (z, j), y in b.items():
            rows_of_b.setdefault(z, []).append((j, y))
        for (i, z), x in a.items():
            for j, y in rows_of_b.get(z, ()):
                key = id(x), id(y)
                if key not in products:
                    products[key] = intlinalg.mat_mul(x, y)
                prod = products[key]
                acc = out.get((i, j))
                out[i, j] = prod if acc is None else _plus(acc, prod)
    return out


def _pairs(got: dict, want: dict, zero: list):
    return ((got.get(k, zero), want.get(k, zero)) for k in got.keys() | want.keys())


def _running(terms: dict, extra: dict, want: dict, order: range, zero: list):
    """The (got, wanted) block pairs of the map whose block at (line, x) is
    extra plus the sum of the line's terms at positions of order up to x.
    Between marked positions (of a term, an extra or a wanted block) that
    sum is one unchanged block and wanted is zero: such a run yields once."""
    marks: dict = {}
    for line, x in terms.keys() | extra.keys() | want.keys():
        marks.setdefault(line, []).append(order.index(x))
    for line, ks in marks.items():
        acc, run = None, 0
        for k in sorted(ks):
            if acc is not None and run < k:
                yield acc, zero
            key, run = (line, order[k]), k + 1
            if key in terms:
                acc = terms[key] if acc is None else _plus(acc, terms[key])
            got = acc if key not in extra else (
                extra[key] if acc is None else _plus(acc, extra[key]))
            yield zero if got is None else got, want.get(key, zero)
        if acc is not None and run < len(order):
            yield acc, zero


def laurent_window_check(p: ProjModule, window: int) -> WindowedLaurentCheck:
    """Certify injectivity and the cokernel identification on one window.

    Maps are block maps in ambient coordinates; e and 1 - e are the
    identities of im(e) and im(1-e).  The domain blocks are ("e", x) for
    x <= N-1 and ("c", x), the codomain blocks the exponents x, and "im" is
    im(e).  L(y) has e-part sum_{z <= x} e y_z and (1-e)-part (1-e) y_x at
    x.  That e-part is applied as running sums, never stored: down the
    columns of e D for L D, back along the rows of D e for D L.  Besides
    e^2 = e, every block of L D, D L + tau phi, phi D and phi tau is
    compared exactly with 1, 1, 0 and e, each run of one unchanged sum
    once, so the work is linear in N.  cokernel_rank is the trace of e.
    No Smith normal form is computed.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    _base_ring_checked(p.ring)
    n = window
    e = p.idem.flatten()
    one, zero = intlinalg.eye(len(e)), intlinalg.zeros(len(e), len(e))
    neg_e = [[-v for v in r] for r in e]
    c = _plus(one, neg_e)
    xs = range(-n, n + 1)
    bnd = {(x, ("c", x)): c for x in xs}
    lift_c = {(("c", x), x): c for x in xs}
    for x in xs[:-1]:
        bnd[x, ("e", x)], bnd[x + 1, ("e", x)] = e, neg_e
    phi, tau = {("im", z): e for z in xs}, {(n, "im"): e}

    idempotent = p.is_free or p.is_idempotent
    details = [] if idempotent else ["e is not idempotent"]
    products: dict = {}
    e_bnd = _compose(products, ({(z, z): e for z in xs[:-1]}, bnd))
    bnd_e = _compose(products, (bnd, {(("e", x), x): e for x in xs[:-1]}))
    identities = (
        (chain(_running({(j, z): b for (z, j), b in e_bnd.items()}, {},
                        {(("e", x), x): e for x in xs[:-1]}, xs[:-1], zero),
               _pairs(_compose(products, (lift_c, bnd)),
                      {(("c", x), ("c", x)): c for x in xs}, zero)),
         "L after boundary is not the identity"),
        (_running(bnd_e, _compose(products, (bnd, lift_c), (tau, phi)),
                  {(x, x): one for x in xs}, xs[::-1], zero),
         "D L + tau phi is not the identity"),
        (_pairs(_compose(products, (phi, bnd)), {}, zero),
         "phi after boundary is nonzero"),
        (_pairs(_compose(products, (phi, tau)), {("im", "im"): e}, zero),
         "phi tau is not e"))
    holds = [all(got == want for got, want in pairs) for pairs, _ in identities]
    details += [fault for (_, fault), ok in zip(identities, holds) if not ok]
    return WindowedLaurentCheck(n, idempotent and holds[0],
                                idempotent and all(holds[1:]),
                                sum(e[i][i] for i in range(len(e))),
                                tuple(details))


def laurent_resolution(p: ProjModule, window: int = 8
                       ) -> tuple[ProjComplex, WindowedLaurentCheck]:
    """The two-term free resolution of im(e) over the Laurent extension.

    Boundary e(1-t) + (1-e) on ambient rank m; the windowed check
    witnesses that the cokernel is im(e), so the K0 class of im(e) dies
    after crossing with the Laurent circle.
    """
    ext = LaurentRing(_base_ring_checked(p.ring))
    m = p.ambient_rank
    e_ext = p.idem.map_entries(ext.include, ext)
    one = Mat.identity(ext, m)
    t_scalar = ext.t()
    boundary = e_ext - e_ext.scale(t_scalar) + (one - e_ext)
    cx = ProjComplex.free_complex(ext, 0, [m, m], [boundary])
    return cx, laurent_window_check(p, window)


def swindle_prefix(p: ProjModule, n: int) -> ProjComplex:
    """A length-n free prefix of the alternating swindle resolution of im(e).

    Boundaries alternate the two objects 1-e and e over one shared free
    module, so consecutive maps compose to zero and homology reduces two
    boundaries for any n.  Degree-0 homology is the im(e) lattice, the
    interior vanishes and the top degree carries a truncation artifact.
    """
    if n < 1:
        raise ValueError("prefix length must be at least 1")
    ring = p.ring
    m = p.ambient_rank
    e = p.idem
    ce = Mat.identity(ring, m) - e
    bnds = [ce if j % 2 == 0 else e for j in range(n)]
    return ProjComplex.free_complex(ring, 0, [m] * (n + 1), bnds)


def algebraic_mapping_torus(f: ChainMap) -> ProjComplex:
    """The mapping cone of 1 - t f on the Laurent base change of f's complex.

    Refuses, in order, a non-endomorphism (ShapeError), an unsupported ring,
    an invalid complex, and then a 1 - t f that is not a chain map
    (VerificationFailed).  That one check is f's own: on a valid complex, t
    is central and no zero-divisor and d e = e d = d, so 1 - t f fails at
    exactly the degrees, and with exactly the codes, where f fails.
    """
    if f.source != f.target:
        raise ShapeError("mapping torus needs an endomorphism")
    x = f.source
    _base_ring_checked(x.ring)
    validate_complex(x).require("invalid complex")
    xl = tensor_with_laurent(x)
    ext = xl.ring
    t_scalar = ext.t()
    comps = {}
    for nn in x.degrees():
        fn = f.component(nn).map_entries(ext.include, ext)
        comps[nn] = xl.idem(nn) - fn.scale(t_scalar)
    one_minus_tf = ChainMap(xl, xl, comps)
    verify_chain_map(one_minus_tf).require("invalid chain map")
    return _cone(one_minus_tf)


def torus_invariance_check(u: ChainMap, v: ChainMap,
                           forward: ChainMap, backward: ChainMap,
                           forward_backward_homotopy: Homotopy,
                           backward_forward_homotopy: Homotopy) -> Report:
    """Certificate check that T(v u) and T(u v) are equivalent.

    Builds both tori, then verifies that forward / backward are chain maps
    between them and that the supplied homotopies certify the two round
    trips as homotopic to the identities.  Nothing is searched for.  A
    composite the torus refuses raises; every other failure is reported.
    """
    rep = Report()
    if u.source != v.target or u.target != v.source:
        rep.add("torus.maps_not_composable")
        return rep
    t1 = algebraic_mapping_torus(v.compose(u))
    t2 = algebraic_mapping_torus(u.compose(v))
    if forward.source != t1 or forward.target != t2:
        rep.add("torus.forward_wrong_ends")
        return rep
    if backward.source != t2 or backward.target != t1:
        rep.add("torus.backward_wrong_ends")
        return rep
    rep.merge(verify_chain_map(forward), prefix="forward.")
    rep.merge(verify_chain_map(backward), prefix="backward.")
    rep.merge(verify_homotopy(forward_backward_homotopy,
                              ChainMap.identity(t1),
                              backward.compose(forward)),
              prefix="round_trip_1.")
    rep.merge(verify_homotopy(backward_forward_homotopy,
                              ChainMap.identity(t2),
                              forward.compose(backward)),
              prefix="round_trip_2.")
    return rep


def realize(p: ProjModule, k: int) -> tuple[ProjComplex, Domination]:
    """A complex with the single module im(e) at degree k, canonically
    dominated by the free complex of its ambient rank at that degree."""
    if k < 0:
        raise ValueError("realization degree must be nonnegative")
    ring = p.ring
    m = p.ambient_rank
    a = ProjComplex(ring, k, [p], [])
    ranks = [0] * k + [m]
    bnds = [Mat.zero(ring, ranks[j], ranks[j + 1]) for j in range(k)]
    c = ProjComplex.free_complex(ring, 0, ranks, bnds)
    i = ChainMap(a, c, {k: p.idem})
    r = ChainMap(c, a, {k: p.idem})
    return a, Domination(a, c, i, r, Homotopy.zero(a))
