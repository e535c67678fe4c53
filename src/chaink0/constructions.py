"""Stabilization and realization constructions: the (1-t)+1 Laurent
resolution with windowed exactness certificates, finite prefixes of the
alternating swindle resolution, the algebraic mapping torus, and
realization of a prescribed projective class as a dominated complex.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg
from .complexes import (ChainMap, Homotopy, ProjComplex, ProjModule,
                        mapping_cone, tensor_with_laurent, verify_chain_map,
                        verify_homotopy)
from .instant import Domination
from .matrices import Mat
from .projective import complement
from .rings import GroupRing, IntegerRing, LaurentRing, UnsupportedRing
from .verdicts import Report


@dataclass(frozen=True)
class WindowedLaurentCheck:
    """Exactness evidence on the finite window of Laurent exponents [-N, N].

    injective: the resolution boundary has zero kernel on the window.
    cokernel_ok: the window cokernel is identified with im(e) by the
    evaluation t -> 1 followed by e.
    cokernel_rank: integer rank of that image lattice.
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


def _base_ring_checked(p: ProjModule):
    ring = p.ring
    if not isinstance(ring, (IntegerRing, GroupRing)):
        raise UnsupportedRing(
            f"Laurent extension over {ring.kind} is unsupported")
    return ring


def laurent_window_check(p: ProjModule, window: int) -> WindowedLaurentCheck:
    """Certify injectivity and the cokernel identification on one window.

    The boundary e(1-t) + (1-e) acts on windowed vectors; the im(e) part of
    the domain is restricted to exponents [-N, N-1] so the image stays in
    [-N, N], and the im(1-e) part uses the full [-N, N].
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    ring = _base_ring_checked(p)
    k = ring.flat_rank
    m = p.ambient_rank
    amb = m * k
    n_win = window
    e_flat = p.idem.flatten()
    e_basis = intlinalg.image_basis(e_flat)          # im(e) lattice
    ce_flat = complement(p).idem.flatten()
    ce_basis = intlinalg.image_basis(ce_flat)        # im(1-e) lattice
    exps = list(range(-n_win, n_win + 1))
    slot = {x: j for j, x in enumerate(exps)}
    cod_dim = amb * len(exps)

    cols = []
    for x in range(-n_win, n_win):       # e-part, exponents -N..N-1
        for v in e_basis:
            col = [0] * cod_dim
            for i in range(amb):
                col[slot[x] * amb + i] += v[i]
                col[slot[x + 1] * amb + i] -= v[i]
            cols.append(col)
    for x in exps:                       # (1-e)-part, full window
        for v in ce_basis:
            col = [0] * cod_dim
            for i in range(amb):
                col[slot[x] * amb + i] += v[i]
            cols.append(col)
    dmat = intlinalg.columns_to_matrix(cols, cod_dim)
    dsolver = intlinalg.IntegerSolver(dmat, len(cols))
    injective = not dsolver.kernel_basis()

    # Evaluation t -> 1 followed by projection to the im(e) lattice.
    e_mat = intlinalg.columns_to_matrix(e_basis, amb)
    e_solver = intlinalg.IntegerSolver(e_mat, len(e_basis))
    # The image of a coordinate does not depend on its exponent slot.
    proj_cols = []
    for i in range(amb):
        coords = e_solver.solve([e_flat[t][i] for t in range(amb)])
        if coords is None:
            raise ArithmeticError("evaluation image leaves the e-lattice")
        proj_cols.append(coords)
    phi = intlinalg.columns_to_matrix(proj_cols * len(exps), len(e_basis))
    phi_solver = intlinalg.IntegerSolver(phi, cod_dim)

    details = []
    comp = intlinalg.mat_mul(phi, dmat)
    comp_zero = all(all(v == 0 for v in row) for row in comp)
    if not comp_zero:
        details.append("phi after boundary is nonzero")
    diag = phi_solver.snf.diagonal()
    surjective = diag.count(1) == len(e_basis)
    if not surjective:
        details.append("phi not surjective onto the e-lattice")
    kernel_in_image = True
    for kvec in phi_solver.kernel_basis():
        if dsolver.solve(kvec) is None:
            kernel_in_image = False
            break
    if not kernel_in_image:
        details.append("ker(phi) exceeds the boundary image")
    cokernel_ok = comp_zero and surjective and kernel_in_image
    return WindowedLaurentCheck(n_win, injective, cokernel_ok,
                                len(e_basis), tuple(details))


def laurent_resolution(p: ProjModule, window: int = 8
                       ) -> tuple[ProjComplex, WindowedLaurentCheck]:
    """The two-term free resolution of im(e) over the Laurent extension.

    Boundary e(1-t) + (1-e) on ambient rank m; the windowed check
    witnesses that the cokernel is im(e), so the K0 class of im(e) dies
    after crossing with the Laurent circle.
    """
    ring = _base_ring_checked(p)
    ext = LaurentRing(ring)
    m = p.ambient_rank
    e_ext = p.idem.map_entries(ext.include, ext)
    one = Mat.identity(ext, m)
    t_scalar = ext.t()
    boundary = e_ext - e_ext.scale(t_scalar) + (one - e_ext)
    cx = ProjComplex.free_complex(ext, 0, [m, m], [boundary])
    return cx, laurent_window_check(p, window)


def swindle_prefix(p: ProjModule, n: int) -> ProjComplex:
    """A length-n free prefix of the alternating swindle resolution of im(e).

    Boundaries alternate 1-e, e, 1-e, ... so consecutive maps compose to
    zero; degree-0 homology is the im(e) lattice and the interior vanishes.
    The top degree carries a truncation artifact of the infinite resolution.
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
    """The mapping cone of 1 - t f on the Laurent base change of f's complex."""
    if f.source != f.target:
        raise ValueError("mapping torus needs an endomorphism")
    x = f.source
    if not isinstance(x.ring, (IntegerRing, GroupRing)):
        raise UnsupportedRing(
            f"Laurent extension over {x.ring.kind} is unsupported")
    xl = tensor_with_laurent(x)
    ext = xl.ring
    t_scalar = ext.t()
    comps = {}
    for nn in x.degrees():
        fn = f.component(nn).map_entries(ext.include, ext)
        comps[nn] = xl.idem(nn) - fn.scale(t_scalar)
    return mapping_cone(ChainMap(xl, xl, comps))


def torus_invariance_check(u: ChainMap, v: ChainMap,
                           forward: ChainMap, backward: ChainMap,
                           forward_backward_homotopy: Homotopy,
                           backward_forward_homotopy: Homotopy) -> Report:
    """Certificate check that T(v u) and T(u v) are equivalent.

    Builds both tori, then verifies that forward / backward are chain maps
    between them and that the supplied homotopies certify the two round
    trips as homotopic to the identities.  Nothing is searched for.
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
