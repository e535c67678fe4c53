"""The instant finiteness obstruction.

From a chain domination (A, C, i, r, s) with s d + d s = 1 - r i, assemble
one block idempotent P on F = C_0 + ... + C_n:

    P[j][k]   = (-1)^k i_j s^(j-k) r_k, plus 1 when j = k is odd  (k <= j)
    P[j][j+1] = (-1)^j d_(j+1),  and every block above that is 0.

Everything else is read off P.  On F_m = C_m + ... + C_n the boundary
F_m -> F_(m-1) is the block of P (m odd) or of 1 - P (m even) on rows
C_(m-1..n) and columns C_(m..n); below degree 0 the complex continues with
the same pattern 1 - P, P, 1 - P, ...  The finite projective truncation K
has im(P) in degree 0, and its class in reduced K0 is the finiteness
obstruction.  The comparison maps are j_m = (i_c s^(c-m))_c : A -> K and
u_m = [r_m | 0] : K -> A, with the homotopy h_m = [0 | 1] from 1_K to j u.

Also here: the trim construction that shortens a complex with acyclic
bottom degrees, and the replacement of a stably free module by free ones.
"""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import (ChainMap, Homotopy, ProjComplex, ProjModule, _cone,
                        _lattice_checked, direct_sum, validate_complex,
                        verify_chain_map, verify_homotopy)
from .matrices import Mat, solve_linear
from .projective import (ObstructionReport, StableFreenessWitness, k0_class_of_complex,
                         split_k0, verify_stable_freeness)
from .verdicts import Report


@dataclass(frozen=True)
class Domination:
    """A finite free complex C dominating A through i, r and homotopy s."""

    A: ProjComplex
    C: ProjComplex
    i: ChainMap  # A -> C
    r: ChainMap  # C -> A
    s: Homotopy  # on A, witnessing 1 - r i

    @property
    def top(self) -> int:
        return max(self.C.top_degree, 0)


def verify_domination(d: Domination) -> Report:
    """All structural invariants of a domination, reported degree by degree."""
    rep = Report()
    rep.merge(validate_complex(d.A), prefix="A.")
    rep.merge(validate_complex(d.C), prefix="C.")
    if d.C.modules and d.C.bottom_degree != 0:
        rep.add("domination.C_not_based_at_zero")
    for n in d.C.degrees():
        if not d.C.module(n).is_free:
            rep.add("domination.C_not_free", degree=n)
    if d.i.source != d.A or d.i.target != d.C:
        rep.add("domination.i_wrong_ends")
        return rep
    if d.r.source != d.C or d.r.target != d.A:
        rep.add("domination.r_wrong_ends")
        return rep
    rep.merge(verify_chain_map(d.i), prefix="i.")
    rep.merge(verify_chain_map(d.r), prefix="r.")
    rep.merge(
        verify_homotopy(d.s, ChainMap.identity(d.A), d.r.compose(d.i)),
        prefix="s.")
    return rep


@dataclass(frozen=True)
class InstantData:
    """The instant-obstruction package, certified by build_instant.

    reduction is the finite projective complex K: im(P) in degree 0 and the
    free F_m in degrees 1..n, each boundary F_m -> F_(m-1) a block of P or
    of 1 - P.  Below degree 0 the complex F_* continues with the
    alternating pattern 1-P, P, 1-P, ... which is never materialized.
    """

    domination: Domination
    F_rank: int
    P: Mat
    reduction: ProjComplex
    u: ChainMap  # K -> A, with u j = r i
    j: ChainMap  # A -> K
    h: Homotopy  # on K, witnessing 1_K - j u


def build_instant(d: Domination) -> InstantData:
    """Assemble P, the reduction K, u, j and h, and certify them.

    The domination is verified first, here and nowhere else on the way to
    an obstruction; a failure raises VerificationFailed with its report.
    The package is then checked with the engine's verifiers: K is a valid
    complex, j and u are chain maps, u j = r i and h is a homotopy from
    1_K to j u.  A failure raises ArithmeticError with the violations.
    """
    verify_domination(d).require("invalid domination")
    ring = d.A.ring
    n = d.top
    rank = d.C.rank_at
    degs = range(0, n + 1)
    # i_blocks[m][c - m] = i_c s^(c-m) : A_m -> C_c, from one running power.
    i_blocks = []
    for m in degs:
        power = d.A.idem(m)
        col = []
        for c in range(m, n + 1):
            if c > m:
                power = d.s.component(c - 1) @ power
            col.append(d.i.component(c) @ power)
        i_blocks.append(col)

    def p_block(j, k):
        if k < j:
            isr = i_blocks[k][j - k] @ d.r.component(k)
            return isr if k % 2 == 0 else -isr
        if k == j:
            ir = d.i.component(j) @ d.r.component(j)
            return ir if j % 2 == 0 else Mat.identity(ring, rank(j)) - ir
        if k == j + 1:
            b = d.C.boundary(k)
            return b if j % 2 == 0 else -b
        return Mat.zero(ring, rank(j), rank(k))

    P = Mat.block([[p_block(j, k) for k in degs] for j in degs])
    one_minus_P = Mat.identity(ring, P.rows) - P
    # F_m is the tail of F from offset[m] on; offset[n + 1] = rank F.
    offset = [sum(rank(j) for j in range(m)) for m in range(n + 2)]
    F = offset[-1]
    boundaries = [
        (P if m % 2 else one_minus_P).submatrix(range(offset[m - 1], F),
                                                range(offset[m], F))
        for m in range(1, n + 1)]
    K = ProjComplex(ring, 0, [ProjModule(P)] + [ProjModule.free(ring, F - offset[m])
                                                for m in range(1, n + 1)],
                    boundaries)
    # j_m = (i_c s^(c-m))_c, u_m = [r_m | 0] and h_m = [0 | 1], the last two
    # restricted to im(P) in degree 0.
    u, h = {}, {}
    for m in degs:
        rest = F - offset[m + 1]
        u[m] = Mat.block([[d.r.component(m), Mat.zero(ring, d.A.rank_at(m), rest)]])
        if m < n:
            h[m] = Mat.block([[Mat.zero(ring, rest, rank(m)), Mat.identity(ring, rest)]])
    u[0] = u[0] @ P
    if n >= 1:
        h[0] = h[0] @ P
    inst = InstantData(d, F, P, K, ChainMap(K, d.A, u),
                       ChainMap(d.A, K, {m: Mat.block([[blk] for blk in col])
                                         for m, col in enumerate(i_blocks)}),
                       Homotopy(K, K, h))
    rep = Report()
    rep.merge(validate_complex(K), prefix="K.")
    rep.merge(verify_chain_map(inst.j), prefix="j.")
    rep.merge(verify_chain_map(inst.u), prefix="u.")
    if inst.u.compose(inst.j) != d.r.compose(d.i):
        rep.add("instant.uj_not_ri")
    rep.merge(verify_homotopy(inst.h, ChainMap.identity(K), inst.j.compose(inst.u)),
              prefix="h.")
    rep.certify("instant package fails")
    return inst


def _peel(x: ProjComplex, k: int) -> tuple[dict, ProjComplex]:
    """Split off the degrees <= k of a valid complex x, bottom first.

    At the bottom degree j, solve d_(j+1) sigma_j = e~_j, the idempotent
    left at degree j, sandwich sigma_j as e_(j+1) sigma_j e~_j, and replace
    degree j + 1 by the complementary summand e_(j+1) - sigma_j d_(j+1); the
    homology is unchanged.  Returns ({j: sigma_j}, rest), rest being the
    complex above the peeled degrees, or the empty complex at degree k + 1
    once every module is peeled.  Since H_j = im e~_j / im d_(j+1), the
    solve fails, or the last module left is not zero, exactly at the least
    degree j <= k with H_j(x) != 0; that raises TrimPreconditionError(j).
    """
    sigma, cur = {}, x
    while cur.bottom_degree <= k:
        j = cur.bottom_degree
        e_j = cur.idem(j)
        if len(cur.modules) <= 1:
            if not e_j.is_zero:
                raise TrimPreconditionError(j)
            return sigma, ProjComplex(x.ring, k + 1, (), ())
        d_next = cur.boundary(j + 1)
        s = solve_linear(d_next, e_j)
        if s is None:
            raise TrimPreconditionError(j)
        sigma[j] = s = cur.idem(j + 1) @ s @ e_j
        mods = [ProjModule(cur.idem(j + 1) - s @ d_next)] + list(cur.modules[2:])
        cur = ProjComplex(cur.ring, j + 1, mods, cur.boundaries[1:])
    return sigma, cur


def _witness_from_acyclic(t: ProjComplex, special_degree: int,
                          special_offset: int, special: ProjModule
                          ) -> StableFreenessWitness:
    """Stable-freeness witness for the unique non-free module of an acyclic t.

    The splittings sigma_j of _peel(t, top) make theta = d + sigma its own
    inverse.  d_(j+1) sigma_j = e~_j, the idempotent left at degree j,
    and sigma_j = sigma_j e~_j, so sigma_j d sigma_j = sigma_j; with
    e~_(j+1) = e_(j+1) - sigma_j d_(j+1) that gives sigma_(j+1) sigma_j =
    sigma_(j+1) (sigma_j - sigma_j d sigma_j) = 0.  Also d sigma + sigma d = e
    in every degree below the top, and at the top too since _peel checks
    that the module left there is zero.  Hence theta^2 = d d + d sigma +
    sigma d + sigma sigma = e.  theta exchanges the odd and the even degrees, so with
    the special module first among the odd coordinates, iso is theta from
    odd to even and iso_inverse theta from even to odd.
    """
    sigma, _ = _peel(t, t.top_degree)

    def block(b, a):
        if b == a - 1:
            return t.boundary(a)
        if b == a + 1:
            return sigma[a]
        return Mat.zero(t.ring, t.rank_at(b), t.rank_at(a))

    degs = t.degrees()
    theta = Mat.block([[block(b, a) for a in degs] for b in degs])
    at = {n: sum(t.rank_at(m) for m in range(degs[0], n)) for n in degs}

    def coords(parity):
        return [x for n in degs if n % 2 == parity
                for x in range(at[n], at[n] + t.rank_at(n))]

    sp_at = at[special_degree] + special_offset
    sp = range(sp_at, sp_at + special.ambient_rank)
    even, odd = coords(0), list(sp) + [x for x in coords(1) if x not in sp]
    w = StableFreenessWitness(len(odd) - len(sp), len(even),
                              theta.submatrix(even, odd), theta.submatrix(odd, even))
    verify_stable_freeness(special, w).certify("constructed witness fails")
    return w


def stable_freeness_witness(inst: InstantData) -> StableFreenessWitness | None:
    """Witness that im(P) is stably free, or None when A has a non-free module.

    Built from a contraction of the cone on u: K -> A; the cone is acyclic
    because u is an equivalence.
    """
    d = inst.domination
    if not all(d.A.module(n).is_free for n in d.A.degrees()):
        return None
    # inst.u is certified by build_instant, so its cone needs no recheck.
    cone = _cone(inst.u)
    # In the cone, degree n holds A_n then K_{n-1}; the projective block
    # K_0 = (F, P) sits at cone degree 1 with offset rank(A_1).
    return _witness_from_acyclic(cone, 1, d.A.rank_at(1), inst.reduction.module(0))


def finiteness_obstruction(d: Domination) -> ObstructionReport:
    """(chi, sigma) of the finite projective truncation of a domination."""
    inst = build_instant(d)
    rep = split_k0(k0_class_of_complex(inst.reduction))
    if rep.sigma_zero_witness is None and (w := stable_freeness_witness(inst)) is not None:
        # K's only non-free module is K_0 = im(P), so sigma's plus side is
        # exactly im(P).
        rep = ObstructionReport(rep.chi, rep.sigma, w, inst.reduction.module(0))
    return rep


class TrimPreconditionError(ValueError):
    """The complex has nonvanishing homology at or below the trim degree."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"homology does not vanish at degree {degree}")


@dataclass(frozen=True)
class TrimResult:
    """A shortened complex plus the splittings used to peel each degree."""

    complex: ProjComplex
    splittings: dict  # degree j -> sigma with d_{j+1} sigma = e_j


def trim_below(x: ProjComplex, k: int) -> TrimResult:
    """Peel degrees <= k off a complex whose homology vanishes there.

    Each step splits the bottom boundary surjection and replaces the module
    above by the complementary projective summand; homology is preserved.
    An invalid x raises VerificationFailed with validate_complex's report,
    a Laurent ring UnsupportedRing, and nonvanishing homology at a degree
    <= k TrimPreconditionError from _peel.  Each splitting is checked on
    x's own data, d_(j+1) sigma_j + sigma_(j-1) d_j = e_j, and the result
    is certified once; a failure of either is an ArithmeticError.
    """
    _lattice_checked(x)
    splittings, rest = _peel(x, k)
    for j, sigma in splittings.items():
        lhs = x.boundary(j + 1) @ sigma
        if j - 1 in splittings:
            lhs = lhs + splittings[j - 1] @ x.boundary(j)
        if lhs != x.idem(j):
            raise ArithmeticError(f"trim splitting fails at degree {j}")
    validate_complex(rest).certify("trim result invalid")
    return TrimResult(rest, splittings)


def free_replacement(x: ProjComplex, w: StableFreenessWitness
                     ) -> tuple[ProjComplex, ChainMap, ChainMap]:
    """Replace the unique non-free module through its stable-freeness witness.

    Forms the direct sum of x and E = (R^a --1--> R^a) in degrees k + 1 and
    k, where the non-free P sits at degree k, so that degree k holds
    P + R^a; then changes basis there by the witness, P + R^a = R^b.  The
    forward map is the inclusion of x followed by iso at degree k, the
    backward map iso_inverse followed by the projection onto x.  Returns
    the all-free complex together with the two equivalence maps; an x that
    is already all free comes back with identity maps, once w checks as a
    witness for the free P = R^(b - a).  An invalid x, or a w that fails
    verify_stable_freeness, raises VerificationFailed; the result and both
    maps are certified.
    """
    validate_complex(x).require("invalid complex")
    ring = x.ring
    nonfree = [n for n in x.degrees() if not x.module(n).is_free]
    if len(nonfree) > 1:
        raise ValueError(f"more than one non-free module: degrees {nonfree}")
    p = x.module(nonfree[0]) if nonfree else ProjModule.free(ring, max(w.b - w.a, 0))
    verify_stable_freeness(p, w).require("witness fails")
    if not nonfree:
        ident = ChainMap.identity(x)
        return x, ident, ident
    k = nonfree[0]
    elem = ProjComplex.free_complex(ring, k, [w.a, w.a], [Mat.identity(ring, w.a)])
    total = direct_sum(x, elem)
    j = k - total.bottom_degree
    mods, bnds = list(total.modules), list(total.boundaries)
    mods[j] = ProjModule.free(ring, w.b)
    if j:
        bnds[j - 1] = bnds[j - 1] @ w.iso_inverse
    bnds[j] = w.iso @ bnds[j]
    out = ProjComplex(ring, total.bottom_degree, mods, bnds)
    validate_complex(out).certify("replacement invalid")
    fwd = {n: Mat.diag(ring, x.idem(n), Mat.zero(ring, elem.rank_at(n), 0))
           for n in out.degrees()}
    bwd = {n: Mat.diag(ring, x.idem(n), Mat.zero(ring, 0, elem.rank_at(n)))
           for n in out.degrees()}
    fwd[k], bwd[k] = w.iso @ fwd[k], bwd[k] @ w.iso_inverse
    f = ChainMap(x, out, fwd)
    g = ChainMap(out, x, bwd)
    for mp in (f, g):
        verify_chain_map(mp).certify("replacement equivalence fails")
    return out, f, g
