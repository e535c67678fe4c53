"""The instant finiteness obstruction.

From a chain domination (A, C, i, r, s) with s d + d s = 1 - r i, assemble
one block idempotent P on F = C_0 + ... + C_n:

    P[j][k]   = (-1)^k i_j s^(j-k) r_k, plus 1 when j = k is odd  (k <= j)
    P[j][j+1] = (-1)^j d_(j+1),  and every block above that is 0.

Everything else is read off P.  On F_m = C_m + ... + C_n the boundary
F_m -> F_(m-1) is the block of P (m odd) or of 1 - P (m even) on rows
C_(m-1..n) and columns C_(m..n); below degree 0 the complex continues with
the same pattern 1 - P, P, 1 - P, ...  The comparison maps are
I[m] = (i_c s^(c-m))_c, R[m] = [r_m | 0] and the homotopy h[m] = [0 | 1].
The finite projective truncation has im(P) in degree 0, and its class in
reduced K0 is the finiteness obstruction.

Also here: the trim construction that shortens a complex with acyclic
bottom degrees, and the replacement of a stably free module by free ones.
"""
from __future__ import annotations

from dataclasses import dataclass

from .complexes import (ChainMap, Homotopy, ProjComplex, ProjModule,
                        homology, mapping_cone, validate_complex,
                        verify_chain_map, verify_homotopy)
from .matrices import Mat, MatrixSolver
from .projective import (ObstructionReport, StableFreenessWitness, k0_class_of_complex,
                         sigma_module, split_k0, verify_stable_freeness)
from .verdicts import Report, VerificationFailed


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
    """The assembled instant-obstruction package.

    boundaries[m-1] is the map F_m -> F_{m-1} for m = 1..n, a block of P or
    of 1-P; below degree 0 the complex continues with the alternating
    pattern 1-P, P, 1-P, ... which is never materialized.
    """

    domination: Domination
    F_rank: int
    P: Mat
    boundaries: tuple
    I: tuple  # I[m]: A_m -> F_m
    R: tuple  # R[m]: F_m -> A_m
    IR_homotopy: tuple  # h[m]: F_m -> F_{m+1}, m = 0..n-1

    def f_rank(self, m: int) -> int:
        c = self.domination.C
        return sum(c.rank_at(j) for j in range(m, self.domination.top + 1))


def build_instant(d: Domination) -> InstantData:
    """Assemble P, the boundaries of F_*, I, R, and the IR homotopy.

    The domination is verified first, here and nowhere else on the way to
    an obstruction; a failure raises VerificationFailed with its report.
    Every defining identity (P idempotent, boundaries composing to zero
    including the periodic tail, R I = r i, the homotopy certificates) is
    verified exactly before returning.
    """
    rep = verify_domination(d)
    if not rep.ok:
        raise VerificationFailed("invalid domination", rep)
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
    boundaries = tuple(
        (P if m % 2 else one_minus_P).submatrix(range(offset[m - 1], F),
                                                range(offset[m], F))
        for m in range(1, n + 1))
    I_maps = tuple(Mat.block([[blk] for blk in col]) for col in i_blocks)
    R_maps = tuple(Mat.block([[d.r.component(m),
                               Mat.zero(ring, d.A.rank_at(m), F - offset[m + 1])]])
                   for m in degs)
    homos = tuple(Mat.block([[Mat.zero(ring, F - offset[m + 1], rank(m)),
                              Mat.identity(ring, F - offset[m + 1])]])
                  for m in range(0, n))
    inst = InstantData(d, F, P, boundaries, I_maps, R_maps, homos)
    _audit_instant(inst)
    return inst


def _audit_instant(inst: InstantData) -> None:
    """Exact verification of every defining identity; raises on any failure."""
    d = inst.domination
    ring = d.A.ring
    n = d.top
    P = inst.P
    if not P.is_idempotent():
        raise ArithmeticError("instant idempotent fails P@P = P")
    for m in range(2, n + 1):
        if not (inst.boundaries[m - 2] @ inst.boundaries[m - 1]).is_zero:
            raise ArithmeticError(f"boundaries {m} and {m - 1} do not compose to zero")
    if n >= 1:
        # The tail below degree 0 starts with 1 - P, so the composite
        # (1 - P) d_1 must vanish, i.e. P absorbs d_1.
        if (P @ inst.boundaries[0]) != inst.boundaries[0]:
            raise ArithmeticError("d_1 does not land in im(P)")
    for m in range(0, n + 1):
        ri = d.r.component(m) @ d.i.component(m)
        if (inst.R[m] @ inst.I[m]) != ri:
            raise ArithmeticError(f"R I != r i at degree {m}")
    if (P @ inst.I[0]) != inst.I[0]:
        raise ArithmeticError("I_0 does not land in im(P)")
    for m in range(0, n + 1):
        rank = inst.f_rank(m)
        ident = P if m == 0 else Mat.identity(ring, rank)
        h_up = inst.IR_homotopy[m] if m < n else Mat.zero(ring, 0, rank)
        dh = (inst.boundaries[m] @ h_up if m < n
              else Mat.zero(ring, rank, rank))
        hd = (inst.IR_homotopy[m - 1] @ inst.boundaries[m - 1] if m >= 1
              else Mat.zero(ring, rank, rank))
        if (dh + hd) != ident - inst.I[m] @ inst.R[m]:
            raise ArithmeticError(f"IR homotopy identity fails at degree {m}")


def finite_projective_reduction(inst: InstantData) -> ProjComplex:
    """The finite truncation: im(P) at degree 0, free F_m in degrees 1..n.

    Not validated again: build_instant's audit already proved everything
    validate_complex tests here (P@P = P, d_{m-1} d_m = 0, P d_1 = d_1, and
    the free modules are identities).
    """
    d = inst.domination
    ring = d.A.ring
    mods = [ProjModule(inst.P)]
    for m in range(1, d.top + 1):
        mods.append(ProjModule.free(ring, inst.f_rank(m)))
    return ProjComplex(ring, 0, mods, list(inst.boundaries))


def reduction_comparison_maps(inst: InstantData) -> tuple[ChainMap, ChainMap, Homotopy]:
    """(u: K -> A, j: A -> K, h) with u j = r i on A and j u homotopic to 1_K."""
    d = inst.domination
    red = finite_projective_reduction(inst)
    n = d.top
    u_comps = {}
    j_comps = {}
    for m in range(0, n + 1):
        um = inst.R[m]
        if m == 0:
            um = um @ inst.P
        u_comps[m] = um
        j_comps[m] = inst.I[m]
    u = ChainMap(red, d.A, u_comps)
    j = ChainMap(d.A, red, j_comps)
    h_comps = {m: inst.IR_homotopy[m] for m in range(0, n)}
    if n >= 1:
        h_comps[0] = inst.IR_homotopy[0] @ inst.P
    h = Homotopy(red, red, h_comps)
    return u, j, h


def _peel(x: ProjComplex, k: int):
    """Split off the bottom degrees <= k of x, one at a time.

    At the bottom degree j, solve d_(j+1) sigma = e_j, sandwich sigma as
    e_(j+1) sigma e_j, and replace degree j + 1 by the complementary summand
    e_(j+1) - sigma d_(j+1).  Yields (j, sigma, rest) after each step, rest
    being the complex from degree j + 1 on; stops when one module is left.
    Raises ArithmeticError when some d_(j+1) does not split.
    """
    cur = x
    while cur.bottom_degree <= k and len(cur.modules) != 1:
        j = cur.bottom_degree
        e_j = cur.idem(j)
        d_next = cur.boundary(j + 1)
        sigma = MatrixSolver(d_next).solve_matrix(e_j)
        if sigma is None:
            raise ArithmeticError(f"bottom splitting unsolvable at degree {j}")
        sigma = cur.idem(j + 1) @ sigma @ e_j
        mods = [ProjModule(cur.idem(j + 1) - sigma @ d_next)] + list(cur.modules[2:])
        cur = ProjComplex(cur.ring, j + 1, mods, cur.boundaries[1:])
        yield j, sigma, cur


def _witness_from_acyclic(t: ProjComplex, special_degree: int,
                          special_offset: int, special: ProjModule
                          ) -> StableFreenessWitness:
    """Stable-freeness witness for the unique non-free module of an acyclic t.

    The splittings sigma_j of _peel(t, top - 1) make theta = d + sigma its
    own inverse.  d_(j+1) sigma_j = e~_j, the idempotent left at degree j,
    and sigma_j = sigma_j e~_j, so sigma_j d sigma_j = sigma_j; with
    e~_(j+1) = e_(j+1) - sigma_j d_(j+1) that gives sigma_(j+1) sigma_j =
    sigma_(j+1) (sigma_j - sigma_j d sigma_j) = 0.  Also d sigma + sigma d = e
    in every degree below the top, and at the top too exactly when the
    module left there is zero.  Hence theta^2 = d d + d sigma + sigma d +
    sigma sigma = e.  theta exchanges the odd and the even degrees, so with
    the special module first among the odd coordinates, iso is theta from
    odd to even and iso_inverse theta from even to odd.
    """
    lo, hi = t.bottom_degree, t.top_degree
    sigma, rest = {}, t
    for j, s, rest in _peel(t, hi - 1):
        sigma[j] = s
    if not rest.idem(hi).is_zero:
        raise ArithmeticError("contraction fails at the top degree")

    def block(b, a):
        if b == a - 1:
            return t.boundary(a)
        if b == a + 1:
            return sigma[a]
        return Mat.zero(t.ring, t.rank_at(b), t.rank_at(a))

    degs = t.degrees()
    theta = Mat.block([[block(b, a) for a in degs] for b in degs])
    at = {n: sum(t.rank_at(m) for m in range(lo, n)) for n in degs}

    def coords(parity):
        return [x for n in degs if n % 2 == parity
                for x in range(at[n], at[n] + t.rank_at(n))]

    sp_at = at[special_degree] + special_offset
    sp = range(sp_at, sp_at + special.ambient_rank)
    even, odd = coords(0), list(sp) + [x for x in coords(1) if x not in sp]
    w = StableFreenessWitness(len(odd) - len(sp), len(even),
                              theta.submatrix(even, odd), theta.submatrix(odd, even))
    chk = verify_stable_freeness(special, w)
    if not chk.ok:
        raise ArithmeticError(
            f"constructed witness fails: {chk.as_dict()['violations']}")
    return w


def stable_freeness_witness(inst: InstantData) -> StableFreenessWitness:
    """Witness that im(P) is stably free, valid whenever A is all free.

    Built from a contraction of the cone on the comparison map from the
    reduction to A; the cone is acyclic because the comparison map is an
    equivalence.
    """
    d = inst.domination
    for n in d.A.degrees():
        if not d.A.module(n).is_free:
            raise ValueError("witness construction needs an all-free dominated complex")
    u, _, _ = reduction_comparison_maps(inst)
    cone = mapping_cone(u)
    # In the cone, degree n holds A_n then K_{n-1}; the projective block
    # K_0 = (F, P) sits at cone degree 1 with offset rank(A_1).
    special = ProjModule(inst.P)
    return _witness_from_acyclic(cone, 1, d.A.rank_at(1), special)


def finiteness_obstruction(d: Domination) -> ObstructionReport:
    """(chi, sigma) of the finite projective truncation of a domination."""
    inst = build_instant(d)
    red = finite_projective_reduction(inst)
    rep = split_k0(k0_class_of_complex(red))
    all_free = all(d.A.module(n).is_free for n in d.A.degrees())
    if all_free and rep.sigma_zero_witness is None:
        module = sigma_module(rep.sigma)
        if module.ambient_rank == inst.F_rank and module.idem == inst.P:
            witness = stable_freeness_witness(inst)
            rep = ObstructionReport(rep.chi, rep.sigma, witness, module)
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
    """
    h = homology(x)
    for n in range(x.bottom_degree, k + 1):
        if h.at(n) != (0, ()):
            raise TrimPreconditionError(n)
    cur = x
    splittings = {}
    for j, sigma, cur in _peel(x, k):
        splittings[j] = sigma
        rep = validate_complex(cur)
        if not rep.ok:
            raise ArithmeticError(f"trim produced an invalid complex at {j}")
    if cur.bottom_degree <= k:      # one acyclic, hence zero, module left
        cur = ProjComplex(x.ring, k + 1, (), ())
    return TrimResult(cur, splittings)


def free_replacement(x: ProjComplex, w: StableFreenessWitness
                     ) -> tuple[ProjComplex, ChainMap, ChainMap]:
    """Replace the unique non-free module through its stable-freeness witness.

    Adds an elementary R^a = R^a summand one degree up, then changes basis
    at the non-free degree by the witness isomorphism.  Returns the all-free
    complex together with the forward and backward equivalence maps.
    """
    ring = x.ring
    nonfree = [n for n in x.degrees() if not x.module(n).is_free]
    if not nonfree:
        ident = ChainMap.identity(x)
        return x, ident, ident
    if len(nonfree) > 1:
        raise ValueError(f"more than one non-free module: degrees {nonfree}")
    k = nonfree[0]
    p = x.module(k)
    chk = verify_stable_freeness(p, w)
    if not chk.ok:
        raise ValueError(f"witness fails: {chk.as_dict()['violations']}")
    a = w.a

    def stabilized(mat):        # mat + the identity of R^a
        return Mat.diag(ring, mat, Mat.identity(ring, a))

    def pad_rows(mat):          # a zero rows below mat
        return Mat.diag(ring, mat, Mat.zero(ring, a, 0))

    def pad_cols(mat):          # a zero columns right of mat
        return Mat.diag(ring, mat, Mat.zero(ring, 0, a))

    def stabilized_module(n):
        if n == k:
            return ProjModule.free(ring, w.b)
        if n == k + 1:
            return ProjModule(stabilized(x.idem(n)))
        return x.module(n)

    lo = min(x.bottom_degree, k)
    hi = max(x.top_degree, k + 1)
    mods = [stabilized_module(n) for n in range(lo, hi + 1)]
    bnds = []
    for n in range(lo + 1, hi + 1):
        dn = x.boundary(n)
        if n == k:
            bnds.append(pad_cols(dn) @ w.iso_inverse)
        elif n == k + 1:
            bnds.append(w.iso @ stabilized(dn))
        elif n == k + 2:
            bnds.append(pad_rows(dn))
        else:
            bnds.append(dn)
    out = ProjComplex(ring, lo, mods, bnds)
    rep = validate_complex(out)
    if not rep.ok:
        raise ArithmeticError(f"replacement invalid: {rep.as_dict()['violations']}")

    fwd = {}
    bwd = {}
    for n in range(lo, hi + 1):
        if n == k:
            fwd[n] = w.iso @ pad_rows(p.idem)
            bwd[n] = pad_cols(p.idem) @ w.iso_inverse
        elif n == k + 1:
            fwd[n] = pad_rows(x.idem(n))
            bwd[n] = pad_cols(x.idem(n))
        else:
            fwd[n] = x.idem(n)
            bwd[n] = x.idem(n)
    f = ChainMap(x, out, fwd)
    g = ChainMap(out, x, bwd)
    for mp in (f, g):
        r2 = verify_chain_map(mp)
        if not r2.ok:
            raise ArithmeticError(
                f"replacement equivalence fails: {r2.as_dict()['violations']}")
    return out, f, g
