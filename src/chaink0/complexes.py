"""Bounded chain complexes of projective modules, chain maps, homotopies,
mapping cones, and homology of the underlying integer lattices.

A projective module is the image of an idempotent matrix; free modules are
the identity-idempotent special case.  Boundaries lower degree by one and
matrices act on column vectors.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import intlinalg
from .matrices import Mat, ShapeError
from .rings import Ring, RingMismatch, UnsupportedRing
from .verdicts import Report


class ProjModule:
    """A finitely generated projective module: im(e) for an idempotent e."""

    __slots__ = ("ring", "ambient_rank", "idem", "_free", "_idempotent")

    def __init__(self, idem: Mat):
        if idem.rows != idem.cols:
            raise ShapeError("idempotent must be square")
        object.__setattr__(self, "ring", idem.ring)
        object.__setattr__(self, "ambient_rank", idem.rows)
        object.__setattr__(self, "idem", idem)
        object.__setattr__(self, "_free", None)
        object.__setattr__(self, "_idempotent", None)

    def __setattr__(self, name, value):
        raise AttributeError("modules are immutable")

    @classmethod
    def free(cls, ring: Ring, rank: int) -> "ProjModule":
        return cls(Mat.identity(ring, rank))

    @property
    def is_free(self) -> bool:
        """Whether idem is the identity; compared once, then cached."""
        if self._free is None:
            object.__setattr__(self, "_free",
                               self.idem == Mat.identity(self.ring, self.ambient_rank))
        return self._free

    @property
    def is_idempotent(self) -> bool:
        """Whether idem @ idem == idem; checked once, then cached."""
        if self._idempotent is None:
            object.__setattr__(self, "_idempotent", self.idem.is_idempotent())
        return self._idempotent

    @property
    def is_zero(self) -> bool:
        return self.idem.is_zero

    def validate(self) -> Report:
        rep = Report()
        if not self.is_free and not self.is_idempotent:
            rep.add("module.not_idempotent")
        return rep

    def __eq__(self, other):
        if not isinstance(other, ProjModule):
            return NotImplemented
        return self.idem == other.idem

    def __hash__(self):
        return hash(self.idem)

    def __repr__(self):
        tag = "free" if self.is_free else "proj"
        return f"ProjModule({tag}, ambient={self.ambient_rank}, ring={self.ring!r})"


class ProjComplex:
    """A bounded complex; modules[j] sits in degree bottom_degree + j."""

    __slots__ = ("ring", "bottom_degree", "modules", "boundaries")

    def __init__(self, ring: Ring, bottom_degree: int, modules, boundaries):
        modules = tuple(modules)
        boundaries = tuple(boundaries)
        if modules and len(boundaries) != len(modules) - 1:
            raise ShapeError("need one boundary per adjacent pair of modules")
        if not modules and boundaries:
            raise ShapeError("boundaries without modules")
        for m in modules:
            if m.ring != ring:
                raise RingMismatch("module over the wrong ring")
        for j, d in enumerate(boundaries):
            if d.ring != ring:
                raise RingMismatch("boundary over the wrong ring")
            if d.rows != modules[j].ambient_rank or d.cols != modules[j + 1].ambient_rank:
                raise ShapeError(f"boundary {j} has shape {d.rows}x{d.cols}")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "bottom_degree", bottom_degree)
        object.__setattr__(self, "modules", modules)
        object.__setattr__(self, "boundaries", boundaries)

    def __setattr__(self, name, value):
        raise AttributeError("complexes are immutable")

    @classmethod
    def free_complex(cls, ring: Ring, bottom_degree: int, ranks, boundaries) -> "ProjComplex":
        """Free modules of these ranks, one module object per distinct rank."""
        ranks = tuple(ranks)
        free = {r: ProjModule.free(ring, r) for r in set(ranks)}
        return cls(ring, bottom_degree, [free[r] for r in ranks], boundaries)

    @classmethod
    def zero(cls, ring: Ring) -> "ProjComplex":
        return cls(ring, 0, (), ())

    @property
    def top_degree(self) -> int:
        return self.bottom_degree + len(self.modules) - 1

    def degrees(self) -> range:
        return range(self.bottom_degree, self.bottom_degree + len(self.modules))

    def module(self, n: int) -> ProjModule:
        j = n - self.bottom_degree
        if 0 <= j < len(self.modules):
            return self.modules[j]
        return ProjModule(Mat.zero(self.ring, 0, 0))

    def rank_at(self, n: int) -> int:
        return self.module(n).ambient_rank

    def boundary(self, n: int) -> Mat:
        """The map out of degree n, into degree n - 1 (zero off the support)."""
        j = n - self.bottom_degree
        if 1 <= j < len(self.modules):
            return self.boundaries[j - 1]
        return Mat.zero(self.ring, self.rank_at(n - 1), self.rank_at(n))

    def idem(self, n: int) -> Mat:
        return self.module(n).idem

    def __eq__(self, other):
        if not isinstance(other, ProjComplex):
            return NotImplemented
        return (self.ring == other.ring and self.bottom_degree == other.bottom_degree
                and self.modules == other.modules and self.boundaries == other.boundaries)

    def __repr__(self):
        ranks = ", ".join(str(m.ambient_rank) for m in self.modules)
        return (f"ProjComplex(bottom={self.bottom_degree}, ranks=[{ranks}], "
                f"ring={self.ring!r})")


def _inside(out: ProjModule, x: Mat, into: ProjModule) -> bool:
    """out.idem @ x @ into.idem == x, without forming a product by a free
    module's idempotent, which is the identity."""
    y = x if out.is_free else out.idem @ x
    if not into.is_free:
        y = y @ into.idem
    return y is x or y == x


def validate_complex(x: ProjComplex) -> Report:
    """Check d@d = 0 and that boundaries respect the projective summands.

    d_n @ d_(n+1) is formed once per distinct pair of boundary objects; a
    pair that recurs is still reported at every degree where it fails."""
    rep = Report()
    for n in x.degrees():
        if not x.module(n).validate().ok:
            rep.add("complex.module_not_idempotent", degree=n)
    dd_zero = {}
    for n in x.degrees():
        d = x.boundary(n)
        if n - 1 in x.degrees() and n + 1 in x.degrees():
            key = id(d), id(x.boundary(n + 1))
            if key not in dd_zero:
                dd_zero[key] = (d @ x.boundary(n + 1)).is_zero
            if not dd_zero[key]:
                rep.add("complex.dd_nonzero", degree=n + 1)
        if n - 1 in x.degrees():
            if not _inside(x.module(n - 1), d, x.module(n)):
                rep.add("complex.boundary_escapes_summand", degree=n)
    return rep


class _GradedMap:
    """A degreewise map phi_n: X_n -> Y_(n + degree) between two complexes;
    absent degrees are zero.  Chain maps have degree 0, homotopies 1."""

    __slots__ = ("source", "target", "components")
    degree = 0
    # (the map, a component, the plural) as named in error messages
    _names = ("chain map", "component", "chain maps")

    def __init__(self, source: ProjComplex, target: ProjComplex, components: dict):
        noun, part, _ = self._names
        if source.ring != target.ring:
            raise RingMismatch(f"{noun} between different rings")
        comps = {}
        for n, m in components.items():
            if m.ring != source.ring:
                raise RingMismatch(f"{part} {n} over the wrong ring")
            if m.rows != target.rank_at(n + self.degree) or m.cols != source.rank_at(n):
                raise ShapeError(f"{part} {n} has shape {m.rows}x{m.cols}")
            if not m.is_zero:
                comps[n] = m
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError(f"{self._names[2]} are immutable")

    def component(self, n: int) -> Mat:
        c = self.components.get(n)
        if c is not None:
            return c
        return Mat.zero(self.source.ring, self.target.rank_at(n + self.degree),
                        self.source.rank_at(n))

    @classmethod
    def zero(cls, source: ProjComplex, target: ProjComplex | None = None):
        return cls(source, target or source, {})

    def __repr__(self):
        return f"{type(self).__name__}(degrees={sorted(self.components)})"


def _verify_graded(phi: _GradedMap, code: str, failure: str, diff=None) -> Report:
    """phi_n inside the summands, and d phi - (-1)^k phi d, for phi of
    degree k, equal to 0 (diff None) or to diff(n) in every degree n."""
    rep = Report()
    x, y, k = phi.source, phi.target, phi.degree
    for n in sorted(set(x.degrees()) | set(y.degrees())):
        pn = phi.component(n)
        if not _inside(y.module(n + k), pn, x.module(n)):
            rep.add(f"{code}.escapes_summand", degree=n)
        d_phi = y.boundary(n + k) @ pn
        phi_d = phi.component(n - 1) @ x.boundary(n)
        if (d_phi != phi_d) if diff is None else (d_phi + phi_d != diff(n)):
            rep.add(f"{code}.{failure}", degree=n)
    return rep


class ChainMap(_GradedMap):
    """A degreewise map f_n between two complexes; absent degrees are zero."""

    __slots__ = ()

    @classmethod
    def identity(cls, x: ProjComplex) -> "ChainMap":
        """The identity on a projective complex: components are the idempotents."""
        return cls(x, x, {n: x.idem(n) for n in x.degrees()})

    def compose(self, first: "ChainMap") -> "ChainMap":
        """self after first (right-to-left)."""
        if first.target is not self.source and first.target != self.source:
            raise ShapeError("composition through mismatched complexes")
        degs = set(self.components) | set(first.components)
        return ChainMap(first.source, self.target,
                        {n: self.component(n) @ first.component(n) for n in degs})

    def __eq__(self, other):
        if not isinstance(other, ChainMap):
            return NotImplemented
        if self.source != other.source or self.target != other.target:
            return False
        degs = set(self.components) | set(other.components)
        return all(self.component(n) == other.component(n) for n in degs)


def verify_chain_map(f: ChainMap) -> Report:
    """Exactness of every commuting square plus idempotent compatibility."""
    return _verify_graded(f, "map", "square_fails")


class Homotopy(_GradedMap):
    """A degreewise s_n: X_n -> Y_{n+1} between two complexes."""

    __slots__ = ()
    degree = 1
    _names = ("homotopy", "homotopy component", "homotopies")


def verify_homotopy(s: Homotopy, f: ChainMap, g: ChainMap) -> Report:
    """Check s d + d s = f - g degreewise, plus idempotent compatibility."""
    rep = Report()
    if f.source != g.source or f.target != g.target:
        rep.add("homotopy.map_pair_mismatch")
        return rep
    if s.source != f.source or s.target != f.target:
        rep.add("homotopy.wrong_complexes")
        return rep
    return _verify_graded(s, "homotopy", "identity_fails",
                          lambda n: f.component(n) - g.component(n))


@dataclass(frozen=True)
class HomologyResult:
    """Underlying-abelian-group homology: per-degree betti and torsion chain."""

    groups: tuple  # of (degree, betti, torsion-tuple), nontrivial entries only

    @classmethod
    def from_dict(cls, by_degree: dict) -> "HomologyResult":
        items = tuple((n, b, tuple(t)) for n, (b, t) in sorted(by_degree.items())
                      if b or t)
        return cls(items)

    def at(self, n: int) -> tuple[int, tuple[int, ...]]:
        for deg, b, t in self.groups:
            if deg == n:
                return b, t
        return 0, ()

    def betti(self, n: int) -> int:
        return self.at(n)[0]

    def torsion(self, n: int) -> tuple[int, ...]:
        return self.at(n)[1]

    def as_dict(self) -> dict:
        return {str(n): {"betti": b, "torsion": list(t)} for n, b, t in self.groups}

    def __repr__(self):
        if not self.groups:
            return "HomologyResult(0)"
        parts = []
        for n, b, t in self.groups:
            pieces = ["Z"] * b + [f"Z/{k}" for k in t]
            parts.append(f"H{n}=" + "+".join(pieces))
        return "HomologyResult(" + ", ".join(parts) + ")"


def _lattice_checked(x: ProjComplex) -> int:
    validate_complex(x).require("invalid complex")
    if x.ring.flat_rank is None:
        raise UnsupportedRing(f"homology over {x.ring.kind} is unsupported")
    return x.ring.flat_rank


def homology(x: ProjComplex) -> HomologyResult:
    """Homology of the underlying integer lattice, inside idempotent images.

    With e_n and d_n flattened to integer matrices, the ambient free complex
    is the lattice complex plus the free lattices im(1 - e_n) with zero
    boundary: d_n = d_n e_n puts im(1 - e_n) inside ker d_n, and im d_{n+1}
    lies in im e_n.  So H_n has betti = trace(e_n) - rank d_n - rank d_{n+1}
    and torsion = the invariant factors > 1 of d_{n+1}.  That is one Smith
    normal form per distinct boundary object, read for its diagonal only, so
    a swindle prefix, whose boundaries alternate two objects, runs two;
    trace(e_n) is read once per distinct idempotent object, from the regular
    representations of its diagonal entries.

    Raises VerificationFailed, with validate_complex's report, on an
    invalid complex, and then UnsupportedRing over a Laurent ring.
    """
    k = _lattice_checked(x)
    ranks, torsion, reduced = {}, {}, {}
    for n, d in zip(x.degrees()[1:], x.boundaries):
        if id(d) not in reduced:
            diag = intlinalg.smith_normal_form(d.flatten(), d.cols * k).diagonal()
            reduced[id(d)] = sum(1 for a in diag if a), tuple(a for a in diag if a > 1)
        ranks[n], torsion[n] = reduced[id(d)]
    out, traces = {}, {}
    for n in x.degrees():
        e = x.idem(n)
        if id(e) not in traces:
            blocks = [x.ring.regular_representation(e[i, i]) for i in range(e.rows)]
            traces[id(e)] = sum(b[a][a] for b in blocks for a in range(k))
        out[n] = (traces[id(e)] - ranks.get(n, 0) - ranks.get(n + 1, 0),
                  torsion.get(n + 1, ()))
    return HomologyResult.from_dict(out)


def mapping_cone(f: ChainMap) -> ProjComplex:
    """Cone_n = target_n + source_{n-1} with boundary [[d', f], [0, -d]];
    VerificationFailed, with verify_chain_map's report, refuses a bad f."""
    verify_chain_map(f).require("invalid chain map")
    return _cone(f)


def _cone(f: ChainMap) -> ProjComplex:
    """mapping_cone for a chain map already known to be valid."""
    src, tgt = f.source, f.target
    ring = src.ring
    if not src.modules and not tgt.modules:
        return ProjComplex.zero(ring)
    degs = sorted(set(tgt.degrees()) | {n + 1 for n in src.degrees()})
    lo, hi = degs[0], degs[-1]
    mods = [ProjModule(Mat.diag(ring, tgt.idem(n), src.idem(n - 1)))
            for n in range(lo, hi + 1)]
    bnds = []
    for n in range(lo + 1, hi + 1):
        bnds.append(Mat.block([
            [tgt.boundary(n), f.component(n - 1)],
            [Mat.zero(ring, src.rank_at(n - 2), tgt.rank_at(n)),
             -src.boundary(n - 1)],
        ]))
    return ProjComplex(ring, lo, mods, bnds)


def shift(x: ProjComplex, k: int) -> ProjComplex:
    return ProjComplex(x.ring, x.bottom_degree + k, x.modules, x.boundaries)


def direct_sum(x: ProjComplex, y: ProjComplex) -> ProjComplex:
    if x.ring != y.ring:
        raise RingMismatch("direct sum over different rings")
    if not x.modules:
        return y
    if not y.modules:
        return x
    ring = x.ring
    lo = min(x.bottom_degree, y.bottom_degree)
    hi = max(x.top_degree, y.top_degree)
    mods = [ProjModule(Mat.diag(ring, x.idem(n), y.idem(n)))
            for n in range(lo, hi + 1)]
    bnds = [Mat.diag(ring, x.boundary(n), y.boundary(n))
            for n in range(lo + 1, hi + 1)]
    return ProjComplex(ring, lo, mods, bnds)


def tensor_with_laurent(x: ProjComplex) -> ProjComplex:
    """Base change along the canonical inclusion into the Laurent extension."""
    from .rings import LaurentRing
    ext = LaurentRing(x.ring)
    mods = [ProjModule(m.idem.map_entries(ext.include, ext)) for m in x.modules]
    bnds = [d.map_entries(ext.include, ext) for d in x.boundaries]
    return ProjComplex(ext, x.bottom_degree, mods, bnds)
