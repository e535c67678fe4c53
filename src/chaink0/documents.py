"""The JSON workspace-document format: one coefficient ring per document,
named tables of modules, complexes, maps, homotopies, dominations, and
stable-freeness witnesses, with bit-exact round-tripping.

Element literals: integers as decimal strings, group-ring elements as
[[coeff, index], ...], Laurent elements as [[base-literal, exponent], ...],
quadratic elements as [a, b].  Canonical output is sorted-key, two-space
indented JSON with a trailing newline.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .complexes import ChainMap, Homotopy, ProjComplex, ProjModule
from .instant import Domination
from .matrices import Mat, ShapeError
from .projective import StableFreenessWitness
from .rings import LaurentRing, Ring, RingMismatch, ring_from_descriptor


class DocumentError(ValueError):
    """Malformed document content: bad literals, shapes, or references."""


# The largest rank a document may declare, as a module's ambient_rank or a
# witness's a or b: a "free" module and a witness's stabilizer are built as
# identity matrices of that size.
MAX_RANK = 1024
# The largest flattened rank (ambient rank times the ring's flat rank) of a
# non-free module, whose idempotent is checked by one cubic Mat product.
MAX_IDEMPOTENT_FLAT_RANK = 60
# The most flattened terms (Laurent terms times the base's rank over Z) in a
# non-free Laurent module's idempotent: the product's time grows with their square.
MAX_IDEMPOTENT_TERMS = 1000


def _key(k) -> str:
    """A dict key as json.dumps writes it; a non-str one through json.dumps."""
    return encode_basestring_ascii(k) if isinstance(k, str) else json.dumps({k: 0})[1:-4]


def _encode(o, pad: str, memo: dict) -> str:
    """o's JSON text at indent pad; memo maps (id, pad) of each dict done to its text."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o.__class__ is int:
        return int.__repr__(o)
    inner = pad + "  "
    if isinstance(o, (list, tuple)):
        items = [_encode(v, inner, memo) for v in o]
        return f"[{inner}{(',' + inner).join(items)}{pad}]" if o else "[]"
    if not isinstance(o, dict):
        return json.dumps(o)
    if (text := memo.get((id(o), pad))) is None:
        items = [f"{_key(k)}: {_encode(v, inner, memo)}" for k, v in sorted(o.items())]
        text = memo[id(o), pad] = f"{{{inner}{(',' + inner).join(items)}{pad}}}" if o else "{}"
    return text


def canonical_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\\n" byte for byte, as the
    tests pin: one str.join per container, and a dict that recurs encoded once
    per depth (the memo's keys are (id, indent); obj keeps the ids alive)."""
    return _encode(obj, "\n", {}) + "\n"


# --- literal writers --------------------------------------------------------

def matrix_literal(m: Mat) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [m.ring.literal(a) for a in m.entries]}


def module_literal(p: ProjModule) -> dict:
    lit: dict = {"ambient_rank": p.ambient_rank}
    lit["idempotent"] = "free" if p.is_free else matrix_literal(p.idem)
    return lit


def complex_literal(x: ProjComplex, base: Ring) -> dict:
    """One literal per distinct module or boundary object, shared wherever it
    recurs (x keeps the ids alive), so that canonical_json encodes it once."""
    shared: dict = {}

    def once(obj, write):
        return shared.get(id(obj)) or shared.setdefault(id(obj), write(obj))

    lit: dict = {
        "bottom_degree": x.bottom_degree,
        "modules": [once(m, module_literal) for m in x.modules],
        "boundaries": [once(d, matrix_literal) for d in x.boundaries],
    }
    if x.ring != base:
        if not (isinstance(x.ring, LaurentRing) and x.ring.base == base):
            raise DocumentError("complex over a ring not reachable from the document ring")
        lit["extension"] = "laurent"
    return lit


def _components_literal(components: dict) -> dict:
    return {str(n): matrix_literal(m) for n, m in sorted(components.items())}


def witness_literal(w: StableFreenessWitness) -> dict:
    return {"a": w.a, "b": w.b, "iso": matrix_literal(w.iso),
            "iso_inverse": matrix_literal(w.iso_inverse)}


# --- literal readers --------------------------------------------------------

def _expect(lit, key, kind=None):
    if not isinstance(lit, dict) or key not in lit:
        raise DocumentError(f"missing field {key!r}")
    v = lit[key]
    if kind is not None and (not isinstance(v, kind)
                             or kind is int and isinstance(v, bool)):
        raise DocumentError(f"field {key!r} has the wrong type")
    return v


def _count(lit, key, cap=None) -> int:
    """A non-negative integer field, at most cap: a rank, a matrix size or a
    witness count."""
    v = _expect(lit, key, int)
    if v < 0:
        raise DocumentError(f"field {key!r} must be a non-negative integer")
    if cap is not None and v > cap:
        raise DocumentError(f"field {key!r} must be at most {cap}, got {v}")
    return v


class _Shape(NamedTuple):
    """A matrix outside what a parse builds: all that the shape rules read."""
    ring: Ring
    rows: int
    cols: int
    is_zero = True


def _known(memo: dict | None, ring: Ring) -> tuple:
    """The parse's first ring equal to ring, and its memos (see parse_matrix)."""
    return (ring, {}, {}, {}) if memo is None else memo.setdefault(ring, (ring, {}, {}, {}))


def parse_matrix(lit, ring: Ring, memo: dict | None = None, build: bool = True):
    """Checks every entry literal; returns the Mat, or a _Shape if not build.
    memo, one per parse_workspace call, maps a ring to the first equal ring,
    its elements by literal and its free modules by rank, and each checked
    idempotent to its module.  A string literal (all of Z) is its own key,
    any other its repr in a second memo, so "1", 1, 1.0 and true differ."""
    rows = _count(lit, "rows")
    cols = _count(lit, "cols")
    entries = _expect(lit, "entries", list)
    if len(entries) != rows * cols:
        raise DocumentError(f"matrix needs {rows * cols} entries, got {len(entries)}")
    ring, strings, reprs, _ = _known(memo, ring)
    try:  # a list literal is unhashable, and keyed by its repr
        strs = set(map(type, distinct := set(entries))) <= {str}
    except TypeError:
        strs = False
    known, keys = (strings, entries) if strs else (reprs, list(map(repr, entries)))
    try:
        if new := (distinct if strs else set(keys)).difference(known):
            for key, e in zip(keys, entries):  # in order, so the first bad one raises
                if key in new and key not in known:
                    known[key] = ring.parse_literal(e)
    except (ValueError, TypeError, KeyError, IndexError) as ex:
        raise DocumentError(f"bad ring-element literal: {ex}") from ex
    return (Mat._of(ring, rows, cols, map(known.__getitem__, keys)) if build
            else _Shape(ring, rows, cols))


def parse_module(lit, ring: Ring, memo: dict | None = None) -> ProjModule:
    rank = _count(lit, "ambient_rank", MAX_RANK)
    idem = _expect(lit, "idempotent")
    if idem == "free":
        free = _known(memo, ring)[3]
        return free.get(rank) or free.setdefault(rank, ProjModule.free(ring, rank))
    if (flat := rank * (ring.flat_rank or 1)) > MAX_IDEMPOTENT_FLAT_RANK:
        raise DocumentError(f"field 'ambient_rank' of a non-free module: flattened rank "
                            f"must be at most {MAX_IDEMPOTENT_FLAT_RANK}, got {flat}")
    m = parse_matrix(idem, ring, memo)
    if m.rows != rank:
        raise DocumentError("idempotent size disagrees with ambient_rank")
    if isinstance(ring, LaurentRing) and (terms := ring.base.flat_rank * sum(
            len(a.data) for a in m.entries)) > MAX_IDEMPOTENT_TERMS:
        raise DocumentError(f"field 'idempotent' of a non-free module: flattened Laurent "
                            f"terms must be at most {MAX_IDEMPOTENT_TERMS}, got {terms}")
    memo = {} if memo is None else memo
    if (p := memo.get(m)) is None:  # no equal idempotent was checked yet
        if m.cols != rank or not (p := ProjModule(m)).is_idempotent:
            raise DocumentError("module matrix is not idempotent")
        memo[m] = p
    return p


def parse_complex(lit, ring: Ring, memo: dict | None = None, build: bool = True):
    bottom = _expect(lit, "bottom_degree", int)
    if lit.get("extension") == "laurent":
        ring = _known(memo, LaurentRing(ring))[0]
    mods = [parse_module(m, ring, memo) for m in _expect(lit, "modules", list)]
    bnds = [parse_matrix(b, ring, memo, build) for b in _expect(lit, "boundaries", list)]
    try:
        return ProjComplex(ring, bottom, mods, bnds)
    except (ShapeError, RingMismatch) as ex:
        raise DocumentError(str(ex)) from ex


class Workspace:
    """A parsed document: the ring plus name-resolved object tables."""

    # The tables in the order find reads them: a name in two resolves to the first.
    TABLES = ("complexes", "maps", "dominations", "modules", "homotopies", "witnesses")

    def __init__(self, ring: Ring, _source: dict | None = None):
        # bench/workloads.py still passes the source object; it is not kept.
        self.ring = ring
        self.modules: dict[str, ProjModule] = {}
        self.complexes: dict[str, ProjComplex] = {}
        self.maps: dict[str, ChainMap] = {}
        self.homotopies: dict[str, Homotopy] = {}
        self.dominations: dict[str, Domination] = {}
        self.witnesses: dict[str, StableFreenessWitness] = {}

    def find(self, name: str):
        for key in self.TABLES:
            if name in (table := getattr(self, key)):
                return table[name]
        raise DocumentError(f"unresolved reference: {name!r}")


# The fields by which an object names others: (field, table, noun in errors).
_ENDS = (("source", "complexes", "complex"), ("target", "complexes", "complex"))
_REFS = {"maps": _ENDS, "homotopies": _ENDS, "dominations": (
    ("A", "complexes", "complex"), ("C", "complexes", "complex"), ("i", "maps", "map"),
    ("r", "maps", "map"), ("s", "homotopies", "homotopy"))}


def _ref(table: dict, name, what: str):
    if not isinstance(name, str) or name not in table:
        raise DocumentError(f"unresolved {what} reference: {name!r}")
    return table[name]


def _table(raw: dict, key: str) -> list:
    """The (name, literal) pairs of one named table, sorted; absent is empty."""
    table = raw.get(key, {})
    if not isinstance(table, dict):
        raise DocumentError(f"table {key!r} must be a JSON object")
    return sorted(table.items())


def _closure(raw: dict, names) -> set:
    """The (table, name) pairs of the objects named in names and, through
    _REFS, of those they name.  Unchecked: parse_workspace checks."""
    todo, out = [(key, name) for name in names for key in Workspace.TABLES], set()
    while todo:
        key, name = todo.pop()
        table = raw.get(key)
        lit = table.get(name) if isinstance(table, dict) and isinstance(name, str) else None
        if lit is not None and (key, name) not in out:
            out.add((key, name))
            if isinstance(lit, dict):
                todo += [(t, lit.get(f)) for f, t, _ in _REFS.get(key, ())]
    return out


def parse_workspace(text: str, names) -> Workspace:
    """The objects that names reach (see _closure).  Every object is checked
    alike whatever names holds: one outside goes through the same readers and
    constructors with _Shape matrices (non-free idempotents built), then dropped."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as ex:  # also too many digits or too deep
        raise DocumentError(f"not valid JSON: {ex}") from ex
    if not isinstance(raw, dict):
        raise DocumentError("document must be a JSON object")
    try:
        ring = ring_from_descriptor(_expect(raw, "ring", dict))
    except (ValueError, TypeError, KeyError) as ex:
        raise DocumentError(f"bad ring descriptor: {ex}") from ex
    ws, memo, wanted = Workspace(ring), {}, _closure(raw, names)
    for name, lit in _table(raw, "modules"):
        ws.modules[name] = parse_module(lit, ring, memo)
    for name, lit in _table(raw, "complexes"):
        ws.complexes[name] = parse_complex(lit, ring, memo, ("complexes", name) in wanted)

    for key, table, cls, what in (("maps", ws.maps, ChainMap, "map"),
                                  ("homotopies", ws.homotopies, Homotopy, "homotopy")):
        for name, lit in _table(raw, key):
            src, tgt = (_ref(getattr(ws, t), _expect(lit, f), noun)
                        for f, t, noun in _REFS[key])
            comps = {}
            for ds, mlit in _expect(lit, "components", dict).items():
                try:
                    deg = int(ds)
                except ValueError as ex:
                    raise DocumentError(f"bad degree key {ds!r}") from ex
                comps[deg] = parse_matrix(mlit, src.ring, memo, (key, name) in wanted)
            try:
                table[name] = cls(src, tgt, comps)
            except (ShapeError, RingMismatch) as ex:
                raise DocumentError(f"{what} {name!r}: {ex}") from ex
    for name, lit in _table(raw, "witnesses"):
        build = ("witnesses", name) in wanted
        ws.witnesses[name] = StableFreenessWitness(
            _count(lit, "a", MAX_RANK), _count(lit, "b", MAX_RANK),
            parse_matrix(_expect(lit, "iso"), ring, memo, build),
            parse_matrix(_expect(lit, "iso_inverse"), ring, memo, build))
    for name, lit in _table(raw, "dominations"):
        ws.dominations[name] = Domination(**{f: _ref(getattr(ws, t), _expect(lit, f), noun)
                                             for f, t, noun in _REFS["dominations"]})
    for key in Workspace.TABLES:
        setattr(ws, key, {n: v for n, v in getattr(ws, key).items() if (key, n) in wanted})
    return ws


def workspace_literal(ws: Workspace) -> dict:
    """Re-serialize a workspace; parse(print(parse(x))) == parse(x)."""
    out: dict = {"ring": ws.ring.descriptor()}
    if ws.modules:
        out["modules"] = {k: module_literal(v) for k, v in ws.modules.items()}
    if ws.complexes:
        out["complexes"] = {k: complex_literal(v, ws.ring)
                            for k, v in ws.complexes.items()}

    # One id -> name index for every object a map or a domination refers to.
    names: dict = {}
    for table in (ws.complexes, ws.maps, ws.homotopies):
        for k, v in table.items():
            names.setdefault(id(v), k)

    def map_lit(m):
        return {"source": names[id(m.source)], "target": names[id(m.target)],
                "components": _components_literal(m.components)}

    if ws.maps:
        out["maps"] = {k: map_lit(v) for k, v in ws.maps.items()}
    if ws.homotopies:
        out["homotopies"] = {k: map_lit(v) for k, v in ws.homotopies.items()}
    if ws.witnesses:
        out["witnesses"] = {k: witness_literal(v) for k, v in ws.witnesses.items()}
    if ws.dominations:
        out["dominations"] = {
            k: {"A": names[id(d.A)], "C": names[id(d.C)], "i": names[id(d.i)],
                "r": names[id(d.r)], "s": names[id(d.s)]}
            for k, d in ws.dominations.items()}
    return out
