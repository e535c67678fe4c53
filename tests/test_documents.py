"""Workspace document parsing, canonical serialization, and error reporting."""
import gc
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from chaink0 import documents, rings
from chaink0.complexes import ChainMap, Homotopy, ProjComplex, ProjModule
from chaink0.constructions import algebraic_mapping_torus, laurent_resolution, swindle_prefix
from chaink0.corpus import corpus_dominations, generate_corpus
from chaink0.documents import (DocumentError, Workspace, canonical_json, matrix_literal,
                               parse_complex, parse_matrix, parse_module,
                               parse_workspace, text_view, workspace_literal)
from chaink0.instant import verify_domination
from chaink0.matrices import Mat
from chaink0.rings import C2, ZZ, LaurentRing, QuadraticRing
from test_golden import nontrivial_literal, perturbed_literal

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
Q5 = QuadraticRing(-5)


def fixture_text(name):
    return (FIXTURES / name).read_text()


def parse_all(text: str) -> Workspace:
    """parse_workspace asked for every name the document defines, so that
    every object is built."""
    raw = json.loads(text)
    return parse_workspace(text, [name for key in Workspace.TABLES
                                  if isinstance(raw.get(key), dict) for name in raw[key]])


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    assert a == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


def reference_json(obj) -> str:
    """What canonical_json must return, byte for byte."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# Strings with non-ASCII characters, control characters, quotes and
# backslashes, as values and as keys.
TEXT = st.text(st.sampled_from('a"\\/\x00\x1f\n\t\x7f\u00e9\u2603\U0001f600') | st.characters())
SCALARS = (st.none() | st.booleans() | st.integers() | st.sampled_from([10**40, -10**40])
           | st.floats() | TEXT)
# One non-empty dict per example: every draw of SHARED in it is the same object.
SHARED = st.shared(st.dictionaries(TEXT, SCALARS | st.lists(SCALARS, max_size=3),
                                   min_size=1, max_size=3), key="shared")


def containers(children):
    return (st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(TEXT, children, max_size=4)
            | st.dictionaries(st.integers() | st.booleans() | st.floats(allow_nan=False),
                              children, max_size=3)
            | st.dictionaries(st.none(), children, max_size=1))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.recursive(SCALARS | SHARED, containers, max_leaves=20), SHARED)
def test_canonical_json_is_the_json_dumps_reference(tree, shared):
    """The shared dict recurs inside the tree and, in the frame, twice at
    depth 2 and once each at depths 1 and 3."""
    framed = {"tree": tree, "same": [shared, (shared,)], "top": shared, "deep": [[shared]]}
    assert canonical_json(framed) == reference_json(framed)
    assert canonical_json(tree) == reference_json(tree)


def test_canonical_json_leaves_no_reference_cycle():
    """The memo of encoded texts goes when the call returns, not at the next
    garbage collection."""
    gc.collect()
    gc.disable()
    try:
        canonical_json({"a": [{"b": 1}, {"c": [2]}]})
        assert gc.collect() == 0
    finally:
        gc.enable()


def rebuild(text: str) -> dict:
    """The payload that text_view wrote: each line split at its first ": ",
    its path nested on "." and its value read as JSON, which json.dumps with
    sorted keys writes back to the same text."""
    assert text.endswith("\n")
    payload: dict = {}
    for line in text[:-1].split("\n"):
        path, value = line.split(": ", 1)
        *parents, leaf = path.split(".")
        node = payload
        for key in parents:
            node = node.setdefault(key, {})
        node[leaf] = json.loads(value)
        assert json.dumps(node[leaf], sort_keys=True) == value, line
    return payload


def test_text_view_writes_one_json_line_per_leaf():
    """Strings escaped as json.dumps does, empty containers as leaves, and the
    keys of a dict inside a list sorted, whatever order they arrived in."""
    payload = {"report": {"ok": False, "violations": [{"degree": 2, "code": "c"}],
                          "detail": 'caf\u00e9 "q" \\ \n\t\x00', "none": {}},
               "empty": [], "generator": None}
    assert text_view(payload) == (
        'empty: []\n'
        'generator: null\n'
        r'report.detail: "caf\u00e9 \"q\" \\ \n\t\u0000"' '\n'
        'report.none: {}\n'
        'report.ok: false\n'
        'report.violations: [{"code": "c", "degree": 2}]\n')
    assert rebuild(text_view(payload)) == payload


def test_a_swindle_literal_writes_each_distinct_boundary_once(monkeypatch):
    """A window-64 swindle alternates two boundary objects: two matrix
    literals, the same bytes as a copy whose 64 boundaries are fresh objects."""
    cx = swindle_prefix(ProjModule(Mat.from_rows(ZZ, [[1, 1], [0, 0]])), 64)
    fresh = ProjComplex(ZZ, 0, [ProjModule.free(ZZ, m.ambient_rank) for m in cx.modules],
                        [Mat(d.ring, d.rows, d.cols, d.entries) for d in cx.boundaries])
    calls = []

    def counted(m):
        calls.append(m)
        return matrix_literal(m)

    monkeypatch.setattr(documents, "matrix_literal", counted)
    shared = canonical_json(documents.complex_literal(cx, ZZ))
    assert len(calls) == 2
    del calls[:]
    assert canonical_json(documents.complex_literal(fresh, ZZ)) == shared
    assert len(calls) == 64


def test_matrix_literal_round_trips():
    cases = [
        Mat.from_rows(ZZ, [[1, -2], [3, 4]]),
        Mat(C2, 1, 2, [C2.from_coords([1, -1]), C2.from_coords([0, 2])]),
        Mat(Q5, 1, 1, [Q5.from_coords([2, -3])]),
    ]
    lz = LaurentRing(ZZ)
    cases.append(Mat(lz, 1, 1, [lz.include(ZZ.from_int(2)) - lz.t(3)]))
    for m in cases:
        lit = matrix_literal(m)
        json.dumps(lit)  # must be plain JSON data
        assert parse_matrix(lit, m.ring) == m


def test_parse_module_free_and_idempotent():
    free = parse_module({"ambient_rank": 2, "idempotent": "free"}, ZZ)
    assert free.is_free and free.ambient_rank == 2
    lit = {"ambient_rank": 2,
           "idempotent": matrix_literal(Mat.from_rows(ZZ, [[1, 1], [0, 0]]))}
    assert not parse_module(lit, ZZ).is_free


def test_parse_module_rejects_non_idempotent():
    lit = {"ambient_rank": 1,
           "idempotent": matrix_literal(Mat.from_rows(ZZ, [[2]]))}
    with pytest.raises(DocumentError, match="not idempotent"):
        parse_module(lit, ZZ)


def test_parse_complex_laurent_marker():
    lz = LaurentRing(ZZ)
    lit = {"bottom_degree": 0, "extension": "laurent",
           "modules": [{"ambient_rank": 1, "idempotent": "free"}] * 2,
           "boundaries": [matrix_literal(Mat.identity(lz, 1))]}
    x = parse_complex(lit, ZZ)
    assert x.ring.kind == "laurent"


def test_parse_errors():
    with pytest.raises(DocumentError, match="not valid JSON"):
        parse_workspace("{ nope", [])
    with pytest.raises(DocumentError, match="JSON object"):
        parse_workspace("[1, 2]", [])
    with pytest.raises(DocumentError, match="ring"):
        parse_workspace("{}", [])
    with pytest.raises(DocumentError, match="missing field"):
        parse_matrix({"rows": 1, "cols": 1}, ZZ)
    with pytest.raises(DocumentError, match="entries"):
        parse_matrix({"rows": 2, "cols": 2, "entries": ["1"]}, ZZ)
    with pytest.raises(DocumentError, match="literal"):
        parse_matrix({"rows": 1, "cols": 1, "entries": [True]}, ZZ)


def test_parse_unresolved_reference():
    doc = {"ring": {"kind": "integers"},
           "complexes": {"pt": {"bottom_degree": 0, "boundaries": [],
                                "modules": [{"ambient_rank": 1,
                                             "idempotent": "free"}]}},
           "maps": {"f": {"source": "pt", "target": "ghost",
                          "components": {}}}}
    with pytest.raises(DocumentError, match="unresolved"):
        parse_all(canonical_json(doc))


def test_fixture_ideal_parses():
    ws = parse_all(fixture_text("ideal.json"))
    assert ws.ring.kind == "quadratic"
    dom = ws.dominations["dom1"]
    assert verify_domination(dom).ok
    assert not ws.modules["ideal"].is_free


def test_fixture_rp2_parses():
    ws = parse_all(fixture_text("rp2.json"))
    assert set(ws.complexes) == {"X", "circle"}
    assert ws.complexes["X"].rank_at(2) == 1
    assert ws.modules["line"].is_free


def test_fixture_bad_has_real_violations():
    ws = parse_all(fixture_text("bad.json"))
    # parses fine; the defects are semantic, caught by the verifiers
    assert "brokenMap" in ws.maps and "badComplex" in ws.complexes


def test_fixture_malformed_rejected():
    with pytest.raises(DocumentError):
        parse_workspace(fixture_text("malformed.json"), [])


def test_round_trip_is_idempotent():
    for name in ("ideal.json", "rp2.json", "bad.json"):
        ws = parse_all(fixture_text(name))
        printed = canonical_json(workspace_literal(ws))
        ws2 = parse_all(printed)
        assert canonical_json(workspace_literal(ws2)) == printed
        assert set(ws2.complexes) == set(ws.complexes)
        for key in ws.complexes:
            assert ws2.complexes[key] == ws.complexes[key]
        for key in ws.modules:
            assert ws2.modules[key].idem == ws.modules[key].idem


def laurent_literal(ring) -> dict:
    """Two Laurent complexes (the (1-t)+1 resolution of a non-free module and
    the mapping torus of an identity) and maps on them, over ring."""
    p = ProjModule(Mat.from_rows(ring, [[1, 1], [0, 0]]))
    a = corpus_dominations(0, 1, "integers" if ring == ZZ else "c2")[0].A
    ws = Workspace(ring)
    ws.complexes["R"] = res = laurent_resolution(p, 2)[0]
    ws.complexes["T"] = torus = algebraic_mapping_torus(ChainMap.identity(a))
    ws.maps["idR"], ws.maps["idT"] = ChainMap.identity(res), ChainMap.identity(torus)
    ws.homotopies["zT"] = Homotopy.zero(torus)
    return workspace_literal(ws)


def memo_documents():
    """Fixture, corpus, s != 0, perturbed and Laurent documents."""
    for name in ("ideal.json", "rp2.json", "bad.json"):
        yield fixture_text(name)
    for seed in (0, 1, 2):
        for ring in ("integers", "c2"):
            yield canonical_json(generate_corpus(seed, 4, ring))
    for ring in ("integers", "c2"):
        yield canonical_json(nontrivial_literal(ring))
        yield canonical_json(perturbed_literal(ring))
    for ring in (ZZ, C2):
        yield canonical_json(laurent_literal(ring))


def test_memoised_parse_equals_a_literal_by_literal_parse(monkeypatch):
    """Every matrix parse_workspace builds equals the one built entry by
    entry through the ring's parse_literal and the checking Mat
    constructor, and every entry lies over the matrix's own ring object."""
    seen = []

    def recording(lit, ring, memo=None, build=True):
        m = parse_matrix(lit, ring, memo, build)
        seen.append((lit, ring, m))
        return m

    monkeypatch.setattr(documents, "parse_matrix", recording)
    kinds = set()
    for text in memo_documents():
        seen.clear()
        parse_all(text)
        assert seen
        for lit, ring, m in seen:
            want = Mat(ring, lit["rows"], lit["cols"],
                       [ring.parse_literal(e) for e in lit["entries"]])
            assert m == want and m.ring == ring
            assert all(e.ring is m.ring for e in m.entries)
            kinds.add(ring.kind)
    assert kinds == {"integers", "group_ring", "laurent", "quadratic"}


def entry_literals(raw) -> list:
    """Every matrix-entry literal of a JSON document."""
    if isinstance(raw, dict):
        own = raw["entries"] if isinstance(raw.get("entries"), list) else []
        return own + [e for v in raw.values() for e in entry_literals(v)]
    if isinstance(raw, list):
        return [e for v in raw for e in entry_literals(v)]
    return []


def test_parse_makes_one_parse_literal_call_per_distinct_literal(monkeypatch):
    """Counted at the top level: a Laurent literal's own parse also parses
    its base literals."""
    calls, depth = [], [0]
    for cls in (rings.IntegerRing, rings.GroupRing, rings.LaurentRing, rings.QuadraticRing):
        def counting(self, lit, _parse=cls.parse_literal):
            if depth[0] == 0:
                calls.append(lit)
            depth[0] += 1
            try:
                return _parse(self, lit)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(cls, "parse_literal", counting)
    shared = 0
    for text in memo_documents():
        calls.clear()
        parse_all(text)
        entries = entry_literals(json.loads(text))
        distinct = {json.dumps(e) for e in entries}
        assert 0 < len(calls) <= len(distinct)
        shared += len(entries) > len(distinct)
    assert shared >= 10


@pytest.mark.parametrize("text, message", [
    ('{"ring": {"kind": "integers"}, "x": ' + "1" * 5000 + "}",
     "not valid JSON: Exceeds the limit"),
    # Deeper than any supported interpreter parses: 3.13 parses 5,000 levels.
    ('{"ring": {"kind": "integers"}, "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
     "not valid JSON: maximum recursion depth exceeded"),
], ids=["integer-digits", "nesting"])
def test_json_past_python_limits_is_a_document_error(text, message):
    with pytest.raises(DocumentError, match=message):
        parse_workspace(text, [])


CORPUS_25 = canonical_json(generate_corpus(0, 25, "integers"))
DOM3 = {("dominations", "dom3"), ("complexes", "A3"), ("complexes", "C3"),
        ("maps", "i3"), ("maps", "r3"), ("homotopies", "s3")}


def test_parse_builds_the_closure_of_the_named_objects():
    """dom3, its complexes, maps and homotopy, as the whole parse builds them."""
    ws, whole = parse_workspace(CORPUS_25, ["dom3"]), workspace_literal(parse_all(CORPUS_25))
    assert {(key, name) for key in Workspace.TABLES for name in getattr(ws, key)} == DOM3
    got = workspace_literal(ws)
    assert all(got[key][name] == whole[key][name] for key, name in DOM3)
    assert verify_domination(ws.find("dom3")).ok


def test_parse_builds_no_matrix_outside_the_closure(monkeypatch):
    """Mat._of, as parse_matrix calls it, builds the matrix literals of the
    closure of dom3 and nothing else."""
    built = []

    class Spy:
        @staticmethod
        def _of(ring, rows, cols, entries):
            built.append(m := Mat._of(ring, rows, cols, entries))
            return m

    monkeypatch.setattr(documents, "Mat", Spy)
    parse_workspace(CORPUS_25, ["dom3"])
    raw = json.loads(CORPUS_25)
    want = [b for x in ("A3", "C3") for b in raw["complexes"][x]["boundaries"]]
    want += [c for key, name in (("maps", "i3"), ("maps", "r3"), ("homotopies", "s3"))
             for c in raw[key][name]["components"].values()]
    assert sorted(canonical_json(matrix_literal(m)) for m in built) == sorted(
        canonical_json(lit) for lit in want)


def test_parse_builds_every_object_that_bears_a_name():
    """free-replace reads its --witness from the witness table, even when a
    complex, which find reads first, has the same name."""
    point = {"bottom_degree": 0, "boundaries": [],
             "modules": [{"ambient_rank": 1, "idempotent": "free"}]}
    one = {"rows": 1, "cols": 1, "entries": ["1"]}
    doc = {"ring": {"kind": "integers"}, "complexes": {"X": point, "Y": point},
           "witnesses": {"X": {"a": 0, "b": 1, "iso": one, "iso_inverse": one}}}
    ws = parse_workspace(canonical_json(doc), ["X"])
    assert set(ws.complexes) == set(ws.witnesses) == {"X"}
    assert ws.find("X") is ws.complexes["X"]
