"""Workspace document parsing, canonical serialization, and error reporting."""
import json
import pathlib

import pytest

from chaink0.documents import (DocumentError, canonical_json, matrix_literal,
                               parse_complex, parse_matrix, parse_module,
                               parse_workspace, workspace_literal)
from chaink0.instant import verify_domination
from chaink0.matrices import Mat
from chaink0.rings import C2, ZZ, LaurentRing, QuadraticRing

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
Q5 = QuadraticRing(-5)


def fixture_text(name):
    return (FIXTURES / name).read_text()


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [2, 3]})
    assert a == '{\n  "a": [\n    2,\n    3\n  ],\n  "b": 1\n}\n'


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
        parse_workspace("{ nope")
    with pytest.raises(DocumentError, match="JSON object"):
        parse_workspace("[1, 2]")
    with pytest.raises(DocumentError, match="ring"):
        parse_workspace("{}")
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
        parse_workspace(canonical_json(doc))


def test_fixture_ideal_parses():
    ws = parse_workspace(fixture_text("ideal.json"))
    assert ws.ring.kind == "quadratic"
    dom = ws.dominations["dom1"]
    assert verify_domination(dom).ok
    assert not ws.modules["ideal"].is_free


def test_fixture_rp2_parses():
    ws = parse_workspace(fixture_text("rp2.json"))
    assert set(ws.complexes) == {"X", "circle"}
    assert ws.complexes["X"].rank_at(2) == 1
    assert ws.modules["line"].is_free


def test_fixture_bad_has_real_violations():
    ws = parse_workspace(fixture_text("bad.json"))
    # parses fine; the defects are semantic, caught by the verifiers
    assert "brokenMap" in ws.maps and "badComplex" in ws.complexes


def test_fixture_malformed_rejected():
    with pytest.raises(DocumentError):
        parse_workspace(fixture_text("malformed.json"))


def test_round_trip_is_idempotent():
    for name in ("ideal.json", "rp2.json", "bad.json"):
        ws = parse_workspace(fixture_text(name))
        printed = canonical_json(workspace_literal(ws))
        ws2 = parse_workspace(printed)
        assert canonical_json(workspace_literal(ws2)) == printed
        assert set(ws2.complexes) == set(ws.complexes)
        for key in ws.complexes:
            assert ws2.complexes[key] == ws.complexes[key]
        for key in ws.modules:
            assert ws2.modules[key].idem == ws.modules[key].idem
