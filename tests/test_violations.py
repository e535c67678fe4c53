"""One smallest input per violation code, and a check that every code the
source can report has its row."""
import ast
import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from chaink0.cli import main
from chaink0.complexes import (ChainMap, Homotopy, ProjComplex, ProjModule,
                               validate_complex, verify_chain_map, verify_homotopy)
from chaink0.constructions import algebraic_mapping_torus, torus_invariance_check
from chaink0.documents import canonical_json
from chaink0.instant import Domination, verify_domination
from chaink0.matrices import Mat
from chaink0.projective import StableFreenessWitness, verify_stable_freeness
from chaink0.rings import ZZ
from test_golden import SUMMANDS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chaink0"
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# build_instant certifies u j = r i on data it has just built from a verified
# domination; only a planted defect in build_instant reaches this code.
EXEMPT = {"instant.uj_not_ri"}


def z(*rows) -> Mat:
    return Mat.from_rows(ZZ, [list(r) for r in rows])


def point(degree: int = 0) -> ProjComplex:
    return ProjComplex.free_complex(ZZ, degree, [1], [])


def half(degree: int = 0) -> ProjComplex:
    """im(diag(1, 0)) in Z^2, alone in one degree."""
    return ProjComplex(ZZ, degree, [ProjModule(z((1, 0), (0, 0)))], [])


def segment() -> ProjComplex:
    return ProjComplex.free_complex(ZZ, 0, [1, 1], [z((1,))])


def codes(report) -> list:
    return [v.code for v in report.violations]


def cli_codes(argv: list, doc: dict) -> list:
    """The violation codes of one CLI run on doc, which must exit 2."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        path.write_text(canonical_json(doc), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([argv[0], "--input", str(path), *argv[1:]]) == 2
    return [v["code"] for v in json.loads(out.getvalue())["report"]["violations"]]


def identity_domination(x: ProjComplex) -> Domination:
    one = ChainMap.identity(x)
    return Domination(x, x, one, one, Homotopy.zero(x))


def torus_check(forward=None, backward=None) -> list:
    """torus_invariance_check on u = v = 1 of a point, whose tori are equal;
    the identity of the torus stands in for every map left out."""
    one = ChainMap.identity(point())
    torus = algebraic_mapping_torus(one)
    ident, h = ChainMap.identity(torus), Homotopy.zero(torus)
    return codes(torus_invariance_check(one, one, forward or ident, backward or ident, h, h))


def witness_check(iso, iso_inverse, module=None) -> list:
    """verify_stable_freeness of a witness P + Z^0 = Z^b, b the height of
    iso, P = im(diag(1, 0)) unless another module is given."""
    p = module or ProjModule(z((1, 0), (0, 0)))
    w = StableFreenessWitness(0, iso.rows, iso, iso_inverse)
    return codes(verify_stable_freeness(p, w))


ROWS = {
    "module.not_idempotent": lambda: codes(ProjModule(z((2,))).validate()),
    "complex.module_not_idempotent": lambda: codes(validate_complex(
        ProjComplex(ZZ, 0, [ProjModule(z((2,)))], []))),
    "complex.dd_nonzero": lambda: codes(validate_complex(
        ProjComplex.free_complex(ZZ, 0, [1, 1, 1], [z((1,)), z((1,))]))),
    # d_1 = (0, 1)^T lands in im(1 - e), outside im(e) in degree 0.
    "complex.boundary_escapes_summand": lambda: codes(validate_complex(
        ProjComplex(ZZ, 0, [ProjModule(z((1, 0), (0, 0))), ProjModule.free(ZZ, 1)],
                    [z((0,), (1,))]))),
    "map.escapes_summand": lambda: codes(verify_chain_map(
        ChainMap(point(), half(), {0: z((0,), (1,))}))),
    "map.square_fails": lambda: codes(verify_chain_map(
        ChainMap(segment(), segment(), {0: z((1,)), 1: z((2,))}))),
    "homotopy.escapes_summand": lambda: codes(verify_homotopy(
        Homotopy(point(), half(1), {0: z((0,), (1,))}),
        ChainMap.zero(point(), half(1)), ChainMap.zero(point(), half(1)))),
    "homotopy.identity_fails": lambda: codes(verify_homotopy(
        Homotopy.zero(point()), ChainMap.identity(point()), ChainMap.zero(point()))),
    "homotopy.map_pair_mismatch": lambda: codes(verify_homotopy(
        Homotopy.zero(point()), ChainMap.identity(point()),
        ChainMap.identity(point(1)))),
    "homotopy.wrong_complexes": lambda: codes(verify_homotopy(
        Homotopy.zero(point(1)), ChainMap.identity(point()), ChainMap.identity(point()))),
    "domination.C_not_based_at_zero": lambda: codes(verify_domination(
        identity_domination(point(1)))),
    "domination.C_not_free": lambda: codes(verify_domination(
        identity_domination(half()))),
    "domination.i_wrong_ends": lambda: codes(verify_domination(Domination(
        point(), point(), ChainMap.identity(half()), ChainMap.identity(point()),
        Homotopy.zero(point())))),
    "domination.r_wrong_ends": lambda: codes(verify_domination(Domination(
        point(), point(), ChainMap.identity(point()), ChainMap.identity(half()),
        Homotopy.zero(point())))),
    "torus.maps_not_composable": lambda: codes(torus_invariance_check(
        ChainMap.identity(point()), ChainMap.identity(point(1)), None, None, None, None)),
    "torus.forward_wrong_ends": lambda: torus_check(forward=ChainMap.identity(point())),
    "torus.backward_wrong_ends": lambda: torus_check(backward=ChainMap.identity(point())),
    "witness.iso_shape": lambda: witness_check(z((1,)), z((1,), (0,))),
    "witness.iso_inverse_shape": lambda: witness_check(z((1, 0)), z((1,))),
    # For P = Z, Z -> Z^2 -> Z is the identity but Z^2 -> Z -> Z^2 is not;
    # for P = im(diag(1, 0)), iso_inverse iso = [[1, 1], [0, 0]] is not
    # diag(1, 0) while iso iso_inverse = 1.
    "witness.not_right_inverse": lambda: witness_check(
        z((1,), (0,)), z((1, 0)), ProjModule.free(ZZ, 1)),
    "witness.not_left_inverse": lambda: witness_check(z((1, 1)), z((1,), (0,))),
    "trim.homology_nonvanishing": lambda: cli_codes(
        ["trim", "--name", "circle", "--below", "0"],
        json.loads((FIXTURES / "rp2.json").read_text(encoding="utf-8"))),
    "free_replace.rejected": lambda: cli_codes(
        ["free-replace", "--name", "T", "--witness", "w3"], SUMMANDS),
}


@pytest.mark.parametrize("code", sorted(ROWS))
def test_the_smallest_input_reports_its_code(code):
    assert ROWS[code]() == [code]


def _render(node, env: dict):
    """The string node evaluates to, given parameter values; None when it
    is not a string built from literals and those parameters."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return env.get(node.id)
    if isinstance(node, ast.FormattedValue):
        return _render(node.value, env)
    if isinstance(node, ast.JoinedStr):
        parts = [_render(v, env) for v in node.values]
        return None if None in parts else "".join(parts)
    return None


def source_codes() -> set:
    """Every code passed to a `.add(...)` in src/: a literal, or built from
    parameters of the function around it, as each call of that function with
    literal arguments fills them in (so `_verify_graded(f, "map",
    "square_fails")` gives map.escapes_summand and map.square_fails)."""
    trees = [ast.parse(f.read_text(encoding="utf-8")) for f in sorted(SRC.glob("*.py"))]
    calls = [c for t in trees for c in ast.walk(t) if isinstance(c, ast.Call)]
    found = set()
    for fn in (f for t in trees for f in ast.walk(t) if isinstance(f, ast.FunctionDef)):
        params = [a.arg for a in fn.args.args]
        for add in ast.walk(fn):
            if not (isinstance(add, ast.Call) and isinstance(add.func, ast.Attribute)
                    and add.func.attr == "add" and add.args):
                continue
            code = _render(add.args[0], {})
            if code is not None:
                found.add(code)
                continue
            for call in calls:
                callee = getattr(call.func, "id", getattr(call.func, "attr", None))
                if callee != fn.name:
                    continue
                env = {p: a.value for p, a in zip(params, call.args)
                       if isinstance(a, ast.Constant)}
                env.update((k.arg, k.value.value) for k in call.keywords
                           if isinstance(k.value, ast.Constant))
                if (code := _render(add.args[0], env)) is not None:
                    found.add(code)
    return found


def test_every_code_in_the_source_has_a_row():
    found = source_codes()
    assert {"map.square_fails", "homotopy.identity_fails", "trim.homology_nonvanishing",
            "instant.uj_not_ri"} <= found
    assert found - EXEMPT == set(ROWS)
