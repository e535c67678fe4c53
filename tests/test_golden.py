"""Golden CLI outputs: every case's exit status, stdout and stderr, pinned by
their SHA-256 in golden.json, so that a refactor keeps the reports
byte-identical.

    PYTHONPATH=src python tests/test_golden.py

records the cases that golden.json lacks.  It never rewrites an entry: an
entry changes only by editing golden.json by hand.
"""
import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import random
import sys
import tempfile

import pytest

from chaink0.cli import main
from chaink0.complexes import ChainMap, ProjComplex, ProjModule, mapping_cone
from chaink0.corpus import (corpus_dominations, generate_corpus, random_domination,
                            random_free_complex)
from chaink0.documents import Workspace, canonical_json, workspace_literal
from chaink0.instant import build_instant, finiteness_obstruction
from chaink0.matrices import Mat
from chaink0.rings import C2, ZZ
from groups import S3
from perturbations import perturb

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).with_name("golden.json")
CORPUS_RINGS = ("integers", "c2")
CORPUS_COUNT = 8
RINGS = {"integers": ZZ, "c2": C2}
# Dominations A + cone(1_B) with s != 0 and r i != 1, per ring.
NONTRIVIAL_COUNT = 6
# Homotopy perturbations of corpus and s != 0 draws, per ring; they reach
# the blocks of P below its diagonal.
PERTURBED_COUNT = 6
# laurent-resolve windows on the identity and the two conjugates of diag(1, 0).
LAURENT_WINDOWS = (1, 2, 8, 24)
# swindle prefixes of the same three modules: one boundary, two, an odd
# length, and long prefixes whose boundaries repeat 1 - e and e.
SWINDLE_WINDOWS = (1, 2, 7, 32, 64)
# Cones of the identity of seeded free complexes, trimmed per ring.
CONE_COUNT = 6
# free-replace on the reductions of the corpus dominations dom0..dom7.
REPLACE_COUNT = CORPUS_COUNT

# Seeded Z[S3] dominations, each also perturbed; over a non-abelian group
# ring a product with its operands swapped changes the reports.
S3_COUNT = 4
# laurent-resolve windows on a Z[S3] idempotent; swindle takes the largest.
S3_WINDOWS = (1, 4)

# A valid literal, then one that equals it as a Python value or as an
# integer but must still be rejected: (ring descriptor, extension, valid, bad).
C2_DESC = C2.descriptor()
MEMO_LITERALS = {
    "z-true": ({"kind": "integers"}, None, "1", True),
    "z-float": ({"kind": "integers"}, None, "1", 1.0),
    "z-int": ({"kind": "integers"}, None, "1", 1),
    "z-leading-zero": ({"kind": "integers"}, None, "1", "01"),
    "z-minus-zero": ({"kind": "integers"}, None, "0", "-0"),
    "c2-true": (C2_DESC, None, [[1, 0]], [[True, 0]]),
    "c2-float": (C2_DESC, None, [[1, 0]], [[1.0, 0]]),
    "c2-index-true": (C2_DESC, None, [[1, 1]], [[1, True]]),
    "c2-index-range": (C2_DESC, None, [[1, 1]], [[1, 2]]),
    "c2-index-negative": (C2_DESC, None, [[1, 1]], [[1, -1]]),
    "laurent-base-true": ({"kind": "integers"}, "laurent", [["1", 0]], [[True, 0]]),
    "laurent-exponent-true": ({"kind": "integers"}, "laurent", [["1", 1]], [["1", True]]),
    "laurent-exponent-float": ({"kind": "integers"}, "laurent", [["1", 1]], [["1", 1.0]]),
    "laurent-leading-zero": ({"kind": "integers"}, "laurent", [["1", 0]], [["01", 0]]),
    "laurent-c2-index-range": (C2_DESC, "laurent", [[[[1, 1]], 0]], [[[[1, 2]], 0]]),
    "quadratic-true": ({"kind": "quadratic", "d": -5}, None, [1, 0], [True, 0]),
    "quadratic-float": ({"kind": "quadratic", "d": -5}, None, [1, 0], [1.0, 0]),
}


def memo_literal(ring, extension, valid, bad, same_matrix: bool) -> dict:
    """Complexes W and X: the valid literal first, then the bad one, either in
    one 1 x 2 boundary of X or in the boundaries of W and X (parsed in order)."""
    free = {"ambient_rank": 1, "idempotent": "free"}

    def point_pair(*entries):
        lit = {"bottom_degree": 0, "modules": [free, {"ambient_rank": len(entries),
                                                      "idempotent": "free"}],
               "boundaries": [{"rows": 1, "cols": len(entries), "entries": list(entries)}]}
        return dict(lit, extension=extension) if extension else lit

    if same_matrix:
        complexes = {"X": point_pair(valid, bad)}
    else:
        complexes = {"W": point_pair(valid), "X": point_pair(bad)}
    return {"ring": ring, "complexes": complexes}


def fault_literal(fault: str) -> dict:
    """The Z corpus with one fault in dom3's objects, which a command on dom0
    does not read: a map component of the wrong shape, a domination naming a
    missing map, or a non-idempotent module."""
    doc = generate_corpus(0, CORPUS_COUNT, "integers")
    if fault == "shape":
        comp = next(iter(doc["maps"]["i3"]["components"].values()))
        comp["entries"] += ["0"] * comp["cols"]
        comp["rows"] += 1
    elif fault == "reference":
        doc["dominations"]["dom3"]["i"] = "ghost"
    else:
        # A new dict: complex_literal shares one dict among the places of one module.
        mods = doc["complexes"]["A3"]["modules"]
        j, n = next((j, m["ambient_rank"]) for j, m in enumerate(mods) if m["ambient_rank"])
        mods[j] = {"ambient_rank": n,
                   "idempotent": {"rows": n, "cols": n, "entries": ["2"] * (n * n)}}
    return doc


FAULTS = ("shape", "reference", "idempotent")


# Z, A = C = Z in degree 0, i = 1, r = 0, s = 0: the homotopy 1 - ri = 1
# is not witnessed, so the domination is invalid.
INVALID = {
    "ring": {"kind": "integers"},
    "complexes": {"A": {"bottom_degree": 0, "boundaries": [],
                        "modules": [{"ambient_rank": 1, "idempotent": "free"}]}},
    "maps": {"i": {"source": "A", "target": "A",
                   "components": {"0": {"rows": 1, "cols": 1, "entries": ["1"]}}},
             "r": {"source": "A", "target": "A", "components": {}}},
    "homotopies": {"s": {"source": "A", "target": "A", "components": {}}},
    "dominations": {"dom": {"A": "A", "C": "A", "i": "i", "r": "r", "s": "s"}},
}


def _free(rank: int) -> dict:
    return {"ambient_rank": rank, "idempotent": "free"}


def _z_matrix(rows: int, cols: int, *entries: int) -> dict:
    return {"rows": rows, "cols": cols, "entries": [str(a) for a in entries]}


# Inputs that torus and free-replace must refuse with a report (exit 2):
# f on Z --1--> Z with f_0 = 1, f_1 = 2 is not a chain map; g = 1 on
# Z --1--> Z --1--> Z commutes but d d != 0; in R and S, d d != 0 as well,
# with im(diag(1, 0)) in degree 1 of R (w witnesses it) and Z^2 in S.
REFUSED = {
    "ring": {"kind": "integers"},
    "complexes": {
        "E": {"bottom_degree": 0, "modules": [_free(1), _free(1)],
              "boundaries": [_z_matrix(1, 1, 1)]},
        "Q": {"bottom_degree": 0, "modules": [_free(1), _free(1), _free(1)],
              "boundaries": [_z_matrix(1, 1, 1), _z_matrix(1, 1, 1)]},
        "R": {"bottom_degree": 0,
              "modules": [_free(1), {"ambient_rank": 2,
                                     "idempotent": _z_matrix(2, 2, 1, 0, 0, 0)}, _free(1)],
              "boundaries": [_z_matrix(1, 2, 1, 0), _z_matrix(2, 1, 1, 0)]},
        "S": {"bottom_degree": 0, "modules": [_free(1), _free(2), _free(1)],
              "boundaries": [_z_matrix(1, 2, 1, 0), _z_matrix(2, 1, 1, 0)]},
    },
    "maps": {"f": {"source": "E", "target": "E",
                   "components": {"0": _z_matrix(1, 1, 1), "1": _z_matrix(1, 1, 2)}},
             "g": {"source": "Q", "target": "Q",
                   "components": {str(n): _z_matrix(1, 1, 1) for n in range(3)}}},
    "witnesses": {"w": {"a": 0, "b": 1, "iso": _z_matrix(1, 2, 1, 0),
                        "iso_inverse": _z_matrix(2, 1, 1, 0)}},
}


def _c2_matrix(rows: int, cols: int, *entries: list) -> dict:
    return {"rows": rows, "cols": cols, "entries": list(entries)}


# Tori over Z[C2] on E: Z[C2] --1--> Z[C2]: f with f_0 = 1, f_1 = g (the
# generator) is not a chain map; g, multiplication by g in both degrees, is.
ONE, G = [[1, 0]], [[1, 1]]
TORUS_C2 = {
    "ring": C2_DESC,
    "complexes": {"E": {"bottom_degree": 0, "modules": [_free(1), _free(1)],
                        "boundaries": [_c2_matrix(1, 1, ONE)]}},
    "maps": {"f": {"source": "E", "target": "E",
                   "components": {"0": _c2_matrix(1, 1, ONE), "1": _c2_matrix(1, 1, G)}},
             "g": {"source": "E", "target": "E",
                   "components": {"0": _c2_matrix(1, 1, G), "1": _c2_matrix(1, 1, G)}}},
}

# Over Z, with H = im(diag(1, 0)): on Y = (Z <--[1 0]-- H), h has h_0 = 1 and
# h_1 = [[1, 0], [1, 0]], which commutes but leaves H, and k = h with k_0 = 2
# also fails its square; T has H in degrees 0 and 1 with a zero boundary, and
# F is one free Z.  w3 (a = 2, b = 3, iso = 5, iso_inverse = 1) is no witness.
SUMMANDS = {
    "ring": {"kind": "integers"},
    "complexes": {
        "Y": {"bottom_degree": 0,
              "modules": [_free(1), {"ambient_rank": 2,
                                     "idempotent": _z_matrix(2, 2, 1, 0, 0, 0)}],
              "boundaries": [_z_matrix(1, 2, 1, 0)]},
        "T": {"bottom_degree": 0,
              "modules": [{"ambient_rank": 2, "idempotent": _z_matrix(2, 2, 1, 0, 0, 0)}] * 2,
              "boundaries": [_z_matrix(2, 2, 0, 0, 0, 0)]},
        "F": {"bottom_degree": 0, "modules": [_free(1)], "boundaries": []},
    },
    "maps": {"h": {"source": "Y", "target": "Y",
                   "components": {"0": _z_matrix(1, 1, 1), "1": _z_matrix(2, 2, 1, 0, 1, 0)}},
             "k": {"source": "Y", "target": "Y",
                   "components": {"0": _z_matrix(1, 1, 2), "1": _z_matrix(2, 2, 1, 0, 1, 0)}}},
    "witnesses": {"w3": {"a": 2, "b": 3, "iso": _z_matrix(3, 3, 5, 0, 0, 0, 5, 0, 0, 0, 5),
                         "iso_inverse": _z_matrix(3, 3, 1, 0, 0, 0, 1, 0, 0, 0, 1)}},
}


@functools.cache
def load_workloads():
    """bench/workloads.py, loaded by path since bench/ is not a package."""
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(spec.name, mod)
    spec.loader.exec_module(mod)
    return mod


def _fixture_commands() -> list:
    return load_workloads().fixture_commands(0)


def nontrivial_literal(ring_name: str) -> dict:
    """NONTRIVIAL_COUNT dominations with s != 0, seeded by the ring name."""
    ring = RINGS[ring_name]
    rng = random.Random(f"golden:{ring_name}")
    build = load_workloads().nontrivial_domination
    ws = Workspace(ring)
    for k in range(NONTRIVIAL_COUNT):
        d = build(rng, ring)
        ws.complexes[f"A{k}"], ws.complexes[f"C{k}"] = d.A, d.C
        ws.maps[f"i{k}"], ws.maps[f"r{k}"] = d.i, d.r
        ws.homotopies[f"s{k}"] = d.s
        ws.dominations[f"dom{k}"] = d
    return workspace_literal(ws)


def perturbed_literal(ring_name: str) -> dict:
    """PERTURBED_COUNT perturbed dominations, seeded by the ring name: even
    k perturbs a corpus draw, odd k a domination with s != 0."""
    ring = RINGS[ring_name]
    rng = random.Random(f"golden-perturb:{ring_name}")
    draws = (random_domination, load_workloads().nontrivial_domination)
    ws = Workspace(ring)
    for k in range(PERTURBED_COUNT):
        d = perturb(draws[k % 2](rng, ring), rng)
        ws.complexes[f"A{k}"], ws.complexes[f"C{k}"] = d.A, d.C
        ws.maps[f"i{k}"], ws.maps[f"r{k}"] = d.i, d.r
        ws.homotopies[f"s{k}"] = d.s
        ws.dominations[f"dom{k}"] = d
    return workspace_literal(ws)


def laurent_literal(ring_name: str) -> dict:
    """The modules of the laurent_windows workload: p1 = the 1 x 1 identity
    and q0, q1 = conjugates of diag(1, 0) drawn from the workload's seeds."""
    ring = RINGS[ring_name]
    draw = load_workloads().random_idempotent
    ws = Workspace(ring)
    ws.modules["p1"] = ProjModule.free(ring, 1)
    for j in (0, 1):
        ws.modules[f"q{j}"] = ProjModule(draw(
            random.Random(f"idempotent:{ring_name}:{j}"), ring))
    return workspace_literal(ws)


def s3_literal(perturbed: bool) -> dict:
    """dom<k> = random_domination(Random("golden-s3:<k>"), S3), perturbed by
    Random("golden-s3-perturb:<k>") when asked, and the idempotent q0."""
    ws = Workspace(S3)
    for k in range(S3_COUNT):
        d = random_domination(random.Random(f"golden-s3:{k}"), S3)
        if perturbed:
            d = perturb(d, random.Random(f"golden-s3-perturb:{k}"))
        ws.complexes[f"A{k}"], ws.complexes[f"C{k}"] = d.A, d.C
        ws.maps[f"i{k}"], ws.maps[f"r{k}"] = d.i, d.r
        ws.homotopies[f"s{k}"] = d.s
        ws.dominations[f"dom{k}"] = d
    ws.modules["q0"] = ProjModule(load_workloads().random_idempotent(
        random.Random("idempotent:s3:0"), S3))
    return workspace_literal(ws)


@functools.cache
def identity_cones(ring_name: str) -> tuple:
    """CONE_COUNT acyclic complexes cone(1_B), seeded by the ring name."""
    ring = RINGS[ring_name]
    rng = random.Random(f"cones:{ring_name}")
    return tuple(mapping_cone(ChainMap.identity(random_free_complex(rng, ring)))
                 for _ in range(CONE_COUNT))


def cone_literal(ring_name: str) -> dict:
    ws = Workspace(RINGS[ring_name])
    for k, x in enumerate(identity_cones(ring_name)):
        ws.complexes[f"X{k}"] = x
    return workspace_literal(ws)


def replace_literal(ring_name: str) -> dict:
    """For each corpus domination dom<k>: its reduction K<k>, whose only
    non-free module im(P) is at the bottom degree 0, the witness w<k> of its
    obstruction report, and L<k>, the same K above a free R in degree -1
    with a zero boundary, so that im(P) sits above the bottom."""
    ring = RINGS[ring_name]
    ws = Workspace(ring)
    for k, d in enumerate(corpus_dominations(0, REPLACE_COUNT, ring_name)):
        x = build_instant(d).reduction
        ws.complexes[f"K{k}"] = x
        ws.complexes[f"L{k}"] = ProjComplex(
            ring, -1, (ProjModule.free(ring, 1),) + x.modules,
            (Mat.zero(ring, 1, x.rank_at(0)),) + x.boundaries)
        ws.witnesses[f"w{k}"] = finiteness_obstruction(d).sigma_zero_witness
    return workspace_literal(ws)


def write_documents(docs: pathlib.Path) -> None:
    for ring in CORPUS_RINGS:
        text = canonical_json(generate_corpus(0, CORPUS_COUNT, ring))
        (docs / f"corpus-{ring}.json").write_text(text, encoding="utf-8")
        text = canonical_json(nontrivial_literal(ring))
        (docs / f"nontrivial-{ring}.json").write_text(text, encoding="utf-8")
        text = canonical_json(perturbed_literal(ring))
        (docs / f"perturbed-{ring}.json").write_text(text, encoding="utf-8")
        text = canonical_json(laurent_literal(ring))
        (docs / f"laurent-{ring}.json").write_text(text, encoding="utf-8")
        text = canonical_json(cone_literal(ring))
        (docs / f"cones-{ring}.json").write_text(text, encoding="utf-8")
        text = canonical_json(replace_literal(ring))
        (docs / f"replace-{ring}.json").write_text(text, encoding="utf-8")
    for name, perturbed in (("s3", False), ("perturbed-s3", True)):
        text = canonical_json(s3_literal(perturbed))
        (docs / f"{name}.json").write_text(text, encoding="utf-8")
    (docs / "invalid.json").write_text(canonical_json(INVALID), encoding="utf-8")
    (docs / "refused.json").write_text(canonical_json(REFUSED), encoding="utf-8")
    (docs / "torus-c2.json").write_text(canonical_json(TORUS_C2), encoding="utf-8")
    (docs / "summands.json").write_text(canonical_json(SUMMANDS), encoding="utf-8")
    for name, (ring, extension, valid, bad) in MEMO_LITERALS.items():
        for same in (True, False):
            text = canonical_json(memo_literal(ring, extension, valid, bad, same))
            (docs / f"memo-{name}-{'one' if same else 'two'}.json").write_text(
                text, encoding="utf-8")
    for fault in FAULTS:
        (docs / f"fault-{fault}.json").write_text(
            canonical_json(fault_literal(fault)), encoding="utf-8")


def cases(docs: pathlib.Path) -> dict:
    """Case name -> argv.  Fixture paths are relative to the repository root;
    the generated documents live in `docs`."""
    fx = "tests/fixtures/"
    bad, ideal, rp2 = fx + "bad.json", fx + "ideal.json", fx + "rp2.json"
    commands = [argv for argv, _ in _fixture_commands()] + [
        ["homology", "--input", bad, "--name", "badComplex"],
        ["trim", "--input", bad, "--name", "badComplex", "--below", "0"],
        ["swindle", "--input", rp2, "--name", "split", "--window", "0"],
        ["laurent-resolve", "--input", rp2, "--name", "split", "--window", "0"],
        ["realize", "--input", ideal, "--name", "ideal", "--degree", "-1"],
        ["corpus", "--count", "0"],
        ["realize", "--input", ideal, "--name", "ideal", "--degree", "3"],
        ["realize", "--input", rp2, "--name", "split", "--degree", "3"],
    ]
    out = {" ".join(argv): argv for argv in commands}
    for cmd in ("obstruction", "instant"):
        for ring in CORPUS_RINGS:
            doc = str(docs / f"corpus-{ring}.json")
            for k in range(CORPUS_COUNT):
                out[f"{cmd} corpus-{ring} dom{k}"] = [
                    cmd, "--input", doc, "--name", f"dom{k}"]
            out[f"{cmd} corpus-{ring} dom0 --format text"] = [
                cmd, "--input", doc, "--name", "dom0", "--format", "text"]
            doc = str(docs / f"nontrivial-{ring}.json")
            for k in range(NONTRIVIAL_COUNT):
                out[f"{cmd} nontrivial-{ring} dom{k}"] = [
                    cmd, "--input", doc, "--name", f"dom{k}"]
            doc = str(docs / f"perturbed-{ring}.json")
            for k in range(PERTURBED_COUNT):
                out[f"{cmd} perturbed-{ring} dom{k}"] = [
                    cmd, "--input", doc, "--name", f"dom{k}"]
        for name in ("s3", "perturbed-s3"):
            for k in range(S3_COUNT):
                out[f"{cmd} {name} dom{k}"] = [
                    cmd, "--input", str(docs / f"{name}.json"), "--name", f"dom{k}"]
        out[f"{cmd} invalid dom"] = [
            cmd, "--input", str(docs / "invalid.json"), "--name", "dom"]
    for ring in CORPUS_RINGS:
        doc = str(docs / f"laurent-{ring}.json")
        for name in ("p1", "q0", "q1"):
            for w in LAURENT_WINDOWS:
                out[f"laurent-resolve laurent-{ring} {name} --window {w}"] = [
                    "laurent-resolve", "--input", doc, "--name", name,
                    "--window", str(w)]
            for w in SWINDLE_WINDOWS:
                out[f"swindle laurent-{ring} {name} --window {w}"] = [
                    "swindle", "--input", doc, "--name", name, "--window", str(w)]
        doc = str(docs / f"cones-{ring}.json")
        for k, x in enumerate(identity_cones(ring)):
            for below in sorted({x.bottom_degree, x.top_degree - 1}):
                out[f"trim cones-{ring} X{k} --below {below}"] = [
                    "trim", "--input", doc, "--name", f"X{k}",
                    "--below", str(below)]
        doc = str(docs / f"replace-{ring}.json")
        for k in range(REPLACE_COUNT):
            for x in ("K", "L"):
                out[f"free-replace replace-{ring} {x}{k} --witness w{k}"] = [
                    "free-replace", "--input", doc, "--name", f"{x}{k}",
                    "--witness", f"w{k}"]
    doc = str(docs / "s3.json")
    for w in S3_WINDOWS:
        out[f"laurent-resolve s3 q0 --window {w}"] = [
            "laurent-resolve", "--input", doc, "--name", "q0", "--window", str(w)]
    out[f"swindle s3 q0 --window {S3_WINDOWS[-1]}"] = [
        "swindle", "--input", doc, "--name", "q0", "--window", str(S3_WINDOWS[-1])]
    for name in MEMO_LITERALS:
        for where in ("one", "two"):
            out[f"verify memo-{name}-{where} X"] = [
                "verify", "--input", str(docs / f"memo-{name}-{where}.json"), "--name", "X"]
        out[f"verify memo-{name}-two W"] = [
            "verify", "--input", str(docs / f"memo-{name}-two.json"), "--name", "W"]
    for fault in FAULTS:
        out[f"obstruction fault-{fault} dom0"] = [
            "obstruction", "--input", str(docs / f"fault-{fault}.json"), "--name", "dom0"]
    doc = str(docs / "refused.json")
    for name in ("f", "g"):
        out[f"torus refused {name}"] = ["torus", "--input", doc, "--name", name]
    for name in ("R", "S"):
        out[f"free-replace refused {name} --witness w"] = [
            "free-replace", "--input", doc, "--name", name, "--witness", "w"]
    for name in ("f", "g"):
        out[f"torus torus-c2 {name}"] = [
            "torus", "--input", str(docs / "torus-c2.json"), "--name", name]
    doc = str(docs / "summands.json")
    for name in ("h", "k"):
        out[f"torus summands {name}"] = ["torus", "--input", doc, "--name", name]
    for name in ("T", "F"):
        out[f"free-replace summands {name} --witness w3"] = [
            "free-replace", "--input", doc, "--name", name, "--witness", "w3"]
    return out


def digest(argv: list) -> str:
    """SHA-256 of the exit status, stdout and stderr of one CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_documents(path)
    return path


@pytest.mark.parametrize(
    "name", sorted(set(cases(pathlib.Path("docs"))) | set(_golden())))
def test_golden_output(name, docs, monkeypatch):
    golden = _golden()
    argv = cases(docs).get(name)
    assert argv is not None, f"golden entry {name!r} has no case"
    assert name in golden, (f"no golden entry for {name!r}; record it with "
                            "PYTHONPATH=src python tests/test_golden.py")
    monkeypatch.chdir(ROOT)
    assert digest(argv) == golden[name]


if __name__ == "__main__":
    golden = _golden()
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        write_documents(pathlib.Path(tmp))
        for name, argv in cases(pathlib.Path(tmp)).items():
            if name not in golden:
                golden[name] = digest(argv)
                print(f"recorded {name}")
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, indent=2) + "\n",
                      encoding="utf-8")
