"""Command-line driver: exit-status contract and byte-level determinism."""
import json
import os
import pathlib
import resource
import subprocess
import sys

import pytest

import chaink0
from chaink0 import cli, complexes, constructions, instant, projective, rings
from chaink0.cli import main
from chaink0.corpus import corpus_dominations, generate_corpus
from chaink0.documents import Workspace, canonical_json
from chaink0.matrices import Mat

from test_golden import REFUSED

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_domination_ok(capsys):
    code, out, err = run(capsys, "verify", "--input", str(FIXTURES / "ideal.json"),
                         "--name", "dom1")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["report"]["ok"] is True
    assert payload["provenance"]["name"] == "dom1"


@pytest.mark.parametrize("argv, checks", [
    (["verify", "--name", "dom1"], 1),
    (["realize", "--name", "ideal", "--degree", "1"], 2),
], ids=["verify", "realize"])
def test_each_idempotent_is_checked_once_per_command(monkeypatch, capsys, argv, checks):
    """A module whose e @ e == e was checked at parse time carries the fact,
    and an equal idempotent parsed again is the same module, so each distinct
    non-free idempotent matrix is squared once: parse checks the one matrix
    of the module table and complex A, realize adds its reduction's P."""
    seen = []
    real = Mat.is_idempotent

    def counting(self):
        seen.append(self)
        return real(self)

    monkeypatch.setattr(Mat, "is_idempotent", counting)
    code, _, _ = run(capsys, argv[0], "--input", str(FIXTURES / "ideal.json"), *argv[1:])
    assert code == 0
    assert len(seen) == len({id(m) for m in seen}) == len(set(seen)) == checks


def test_verify_broken_map_exit_2(capsys):
    code, out, _ = run(capsys, "verify", "--input", str(FIXTURES / "bad.json"),
                       "--name", "brokenMap")
    assert code == 2
    assert json.loads(out)["report"]["ok"] is False


def test_verify_bad_complex_exit_2(capsys):
    code, out, _ = run(capsys, "verify", "--input", str(FIXTURES / "bad.json"),
                       "--name", "badComplex")
    assert code == 2
    codes = [v["code"] for v in json.loads(out)["report"]["violations"]]
    assert "complex.dd_nonzero" in codes


def test_homology_report(capsys):
    code, out, _ = run(capsys, "homology", "--input", str(FIXTURES / "rp2.json"),
                       "--name", "X")
    assert code == 0
    groups = json.loads(out)["homology"]
    assert groups["0"] == {"betti": 1, "torsion": []}
    assert groups["1"] == {"betti": 0, "torsion": [2]}
    assert "2" not in groups  # trivial groups are omitted


def test_obstruction_of_ideal_domination(capsys):
    code, out, _ = run(capsys, "obstruction",
                       "--input", str(FIXTURES / "ideal.json"), "--name", "dom1")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == 1
    assert payload["sigma"]["trivial"] is False
    assert payload["oracle"]["status"] == "non_principal"
    assert payload["oracle"]["norm"] == 2


@pytest.mark.parametrize("command", ["homology", "trim"])
def test_invalid_complex_reported_exit_2(capsys, command):
    argv = [command, "--input", str(FIXTURES / "bad.json"), "--name", "badComplex"]
    if command == "trim":
        argv += ["--below", "0"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and err == ""
    rep = json.loads(out)["report"]
    assert rep["ok"] is False
    assert rep["violations"] == [{"code": "complex.dd_nonzero", "degree": 2}]


@pytest.mark.parametrize("argv", [
    ["swindle", "--input", str(FIXTURES / "rp2.json"), "--name", "split",
     "--window", "0"],
    ["laurent-resolve", "--input", str(FIXTURES / "rp2.json"), "--name", "split",
     "--window", "0"],
    ["realize", "--input", str(FIXTURES / "ideal.json"), "--name", "ideal",
     "--degree", "-1"],
    ["corpus", "--count", "0"],
    ["swindle", "--input", str(FIXTURES / "rp2.json"), "--name", "split",
     "--window", "257"],
    ["laurent-resolve", "--input", str(FIXTURES / "rp2.json"), "--name", "split",
     "--window", "257"],
    ["realize", "--input", str(FIXTURES / "ideal.json"), "--name", "ideal",
     "--degree", "257"],
    ["corpus", "--count", "1001"],
])
def test_argument_out_of_range_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: --") and err.count("\n") == 1


def test_trim_rejects_torsion_bottom(capsys):
    # circle in rp2.json has nonzero bottom homology, so trimming must refuse
    code, out, _ = run(capsys, "trim", "--input", str(FIXTURES / "rp2.json"),
                       "--name", "circle", "--below", "0")
    assert code == 2
    rep = json.loads(out)["report"]
    assert rep["violations"][0]["code"] == "trim.homology_nonvanishing"
    assert rep["violations"][0]["degree"] == 0


def test_malformed_input_exit_1(capsys):
    code, out, err = run(capsys, "verify",
                         "--input", str(FIXTURES / "malformed.json"),
                         "--name", "anything")
    assert code == 1 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("table", ["modules", "complexes", "maps", "homotopies",
                                   "witnesses", "dominations"])
def test_table_not_an_object_exit_1(tmp_path, capsys, table):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"ring": {"kind": "integers"}, table: [1, 2]}))
    code, out, err = run(capsys, "verify", "--input", str(doc), "--name", "x")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("field, value", [("a", -1), ("b", -1), ("a", True)])
def test_witness_count_not_natural_exit_1(tmp_path, capsys, field, value):
    one = {"rows": 1, "cols": 1, "entries": ["1"]}
    witness = {"a": 0, "b": 0, "iso": one, "iso_inverse": one, field: value}
    point = {"bottom_degree": 0, "boundaries": [],
             "modules": [{"ambient_rank": 1, "idempotent": "free"}]}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"ring": {"kind": "integers"},
                               "complexes": {"X": point},
                               "witnesses": {"w": witness}}))
    code, out, err = run(capsys, "free-replace", "--input", str(doc),
                         "--name", "X", "--witness", "w")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


FREE_LINE = {"ambient_rank": 1, "idempotent": "free"}


@pytest.mark.parametrize("field, module, bottom", [
    ("ambient_rank", {"ambient_rank": True, "idempotent": "free"}, 0),
    ("ambient_rank", {"ambient_rank": -1, "idempotent": "free"}, 0),
    ("rows", {"ambient_rank": 1, "idempotent":
              {"rows": True, "cols": 1, "entries": ["1"]}}, 0),
    ("cols", {"ambient_rank": 1, "idempotent":
              {"rows": 1, "cols": True, "entries": ["1"]}}, 0),
    ("rows", {"ambient_rank": 1, "idempotent":
              {"rows": -1, "cols": -1, "entries": ["1"]}}, 0),
    ("bottom_degree", FREE_LINE, True),
], ids=["rank-true", "rank-negative", "rows-true", "cols-true",
        "rows-cols-negative", "bottom-true"])
def test_count_field_not_natural_exit_1(tmp_path, capsys, field, module, bottom):
    point = {"bottom_degree": bottom, "boundaries": [], "modules": [FREE_LINE]}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"ring": {"kind": "integers"},
                               "modules": {"p": module},
                               "complexes": {"X": point}}))
    code, out, err = run(capsys, "laurent-resolve", "--input", str(doc),
                         "--name", "p")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert repr(field) in err


def run_limited(*argv, timeout=20):
    """The CLI in a child process with `timeout` seconds and 1 GiB of address
    space, so that unbounded work fails the test instead of hanging it."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(pathlib.Path(chaink0.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, "-m", "chaink0.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=limit, env=dict(os.environ, PYTHONPATH=src))


HUGE = {"ambient_rank": 2 ** 70, "idempotent": "free"}
# The zero summand of R: not free, so free-replace checks a witness for it.
ZERO_LINE = {"ambient_rank": 1,
             "idempotent": {"rows": 1, "cols": 1, "entries": ["0"]}}


def empty(rows, cols):
    return {"rows": rows, "cols": cols, "entries": []}


@pytest.mark.parametrize("argv, module, witness", [
    (["trim", "--name", "X", "--below", "0"], HUGE, {}),
    (["torus", "--name", "f"], HUGE, {}),
    (["free-replace", "--name", "X", "--witness", "w"], ZERO_LINE,
     {"a": 2 ** 70, "b": 0, "iso": empty(0, 2 ** 70 + 1),
      "iso_inverse": empty(2 ** 70 + 1, 0)}),
    (["free-replace", "--name", "X", "--witness", "w"], ZERO_LINE,
     {"a": 0, "b": 2 ** 70, "iso": empty(2 ** 70, 0),
      "iso_inverse": empty(0, 2 ** 70)}),
], ids=["trim-rank", "torus-rank", "witness-a", "witness-b"])
def test_rank_above_the_cap_exit_1(tmp_path, argv, module, witness):
    """A free module of ambient rank 2^70, or a witness with a or b = 2^70,
    is rejected while parsing instead of built as an identity matrix."""
    point = {"bottom_degree": 0, "boundaries": [], "modules": [module]}
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "ring": {"kind": "integers"}, "complexes": {"X": point},
        "maps": {"f": {"source": "X", "target": "X", "components": {}}},
        "witnesses": {"w": witness} if witness else {}}))
    proc = run_limited(argv[0], "--input", str(doc), *argv[1:])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert "at most 1024" in proc.stderr


def test_trim_far_above_the_top_does_constant_work():
    """--below 10^9 on the two-term cone peels its two degrees and stops:
    the work does not grow with --below."""
    proc = run_limited("trim", "--input", str(FIXTURES / "bad.json"),
                       "--name", "cone", "--below", "1000000000", timeout=10)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["complex"] == {
        "bottom_degree": 1000000001, "boundaries": [], "modules": []}


def free_module_doc(tmp_path, ring, rank):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"ring": ring, "modules": {
        "p": {"ambient_rank": rank, "idempotent": "free"}}}))
    return str(doc)


@pytest.mark.parametrize("ring, rank, window, code", [
    ({"kind": "integers"}, 8, 256, 1),
    ({"kind": "integers"}, 5, 103, 1),
    (rings.C2.descriptor(), 3, 86, 1),
    (rings.C2.descriptor(), 3, 85, 0),
], ids=["z-8x256", "z-5x103", "c2-6x86", "c2-6x85-allowed"])
def test_laurent_flat_rank_times_window_capped(tmp_path, ring, rank, window, code):
    """laurent-resolve refuses, before building anything, a module whose
    flattened ambient rank times --window exceeds cli.MAX_FLAT_WINDOW."""
    proc = run_limited("laurent-resolve", "--input", free_module_doc(tmp_path, ring, rank),
                       "--name", "p", "--window", str(window), timeout=30)
    assert proc.returncode == code
    if code:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(f"error: flat rank times --window must be at most "
                                      f"{cli.MAX_FLAT_WINDOW}, got ")
    else:
        assert proc.stderr == "" and json.loads(proc.stdout)["window_check"]["injective"]


@pytest.mark.parametrize("nest", [False, True], ids=["group-ring", "laurent-base"])
def test_group_order_above_the_cap_exit_1(tmp_path, nest):
    """A multiplication table of order MAX_GROUP_ORDER + 1 is refused before
    its cubic validation runs."""
    n = rings.MAX_GROUP_ORDER + 1
    ring = {"kind": "group_ring", "table": [[(i + j) % n for j in range(n)] for i in range(n)]}
    if nest:
        ring = {"kind": "laurent", "base": ring}
    proc = run_limited("verify", "--input", free_module_doc(tmp_path, ring, 1), "--name", "p",
                       timeout=10)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (f"error: bad ring descriptor: group order must be at most "
                           f"{rings.MAX_GROUP_ORDER}, got {n}\n")


C2_DESC = {"kind": "group_ring", "table": [[0, 1], [1, 0]]}
Q5_DESC = {"kind": "quadratic", "d": -5}


def point_doc(ring, entry):
    """A document whose complex X is the 1 x 1 idempotent [entry] in degree 0."""
    idem = {"rows": 1, "cols": 1, "entries": [entry]}
    module = {"ambient_rank": 1, "idempotent": idem}
    return {"ring": ring, "complexes": {"X": {"bottom_degree": 0, "boundaries": [],
                                              "modules": [module]}}}


@pytest.mark.parametrize("doc", [
    {"ring": {"kind": "integers"}, "complexes": {"X": [1, 2]}},
    {"ring": {"kind": "laurent", "base": "x"}},
    {"ring": {"kind": "group_ring"}},
    point_doc({"kind": "quadratic", "d": -5.0}, [1, 0]),
    point_doc(C2_DESC, [[1, 0.5]]),
    point_doc(C2_DESC, [[True, 0]]),
    point_doc(Q5_DESC, [1.5, 0]),
    point_doc(Q5_DESC, [True, 0]),
    point_doc({"kind": "laurent", "base": {"kind": "integers"}}, [["1", 0.0]]),
    point_doc({"kind": "group_ring", "table": [[False]]}, [[1, 0]]),
    point_doc({"kind": "group_ring", "table": [[0.0]]}, [[1, 0]]),
    point_doc({"kind": "integers"}, " +0_1 "),
    point_doc({"kind": "integers"}, "-0"),
    point_doc({"kind": "integers"}, "01"),
], ids=["complex-list", "laurent-base-string", "group-ring-no-table",
        "quadratic-d-float", "group-index-float", "group-coeff-true",
        "quadratic-float", "quadratic-true", "laurent-exponent-float",
        "group-table-false", "group-table-float", "integer-padded",
        "integer-minus-zero", "integer-leading-zero"])
def test_document_contract_exit_1(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--input", str(path), "--name", "X")
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("below", ["-5", "0", "1000000000"])
def test_trim_rejects_laurent_ring_exit_1(tmp_path, capsys, below):
    """A ring with no finite flattening is rejected before any peeling,
    wherever --below lies."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(point_doc(
        {"kind": "laurent", "base": {"kind": "integers"}}, [["1", 0]])))
    code, out, err = run(capsys, "trim", "--input", str(path), "--name", "X",
                         "--below", below)
    assert (code, out, err) == (1, "", "error: homology over laurent is unsupported\n")


def test_unresolved_name_exit_1(capsys):
    code, _, err = run(capsys, "verify", "--input", str(FIXTURES / "rp2.json"),
                       "--name", "ghost")
    assert code == 1 and "unresolved" in err


def test_missing_file_exit_1(capsys):
    code, _, err = run(capsys, "homology", "--input", str(FIXTURES / "nope.json"),
                       "--name", "X")
    assert code == 1 and "cannot read" in err


def test_laurent_resolve_module(capsys):
    code, out, _ = run(capsys, "laurent-resolve",
                       "--input", str(FIXTURES / "rp2.json"),
                       "--name", "split", "--window", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["window_check"]["N"] == 3
    assert payload["window_check"]["injective"] is True
    assert payload["complex"]["extension"] == "laurent"


def test_swindle_module(capsys):
    code, out, _ = run(capsys, "swindle", "--input", str(FIXTURES / "rp2.json"),
                       "--name", "split", "--window", "4")
    assert code == 0
    groups = json.loads(out)["homology"]
    assert groups["0"]["betti"] == 1
    assert all(str(j) not in groups for j in (1, 2, 3))


def test_realize_module(capsys):
    code, out, _ = run(capsys, "realize", "--input", str(FIXTURES / "ideal.json"),
                       "--name", "ideal", "--degree", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["chi"] == -1
    assert payload["oracle"]["status"] == "non_principal"


def test_torus_of_endomorphism(capsys):
    code, out, _ = run(capsys, "torus", "--input", str(FIXTURES / "rp2.json"),
                       "--name", "flip")
    assert code == 0
    assert json.loads(out)["complex"]["extension"] == "laurent"


def test_torus_of_a_non_endomorphism_exit_1(capsys):
    code, out, err = run(capsys, "torus", "--input", str(FIXTURES / "bad.json"),
                         "--name", "brokenMap")
    assert (code, out, err) == (1, "", "error: mapping torus needs an endomorphism\n")


def every_command_run(refused: pathlib.Path):
    """argv for every command, with only its required flags, on every named
    object of every fixture and of test_golden.REFUSED, swindle and
    laurent-resolve also at both ends of the --window range; then corpus."""
    for path in sorted(FIXTURES.glob("*.json")) + [refused]:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            doc = {}
        names = sorted({name for key in Workspace.TABLES
                        if isinstance(doc.get(key), dict) for name in doc[key]})
        windows = [[], ["--window", "1"], ["--window", str(cli.MAX_WINDOW)]]
        required = {"trim": [["--below", "0"]],
                    "free-replace": [["--witness", w] for w in doc.get("witnesses") or ["w"]],
                    "swindle": windows, "laurent-resolve": windows}
        for command, spec in cli.COMMANDS.items():
            if spec.accepts is None:
                continue
            for name in names or ["anything"]:
                for flags in required.get(command, [[]]):
                    yield [command, "--input", str(path), "--name", name, *flags]
    yield ["corpus"]


def test_every_command_on_every_named_object_keeps_the_contract(tmp_path, capsys):
    """Exit 0, 1 or 2 and never a traceback; exit 1 prints one error: line
    and nothing on stdout, exits 0 and 2 print nothing on stderr."""
    refused = tmp_path / "refused.json"
    refused.write_text(canonical_json(REFUSED), encoding="utf-8")
    for argv in every_command_run(refused):
        try:
            code = main(argv)
        except Exception as ex:
            pytest.fail(f"{argv} raised {ex!r}")
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        if code == 1:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
        else:
            assert out and err == "", argv


def test_text_format(capsys):
    code, out, _ = run(capsys, "homology", "--input", str(FIXTURES / "rp2.json"),
                       "--name", "circle", "--format", "text")
    assert code == 0
    assert "betti" in out and not out.lstrip().startswith("{")


def test_output_file(tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run(capsys, "homology", "--input", str(FIXTURES / "rp2.json"),
                       "--name", "circle", "--output", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["command"] == "homology"


def test_corpus_determinism(capsys):
    _, first, _ = run(capsys, "corpus", "--seed", "7", "--count", "3",
                      "--ring", "c2")
    _, again, _ = run(capsys, "corpus", "--seed", "7", "--count", "3",
                      "--ring", "c2")
    _, other, _ = run(capsys, "corpus", "--seed", "8", "--count", "3",
                      "--ring", "c2")
    assert first == again
    assert first != other
    doc = json.loads(first)
    assert doc["ring"]["kind"] == "group_ring"
    assert len(doc["dominations"]) == 3


def test_repeated_runs_byte_identical(capsys):
    args = ("obstruction", "--input", str(FIXTURES / "ideal.json"),
            "--name", "dom1")
    _, one, _ = run(capsys, *args)
    _, two, _ = run(capsys, *args)
    assert one == two


def test_obstruction_checks_each_claim_once(tmp_path, capsys, monkeypatch):
    # An all-free domination whose P is a proper idempotent, so that the
    # stable-freeness witness is constructed.
    def proper(d):
        p = instant.build_instant(d).P
        return not p.is_zero and p != Mat.identity(d.A.ring, p.rows)

    k = next(k for k, d in enumerate(corpus_dominations(0, 8, "integers"))
             if proper(d))
    doc = tmp_path / "corpus.json"
    doc.write_text(canonical_json(generate_corpus(0, 8, "integers")))

    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    names = ("verify_domination", "verify_homotopy", "validate_complex",
             "verify_chain_map", "verify_stable_freeness")
    for mod in (complexes, constructions, instant, projective, cli):
        for name in names:
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))

    code, out, _ = run(capsys, "obstruction", "--input", str(doc),
                       "--name", f"dom{k}")
    assert code == 0
    payload = json.loads(out)
    assert payload["witnessed_zero"] is True and "witness" in payload
    assert calls == {"verify_domination": 1,
                     "verify_homotopy": 2,         # s and h
                     "validate_complex": 3,        # A, C and K
                     "verify_chain_map": 4,        # i, r, j and u; not u again in the cone
                     "verify_stable_freeness": 1}


def test_idempotent_above_the_flat_rank_cap_exit_1(tmp_path):
    """A non-free module whose ambient rank times the ring's flat rank is
    above documents.MAX_IDEMPOTENT_FLAT_RANK is refused before its
    idempotent is parsed or multiplied; one at the cap is checked."""
    from chaink0.documents import MAX_IDEMPOTENT_FLAT_RANK as cap

    def verify(ring, rank, one, entry):
        idem = {"rows": rank, "cols": rank, "entries": [one] + [entry] * (rank * rank - 1)}
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"ring": ring, "modules": {
            "p": {"ambient_rank": rank, "idempotent": idem}}}))
        return run_limited("verify", "--input", str(doc), "--name", "p", timeout=30)

    for ring, flat, one, zero in (({"kind": "integers"}, 1, "1", "0"),
                                  (rings.C2.descriptor(), 2, [[1, 0]], [])):
        rank = cap // flat + 1
        proc = verify(ring, rank, one, zero)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (f"error: field 'ambient_rank' of a non-free module: "
                               f"flattened rank must be at most {cap}, got {rank * flat}\n")
    proc = verify({"kind": "integers"}, cap, "1", "0")
    assert proc.returncode == 0 and json.loads(proc.stdout)["report"]["ok"] is True


def cached_parser_sequence(tmp: pathlib.Path, out_name: str) -> list:
    """Commands mixing formats, --output, --class-bound and argparse
    rejections, each writing its report to `tmp/out_name` when it has
    --output."""
    ideal, rp2, bad = (str(FIXTURES / n) for n in ("ideal.json", "rp2.json", "bad.json"))
    out = str(tmp / out_name)
    return [
        ["verify", "--input", ideal, "--name", "dom1"],
        ["obstruction", "--input", ideal, "--name", "dom1", "--class-bound", "3"],
        ["homology", "--input", rp2, "--name", "X", "--format", "text"],
        ["obstruction", "--input", ideal, "--name", "dom1", "--bogus"],
        ["trim", "--input", bad, "--name", "cone", "--below", "0", "--output", out],
        ["corpus", "--count", "2", "--ring", "c2", "--format", "text"],
        ["verify", "--name", "dom1"],
        ["obstruction", "--input", ideal, "--name", "dom1"],
        ["realize", "--input", ideal, "--name", "ideal", "--degree", "1",
         "--class-bound", "2", "--output", out, "--format", "text"],
        ["laurent-resolve", "--input", rp2, "--name", "split", "--window", "300"],
        ["swindle", "--input", rp2, "--name", "split", "--window", "2"],
        ["trim", "--input", bad, "--name", "cone"],
        ["homology", "--input", rp2, "--name", "X"],
    ]


def test_cached_parser_matches_a_fresh_process(tmp_path, capsys):
    """One process runs the sequence through cli.main and its one parser;
    every call gives the exit code, stdout, stderr and output file of the
    same command in a fresh child process."""
    inline, child = (cached_parser_sequence(tmp_path, n) for n in ("inline.out", "child.out"))
    codes, outputs = set(), 0
    for argv, child_argv in zip(inline, child):
        for f in ("inline.out", "child.out"):
            (tmp_path / f).unlink(missing_ok=True)
        try:
            code = main(list(argv))
        except SystemExit as ex:
            code = ex.code
        out, err = capsys.readouterr()
        proc = run_limited(*child_argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        written = [tmp_path / f for f in ("inline.out", "child.out") if (tmp_path / f).exists()]
        assert len(written) in (0, 2), argv
        if written:
            assert written[0].read_bytes() == written[1].read_bytes()
            outputs += 1
        codes.add(code)
    assert codes == {0, 1, 2} and outputs == 2


def test_laurent_idempotent_above_the_term_cap_exit_1(tmp_path):
    """A non-free Laurent module whose idempotent has more flattened terms
    (Laurent terms times the base's flat rank) than
    documents.MAX_IDEMPOTENT_TERMS is refused before its idempotent product;
    one at the cap is multiplied, and found not idempotent."""
    from chaink0.documents import MAX_IDEMPOTENT_TERMS as cap

    def verify(base, one, terms):
        idem = {"rows": 1, "cols": 1, "entries": [[[one, e] for e in range(terms)]]}
        doc = tmp_path / "doc.json"
        doc.write_text(json.dumps({"ring": {"kind": "laurent", "base": base}, "modules": {
            "p": {"ambient_rank": 1, "idempotent": idem}}}))
        return run_limited("verify", "--input", str(doc), "--name", "p", timeout=30)

    for base, flat, one in (({"kind": "integers"}, 1, "1"),
                            (rings.C2.descriptor(), 2, [[1, 0], [1, 1]])):
        terms = cap // flat + 1
        proc = verify(base, one, terms)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (f"error: field 'idempotent' of a non-free module: flattened "
                               f"Laurent terms must be at most {cap}, got {terms * flat}\n")
    proc = verify({"kind": "integers"}, "1", cap)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: module matrix is not idempotent\n"
