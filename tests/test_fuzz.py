"""Mutation fuzz of the CLI contract: the parseable fixtures and a ℤ[C₂]
corpus document with one or two fields replaced, each by a value from a
fixed pool or by a value taken from elsewhere in the same document.  Every
case must end in exit 0, 1 or 2, with no traceback, one `error:` line on
exit 1, and within a per-case deadline.  The same mutations, also of a
three-domination ℤ corpus, must parse to the same error or the same objects
whichever names the parse is asked to build.
"""
import contextlib
import copy
import io
import json
import pathlib
import signal
import tempfile

from hypothesis import HealthCheck, given, settings, strategies as st

from chaink0.cli import main
from chaink0.corpus import generate_corpus
from chaink0.documents import DocumentError, Workspace, parse_workspace, workspace_literal
from chaink0.matrices import ShapeError
from chaink0.rings import RingMismatch, UnsupportedRing
from test_golden import load_workloads

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEADLINE_S = 5
# Values a mutated field takes: a huge count, a boolean, a float, non-canonical
# decimals, a duplicated group term, a foreign ring and wrong shapes.
POOL = (2 ** 70, -1, 0, 1, True, 1.0, "01", "-0", "1", None, [], {}, "free",
        "laurent", [[1, 1], [1, 1]], [[1, 0]], [["1", 0]], [1, 0],
        {"kind": "group_ring", "table": [[0, 1], [1, 0]]})


# Documents by the --input value of their commands: the parseable fixtures
# and a one-domination Z[C2] corpus.
DOCS = {f"tests/fixtures/{f}": json.loads((ROOT / "tests" / "fixtures" / f).read_text())
        for f in ("ideal.json", "rp2.json", "bad.json")}
DOCS["corpus-c2"] = generate_corpus(0, 1, "c2")
DOCS["corpus-z3"] = generate_corpus(0, 3, "integers")
COMMANDS = [argv for argv, _ in load_workloads().fixture_commands(0)
            if "--input" in argv and argv[argv.index("--input") + 1] in DOCS]
COMMANDS += [["obstruction", "--input", "corpus-c2", "--name", "dom0"],
             ["instant", "--input", "corpus-c2", "--name", "dom0"],
             ["verify", "--input", "corpus-c2", "--name", "i0"],
             ["homology", "--input", "corpus-c2", "--name", "C0"],
             ["trim", "--input", "corpus-c2", "--name", "C0", "--below", "0"]]


def _paths(node, prefix=()) -> list:
    """Every key path into a JSON value, the root excluded."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    out = []
    for k, v in items:
        out.append(prefix + (k,))
        out += _paths(v, prefix + (k,))
    return out


PATHS = {name: _paths(doc) for name, doc in DOCS.items()}


def _replace(doc, path, value) -> None:
    """Set doc at path to value, unless an earlier mutation removed the path,
    say by turning a dict on it into a list."""
    for k in path[:-1]:
        try:
            doc = doc[k]
        except (KeyError, IndexError, TypeError):
            return
    last = path[-1]
    if isinstance(doc, dict) or (isinstance(doc, list) and isinstance(last, int)
                                 and last < len(doc)):
        doc[last] = value


def test_replace_skips_a_path_whose_dict_became_a_list():
    doc = {"maps": {"f": {"source": "X"}}}
    _replace(doc, ("maps", "f"), [1, 2])
    _replace(doc, ("maps", "f", "source"), "Y")
    _replace(doc, ("maps", "f", "source", "name"), "Y")
    assert doc == {"maps": {"f": [1, 2]}}


def _get(doc, path):
    for k in path:
        doc = doc[k]
    return doc


def _mutated(draw, name: str) -> dict:
    """DOCS[name] with one or two fields replaced, each by a pool value or by
    a value found elsewhere in the same document."""
    doc = copy.deepcopy(DOCS[name])
    spliced = st.sampled_from(PATHS[name]).map(lambda p: _get(DOCS[name], p))
    for _ in range(draw(st.integers(1, 2))):
        value = copy.deepcopy(draw(st.one_of(st.sampled_from(POOL), spliced)))
        _replace(doc, draw(st.sampled_from(PATHS[name])), value)
    return doc


@st.composite
def cases(draw):
    """A command and its mutated document."""
    argv = list(draw(st.sampled_from(COMMANDS)))
    return argv, _mutated(draw, argv[argv.index("--input") + 1])


class Overran(Exception):
    pass


def _alarm(signum, frame):
    raise Overran(f"case ran past {DEADLINE_S} s")


@settings(derandomize=True, max_examples=1000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_mutated_documents_keep_the_cli_contract(case):
    argv, doc = case
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        argv[argv.index("--input") + 1] = str(path)
        out, err = io.StringIO(), io.StringIO()
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(DEADLINE_S)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as ex:        # argparse rejected the flags
                    code = ex.code
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2), (argv, doc)
    if code == 1:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1


# What parse_workspace raises on a malformed document, as the CLI reports it.
PARSE_ERRORS = (DocumentError, UnsupportedRing, RingMismatch, ShapeError)


def _names(doc: dict) -> list:
    return sorted({name for key in Workspace.TABLES
                   if isinstance(doc.get(key), dict) for name in doc[key]})


def _parsed(text: str, names):
    """(error message, None) or (None, {(table, name): literal})."""
    try:
        ws = parse_workspace(text, names)
    except PARSE_ERRORS as ex:
        return f"{type(ex).__name__}: {ex}", None
    return None, {(key, name): lit for key, table in workspace_literal(ws).items()
                  if key != "ring" for name, lit in table.items()}


@st.composite
def named_documents(draw):
    """A mutated document and at most 6 of its names."""
    doc = _mutated(draw, draw(st.sampled_from(sorted(DOCS))))
    names = _names(doc) if isinstance(doc, dict) else []
    return doc, draw(st.lists(st.sampled_from(names), min_size=1, max_size=6, unique=True)
                     if names else st.just([]))


@settings(derandomize=True, max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(named_documents())
def test_parse_errors_do_not_depend_on_the_names_asked_for(case):
    """Asked for one name, a parse raises what the parse asked for every name
    raises, or both succeed and build the same objects for that name."""
    doc, names = case
    text = json.dumps(doc)
    error, whole = _parsed(text, _names(doc))
    for name in names:
        got_error, got = _parsed(text, [name])
        assert got_error == error, (name, doc)
        if error is None:
            assert {k for k in whole if k[1] == name} <= got.keys()
            assert all(whole[k] == lit for k, lit in got.items()), (name, doc)
