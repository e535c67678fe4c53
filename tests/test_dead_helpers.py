"""Every module-level private function or class of the package is read
somewhere in src/ outside its own definition, so no dead helper stays."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "chaink0"


def _private(node) -> bool:
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__"))


def _references(node):
    """(name, node) of each name read, attribute read or name imported."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id, n
        elif isinstance(n, ast.Attribute):
            yield n.attr, n
        elif isinstance(n, ast.ImportFrom):
            yield from ((a.name, n) for a in n.names)


def dead_helpers(sources: dict) -> list:
    """(module, name) of each module-level private function or class that
    no module of `sources` (module name -> text) refers to outside the
    definition itself."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    refs = {m: list(_references(tree)) for m, tree in trees.items()}
    dead = []
    for m, tree in trees.items():
        for node in filter(_private, tree.body):
            inside = {id(n) for n in ast.walk(node)}
            if not any(name == node.name and (k != m or id(n) not in inside)
                       for k, found in refs.items() for name, n in found):
                dead.append((m, node.name))
    return dead


def test_the_check_finds_a_dead_helper():
    sources = {"a": "def _helper():\n    return _helper()\n\n"
                    "def _used():\n    pass\n\nclass _Kept:\n    pass\n\n_Kept()\n",
               "b": "from a import _used\n"}
    assert dead_helpers(sources) == [("a", "_helper")]


def test_no_dead_helper():
    sources = {f.name: f.read_text(encoding="utf-8") for f in sorted(SRC.glob("*.py"))}
    assert dead_helpers(sources) == []
