"""Source rule: the library ships only what a stage, a script or the
benchmark reaches, and it never imports the tests.

Every definition under `src/exalg/` must be reached from a root: each
module-level function and class, each method and property, and each
private helper.  The roots are:

- `cli.main`;
- a module-level statement of the package, such as the stage table
  `scenarios._STAGES` (imports and `__all__` itself aside);
- a file under `scripts/` or `perfbench/`, with the strings in it that
  parse as Python: the code `perfbench/tests` runs in a child process and
  labels such as "linalg.solve_left".

A name is reached when a root names it, or when the body of a reached
definition does.  The body of a class is its bases, decorators and
class-level statements, and its dunder methods, which Python calls for
it; every other method or property is a definition of its own, reached
by its name.  Names match by their last component, so any attribute `.f`
reaches every package definition named f.  The rule over-approximates
reach: it can miss dead code, but it never flags code a root runs.
Brute-force oracles and fixtures that only the tests need live in
`tests/oracles.py`.
"""

import ast
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "exalg"

DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _names(*trees) -> set:
    """Every bare name and attribute name under the nodes."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
    return out


def _names_with_code_strings(tree) -> set:
    out = _names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                out |= _names(ast.parse(textwrap.dedent(node.value)))
            except SyntaxError:
                pass
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _body(node) -> list:
    """What reaching `node` runs: a function whole, a class without the
    methods and nested classes that are definitions of their own."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    own = [stmt for stmt in node.body if not isinstance(stmt, DEFINITIONS) or _is_dunder(stmt.name)]
    return [*node.decorator_list, *node.bases, *node.keywords, *own]


def _definitions(path, nodes, prefix=""):
    """(qualified name, node) of every definition in `nodes`, methods and
    nested classes included; dunder methods belong to their class."""
    for node in nodes:
        if isinstance(node, DEFINITIONS) and not _is_dunder(node.name):
            yield f"{path.stem}.{prefix}{node.name}", node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(path, node.body, f"{prefix}{node.name}.")


def _package():
    """(definitions by qualified name, root names)."""
    defs, roots = {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs.update(_definitions(path, tree.body))
        for node in tree.body:
            if path.stem == "cli" and getattr(node, "name", None) == "main":
                roots |= _names(node)
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                continue
            elif not isinstance(node, (*DEFINITIONS, ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            roots |= _names_with_code_strings(ast.parse(path.read_text()))
    return defs, roots


def _reached(defs, roots) -> set:
    """The last components reached from `roots`."""
    by_name = {}
    for qualname, node in defs.items():
        by_name.setdefault(qualname.rsplit(".", 1)[1], []).append(node)
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in by_name.get(name, ()):
                todo.extend(_names(*_body(node)))
    return reached


def test_library_ships_only_what_a_root_reaches():
    defs, roots = _package()
    reached = _reached(defs, roots)
    assert [name for name in defs if name.rsplit(".", 1)[1] not in reached] == []
    # the package never imports the tests
    test_modules = {"tests", "conftest"} | {path.stem for path in (ROOT / "tests").glob("*.py")}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                heads = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                heads = [node.module.split(".")[0]]
            else:
                continue
            assert not set(heads) & test_modules, f"{path.name} imports {heads} from the tests"
