"""Source rule: the library ships only what a stage, a script or the
benchmark reaches, keeps no field that nothing reads, and never imports
the tests.

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
reaches every package definition named f.  A method or property is
reached only through an attribute load `.f`: a bare name f, such as the
builtin `pow` or a parameter called `lift`, reaches the module-level
definitions named f only.  The rule over-approximates reach: it can miss
dead code, but it never flags code a root runs.

Every field under `src/exalg/` must be read: each annotated field of a
class body and each `self.x = ...` store.  A field is read when an
attribute of its last name is loaded somewhere under `src/exalg/` or in a
root file under `scripts/` or `perfbench/`, code strings included.  Names
match by their last component here too, so the rule over-approximates in
the same way: a field that only the tests read fails it.

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
    """Every bare name and attribute name under the nodes, an attribute
    load also as "." and its name, which alone reaches a method."""
    out = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    out.add("." + node.attr)
    return out


def _attribute_reads(*trees) -> set:
    """Every attribute name loaded under the nodes."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def _with_code_strings(tree, collect) -> set:
    """`collect` of the tree and of each string in it that parses as Python."""
    out = collect(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                out |= collect(ast.parse(textwrap.dedent(node.value)))
            except SyntaxError:
                pass
    return out


def _root_files() -> list:
    return [ast.parse(path.read_text()) for folder in ("scripts", "perfbench")
            for path in sorted((ROOT / folder).rglob("*.py"))]


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
    for tree in _root_files():
        roots |= _with_code_strings(tree, _names)
    return defs, roots


def _key(qualname: str) -> str:
    """The name that reaches a definition: its last component, and for a
    method "." and its last component."""
    _, *owner, name = qualname.split(".")
    return "." * bool(owner) + name


def _reached(defs, roots) -> set:
    """The names reached from `roots`."""
    by_name = {}
    for qualname, node in defs.items():
        by_name.setdefault(_key(qualname), []).append(node)
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
    assert [name for name in defs if _key(name) not in reached] == []
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


def _fields(tree, stem: str):
    """(qualified name, last name) of every annotated field of a class body
    and every `self.x = ...` store in the module tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{stem}.{node.name}.{stmt.target.id}", stmt.target.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"):
            yield f"{stem}:{node.lineno} self.{node.attr}", node.attr


def test_library_keeps_no_field_that_nothing_reads():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = _attribute_reads(*trees.values())
    for tree in _root_files():
        reads |= _with_code_strings(tree, _attribute_reads)
    fields = [field for stem, tree in trees.items() for field in _fields(tree, stem)]
    assert len(fields) > 100
    assert [qualname for qualname, name in fields if name not in reads] == []
