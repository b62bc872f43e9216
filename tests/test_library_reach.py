"""Source rule: the library ships only what a stage, a script or the
benchmark reaches, and it never imports the tests.

Every name in the `__all__` of an `exalg` module must be reached from a
root:

- `cli.main`;
- a module-level statement of the package, such as the stage table
  `scenarios._STAGES` (imports and `__all__` itself aside);
- a file under `scripts/` or `perfbench/`, with the strings in it that
  parse as Python: the code `perfbench/tests` runs in a child process and
  labels such as "linalg.solve_left".

A name is reached when a root names it, or when the body of a reached
package function or class does; a submodule is reached when one of its
definitions is.  Names match by their last component, so any attribute
`.f` reaches every package definition named f.  The rule over-approximates
reach: it can miss dead code, but it never flags code a root runs.
Brute-force oracles and fixtures that only the tests need live in
`tests/oracles.py`.
"""

import ast
import pathlib
import textwrap

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "exalg"

# exported on purpose although no root reaches them
EXCEPTIONS = {
    "zero_ring": "the zero ring is a supported input, and its quotients and Cayley-Hamilton algebra are tested to build",
    "abstract_gma": "the GMA built from pairing data alone; test_gma_algebra_comes_from_one_stacked_check parses it in gma.py",
    "reducible_ordinary_quotient": "builds the paper's E_red; a test counts its ch_base_change calls through the ordinary binding",
}


def _names(tree) -> set:
    """Every bare name and attribute name under a node."""
    out = set()
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


def _package():
    """(definitions by name, definitions by module, exports by module, root names)."""
    defs, by_module, exports, roots = {}, {}, {}, set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        by_module[path.stem] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
                by_module[path.stem].add(node.name)
                if path.stem == "cli" and node.name == "main":
                    roots |= _names(node)
            elif isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["__all__"]:
                exports[path.stem] = ast.literal_eval(node.value)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names(node)
    return defs, by_module, exports, roots


def _reached(defs, by_module, roots) -> set:
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            roots |= _names_with_code_strings(ast.parse(path.read_text()))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            for node in defs.get(name, ()):
                todo.extend(_names(node))
    return reached | {mod for mod, names in by_module.items() if names & reached}


def test_library_ships_only_what_a_root_reaches():
    defs, by_module, exports, roots = _package()
    reached = _reached(defs, by_module, roots)
    exported = {name for names in exports.values() for name in names}
    unreached = [f"{mod}.{name}" for mod, names in exports.items() for name in names if name not in reached]
    assert [name for name in unreached if name.split(".")[1] not in EXCEPTIONS] == []
    # each exception is exported and still unreached, or it has no reason to be listed
    assert set(EXCEPTIONS) <= exported and not set(EXCEPTIONS) & reached
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
