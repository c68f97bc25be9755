"""A guard that the package holds no function that only the tests call.

A route kept only as an independent check belongs in the tests (`helpers`),
so every top-level function of `src/qmtop` must be named somewhere else in
the package, be traced by the benchmark (a key of `WRAPPED` in
`perfbench/spans.py`), or be the console script `cli.entry`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qmtop"


def _wrapped() -> set[tuple[str, str]]:
    """The (module, function) keys of the benchmark's `WRAPPED`, read from
    its source without importing it."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [target.id for target in node.targets] == ["WRAPPED"])
    return {ast.literal_eval(key) for key in table.keys}


def _names(node: ast.AST) -> set[str]:
    """Every name a statement refers to: variables, attributes and imports."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
    return out


def test_every_package_function_is_named_elsewhere_in_the_package():
    kept = _wrapped() | {("cli", "entry")}
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    # The names each top-level statement refers to, keyed by (module, position).
    names = {(module, i): _names(stmt)
             for module, tree in modules.items() for i, stmt in enumerate(tree.body)}
    unnamed = [f"{module}.{stmt.name}"
               for module, tree in modules.items() for i, stmt in enumerate(tree.body)
               if isinstance(stmt, ast.FunctionDef) and (module, stmt.name) not in kept
               and not any(stmt.name in refs for key, refs in names.items()
                           if key != (module, i))]
    assert unnamed == []
