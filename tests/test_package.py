"""The package holds production code: every top-level function, class and
assigned name in ``src/macsim``, and every method and property of its
classes, dunders aside, is used by the package itself or by the benchmark
harness.  A use inside a definition's own body or assignment does not count;
a name that a module's ``__all__`` lists is the package's API, and used.

Code that only the tests call belongs in ``tests/oracles.py``.  Uses are read
from the syntax tree, so a name in a docstring or comment does not count.  In
``bench/*.py`` string constants count as well, because its hooks name the
functions they wrap as strings.  Names are matched by identifier alone, so a
same-named local variable or attribute also counts as a use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Test-only definitions that stay in the package for now, and why.
ALLOWED = {
    "adaptation.run_ap_announced": (
        "the announced-length runs stay until the announced scheme gets a "
        "production caller (ROADMAP item 8), and test_09 moves onto it"
    ),
}


def _docstrings(tree: ast.AST) -> set[int]:
    """ids of the docstring constants in ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                found.add(id(first.value))
    return found


def _names(node: ast.AST, strings: bool = False) -> set[str]:
    """Identifiers that ``node`` reads: names, attributes and, with
    ``strings``, the words of its string constants other than docstrings."""
    skip = _docstrings(node) if strings else set()
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif (strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in skip):
            out.update(re.findall(r"\w+", sub.value))
    return out


def test_package_definitions_have_a_production_use():
    definitions = []  # (module.name or module.Class.name, name)
    uses = []  # (the definitions a piece of code belongs to, its names)
    for path in sorted((ROOT / "src" / "macsim").glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = []  # the top-level names ``stmt`` defines
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [node.id for target in targets for node in ast.walk(target)
                         if isinstance(node, ast.Name) and not re.fullmatch(r"__\w+__", node.id)]
            owners = tuple(f"{path.stem}.{name}" for name in names)
            exports = isinstance(stmt, ast.Assign) and "__all__" in _names(stmt)
            definitions += zip(owners, names)
            # a class's bases, decorators and body statements, each on its own
            parts = ast.iter_child_nodes(stmt) if isinstance(stmt, ast.ClassDef) else [stmt]
            for sub in parts:
                key = None
                if (sub is not stmt and isinstance(sub, ast.FunctionDef)
                        and not re.fullmatch(r"__\w+__", sub.name)):
                    key = f"{owners[0]}.{sub.name}"
                    definitions.append((key, sub.name))
                uses.append(((*owners, key), _names(sub, strings=exports)))
    bench = set()
    for path in sorted((ROOT / "bench").glob("*.py")):
        bench |= _names(ast.parse(path.read_text()), strings=True)

    unused = [
        key for key, name in definitions
        if name not in bench and not any(name in names for owners, names in uses
                                         if key not in owners)
    ]
    assert sorted(set(unused) - set(ALLOWED)) == [], "move test-only code to tests/oracles.py"
    # an entry that gained a production use, or is gone, leaves the list
    assert sorted(ALLOWED) == sorted(set(unused) & set(ALLOWED))
