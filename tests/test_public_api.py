"""No public name without a caller: every name a credalfans module lists
in ``__all__`` must be used somewhere in the package, the benchmark
harness or the benchmark scripts, not only by the tests.

A use is a name read or an attribute access in the code (an ``ast.Name``
load or an ``ast.Attribute``); an import alone, a string, a definition
and the ``__all__`` entry itself do not count. Dunder names such as
``__version__`` are conventions, not API, and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "credalfans"
CALLER_DIRS = (ROOT / "src", ROOT / "perfbench", ROOT / "benchmarks")


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _used_names():
    used = set()
    for folder in CALLER_DIRS:
        for path in folder.rglob("*.py"):
            if path.name.startswith("test_"):
                continue
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_outside_the_tests():
    used = _used_names()
    unused = sorted(
        f"{path.stem}.{name}"
        for path in PACKAGE.glob("*.py")
        for name in _exported(_parse(path))
        if not name.startswith("__") and name not in used
    )
    assert not unused, f"public names only the tests use: {unused}"
