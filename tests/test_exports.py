"""The package exports only what the library, demos or benchmark reach.

A name exported from ``fieldgp`` that only the unit tests call is API
kept alive by its own tests.  Every exported name must appear outside
its own ``def``/``class`` line in a library module, a demo, a benchmark
script or the acceptance tests.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _exported_names():
    tree = ast.parse((ROOT / "src" / "fieldgp" / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def _reaching_lines():
    package = ROOT / "src" / "fieldgp"
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    paths.append(ROOT / "tests" / "test_acceptance.py")
    return [line for path in paths for line in path.read_text().splitlines()]


def test_every_export_is_reached_outside_the_unit_tests():
    lines = _reaching_lines()
    unreached = []
    for name in _exported_names():
        use = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        if not any(use.search(line) and not definition.match(line) for line in lines):
            unreached.append(name)
    assert unreached == []
