"""The benchmark scripts under perfbench/ still find what they use in fieldgp.

perfbench/spans.py wraps fieldgp functions and kernel methods by name,
and the other scripts import names from fieldgp.  A refactor of src/
that renames or moves one of them would otherwise only show up when the
traced benchmark run fails.  These tests read perfbench/ and change
nothing in it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fieldgp_names():
    """(file, module, name) for every fieldgp name the scripts use.

    Covers ``from fieldgp... import name`` and ``fieldgp.name`` attribute
    access on the package.
    """
    used = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "fieldgp"):
                used.update((path.name, node.module, a.name) for a in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "fieldgp"):
                used.add((path.name, "fieldgp", node.attr))
    return sorted(used)


@pytest.mark.parametrize("target", _load_spans().TARGETS, ids=lambda t: t[0] + ":" + t[2])
def test_span_target_resolves(target):
    _, module_name, attr, _, _ = target
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        # the tracer wraps the method on the class that defines it
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_perfbench_fieldgp_names_resolve():
    names = _fieldgp_names()
    assert names, "expected perfbench/ to use fieldgp"
    missing = []
    for filename, module_name, name in names:
        module = importlib.import_module(module_name)
        if not hasattr(module, name):
            missing.append(f"{filename}: {module_name}.{name}")
    assert not missing, missing
