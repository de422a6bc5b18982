import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import prccsl

SRC = Path(prccsl.__file__).resolve().parents[1]


def test_every_exported_name_is_its_home_modules_object():
    submodules = [
        importlib.import_module(f"prccsl.{info.name}") for info in pkgutil.iter_modules(prccsl.__path__)
    ]
    assert prccsl.__all__[0] == "__version__" and prccsl.__version__ == "0.1.0"
    for name in prccsl.__all__[1:]:
        value = getattr(prccsl, name)
        binders = [module for module in submodules if name in vars(module)]
        assert binders, name
        assert all(vars(module)[name] is value for module in binders), name
        home = getattr(value, "__module__", "")
        if home.startswith("prccsl."):
            assert getattr(sys.modules[home], name) is value


def test_each_modules_all_is_its_export_table_entry():
    assert tuple(prccsl.__all__) == (
        "__version__",
        "UNIVERSAL_CLOCK", "Trace",
        "PrccslError", "DeclarationError", "UnknownClockError", "ExpressionError", "SpecSyntaxError",
        "SpecValidationError", "TraceFormatError", "FaultTargetError",
        "Ref", "PeriodicOn", "DelayFor", "Inf", "Sup", "clocks_of", "eval_expr",
        "RelationKind", "RelationSpec", "Verdict", "RelationError", "CheckResult", "check_relations",
        "build_report", "render_text",
        "AVParams", "FaultSpec", "FAULT_TARGETS", "simulate",
        "Definition", "SpecFile", "parse", "pretty_print", "format_expr", "format_threshold", "elaborate",
        "read_trace", "write_trace",
    )
    for module, names in prccsl._EXPORTS.items():
        assert tuple(importlib.import_module(f"prccsl.{module}").__all__) == names, module


def test_star_import_binds_all_names():
    namespace = {}
    exec("from prccsl import *", namespace)
    assert set(prccsl.__all__) <= namespace.keys()
    assert all(namespace[name] is getattr(prccsl, name) for name in prccsl.__all__)


def test_unknown_name_raises_attribute_error():
    # the last three were exported up to 0.1.0
    for name in ("nope", "simulate_faulty", "trace_to_string", "ALPHABET"):
        assert not hasattr(prccsl, name)
        with pytest.raises(AttributeError, match=name):
            getattr(prccsl, name)


def test_import_loads_only_the_modules_a_name_needs():
    probe = (
        "import sys, prccsl\n"
        "print(*sorted(m for m in sys.modules if m.startswith('prccsl')))\n"
        "prccsl.Trace\n"
        "print(*sorted(m for m in sys.modules if m.startswith('prccsl')))\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, encoding="utf-8", check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert run.stdout.splitlines() == ["prccsl", "prccsl prccsl.clocks prccsl.errors"]


def test_only_the_node_kinds_import_dataclasses_and_no_module_typing_union():
    dataclass_users, union_users = set(), set()
    for path in sorted((SRC / "prccsl").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                dataclass_users.update(path.name for alias in node.names if alias.name == "dataclasses")
            elif isinstance(node, ast.ImportFrom) and node.module in ("dataclasses", "typing"):
                if node.module == "dataclasses":
                    dataclass_users.add(path.name)
                elif any(alias.name == "Union" for alias in node.names):
                    union_users.add(path.name)
            elif isinstance(node, ast.Attribute) and node.attr == "Union":
                union_users.add(path.name)
    assert dataclass_users == {"exprs.py"}
    assert not union_users
