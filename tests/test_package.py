import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dompoly

# Every name the package root re-exports, by the module that defines it.
EXPORTS = {
    "cycles": "alpha beta cycle_polynomial predicted_ord3 theta",
    "errors": "Graph6FormatError Graph6ParseError Graph6RangeError InputError "
              "InternalInconsistencyError ParameterDomainError SizeGuardError ValuationError",
    "graphs": "Graph build_family complete complete_cycle_join cycle disjoint_union "
              "encode_graph6 iter_graph6_records join parse_graph6 path wheel",
    "oracle": "DEFAULT_GUARD domination_number domination_polynomial domination_profile",
    "polynomials": "IntPolynomial ord_p",
}


def test_every_export_is_its_modules_object():
    owners = {name: module for module, names in EXPORTS.items() for name in names.split()}
    assert sorted(dompoly.__all__) == sorted(owners)
    for name, module in owners.items():
        assert getattr(dompoly, name) is getattr(importlib.import_module(f"dompoly.{module}"), name), name
    assert set(dompoly.__all__) <= set(dir(dompoly))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from dompoly import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(dompoly.__all__)
    assert all(value is getattr(dompoly, name) for name, value in namespace.items())


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'dompoly' has no attribute 'no_such_name'"):
        dompoly.no_such_name
    with pytest.raises(ImportError):
        from dompoly import no_such_name  # noqa: F401


def test_importing_the_package_loads_none_of_its_modules():
    env = dict(os.environ, PYTHONPATH=str(Path(dompoly.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", "import dompoly, sys; print(sorted(m for m in sys.modules if 'dompoly' in m))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert child.stdout == "['dompoly']\n"


def test_the_reference_module_imports_the_standard_library_only():
    """tests/reference.py checks the package's fast routes, so it must share
    no code with the package: every import it makes is of the standard
    library, and none is relative or of dompoly."""
    source = Path(__file__).with_name("reference.py").read_text()
    imported = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    tops = {name.split(".")[0] for name in imported}
    assert imported and "dompoly" not in tops
    assert sorted(tops - sys.stdlib_module_names) == []
