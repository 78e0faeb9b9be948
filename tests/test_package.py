"""The package namespace: which names ``csfkit`` exports, where each one
lives, that ``import csfkit`` loads no submodule, that every annotation
resolves, and that the README's library example runs and prints what its
comments say."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import csfkit

ROOT = Path(__file__).resolve().parents[1]

# the public names and their owning modules, written out independently of
# the package's own map
OWNERS = {
    "compositions": (
        "Composition", "Partition", "compositions_of", "format_parts",
        "parse_composition", "weight_positive_compositions",
    ),
    "coefficients": (
        "Classification", "PSQTSolution", "WClass", "classify", "coeff_c",
        "coeff_c_doubleprime", "coeff_c_prime", "coeff_D", "delta", "fiber", "phi",
        "psi", "solve_ps", "solve_psqt", "solve_qt", "split_LR",
    ),
    "errors": ("ResourceLimitError",),
    "graphs": (
        "EExpansion", "Graph", "PositivityReport", "build_clock", "build_cycle",
        "build_cycle_chord", "build_family_graph", "build_path", "build_tadpole",
        "build_theta", "closed_form_clock", "closed_form_cycle",
        "closed_form_cycle_chord", "closed_form_path", "closed_form_tadpole",
        "closed_form_theta", "csf_pbasis", "csf_pbasis_subsets",
        "e_positivity_report", "expansion_closed_form", "verify_triple_deletion",
    ),
    "symfunc": (
        "Basis", "BasisVector", "e_partition_to_p", "evector_to_p",
        "first_difference", "pvector_to_e",
    ),
}


def test_all_lists_the_fifty_public_names():
    names = {name for names in OWNERS.values() for name in names}
    assert len(names) == 50
    assert len(csfkit.__all__) == 50
    assert set(csfkit.__all__) == names
    assert set(csfkit.__all__) <= set(dir(csfkit))
    assert csfkit.__version__ == "0.1.0"


@pytest.mark.parametrize("module", sorted(OWNERS))
def test_each_name_is_its_owning_modules_object(module):
    owner = importlib.import_module(f"csfkit.{module}")
    for name in OWNERS[module]:
        assert getattr(csfkit, name) is getattr(owner, name), name


def test_names_follow_a_patched_module_attribute(monkeypatch):
    graphs = importlib.import_module("csfkit.graphs")
    original = graphs.csf_pbasis
    assert csfkit.csf_pbasis is original
    with monkeypatch.context() as patch:
        patch.setattr(graphs, "csf_pbasis", len)
        assert csfkit.csf_pbasis is len
    assert csfkit.csf_pbasis is original


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from csfkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(csfkit.__all__)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        csfkit.no_such_name
    with pytest.raises(ImportError):
        exec("from csfkit import no_such_name", {})


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys, csfkit; "
        "print(sorted(m for m in sys.modules if m.startswith('csfkit.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout
    assert out.strip() == "[]"


def test_every_annotation_resolves():
    # get_type_hints on every function and method that a csfkit module
    # defines, through __wrapped__ for the lru_cache ones
    modules = [csfkit, *(importlib.import_module(f"csfkit.{info.name}")
                         for info in pkgutil.iter_modules(csfkit.__path__))]
    checked, failures = 0, []
    for module in modules:
        for obj in vars(module).values():
            for member in vars(obj).values() if isinstance(obj, type) else [obj]:
                fn = inspect.unwrap(getattr(member, "__func__", getattr(member, "fget", member)))
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    checked += 1
                    try:
                        typing.get_type_hints(fn)
                    except NameError as exc:
                        failures.append(f"{module.__name__}.{fn.__qualname__}: {exc}")
    assert not failures, failures
    assert checked > 150, checked


def _library_blocks():
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return [block.split("\n", 1)[1] for block in section.split("```python")[1:]]


def _printed_value(comment):
    # the value a README comment says its line evaluates to; None for words
    try:
        return ast.literal_eval(comment)
    except (ValueError, SyntaxError):
        return None


def test_readme_library_example_prints_its_commented_values():
    namespace = {}
    checked = []
    for block in _library_blocks():
        source = block.split("```", 1)[0]
        lines = source.splitlines()
        for stmt in ast.parse(source).body:
            expected = _printed_value(lines[stmt.end_lineno - 1].partition("#")[2].strip())
            if isinstance(stmt, ast.Expr) and expected is not None:
                value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
                assert value == expected, ast.unparse(stmt)
                checked.append(expected)
            else:
                exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert checked == [21, [(2, 7, 2), (2, 2, 7)], True, True, ["c", "c-prime"]]
