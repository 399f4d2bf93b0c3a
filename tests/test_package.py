"""The package surface: lazy top-level exports, the functions the benchmark
traces by name, and the README library example."""

import ast
import contextlib
import importlib
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import diotuple

ROOT = Path(__file__).resolve().parents[1]


def test_export_list_is_pinned():
    assert diotuple.__all__ == [
        "BipartitePair", "BoundReport", "CharacterSumResult",
        "CliqueScanResult", "DiophantineTuple", "FieldConfig",
        "FieldScanResult", "GapCertificate", "GrowthReport", "HypothesisError",
        "InputError", "InvariantViolation", "PipelineResult", "SearchBudget",
        "SearchOutcome", "SieveEvaluation", "ThueScanReport", "TupleConfig",
        "VerifyReport", "bipartite_side_bound", "bound_reports",
        "brute_force_tuples", "candidates_for", "char_sum",
        "check_gap_quadruple", "check_superexponential_growth",
        "compare_value_to_power", "derive_cubic_threshold", "euler_phi",
        "evertse_constants", "ff_scan_bipartite", "ff_scan_clique",
        "ff_verify", "format_rational", "gallagher_bound",
        "gap_lower_bound", "growth_exponents", "integer_kth_root",
        "is_perfect_kth_power", "is_prime", "kth_power_residues",
        "large_element_exponents", "parse_natural", "parse_rational",
        "power_classes", "primes_in_class", "primes_up_to", "primitive_root",
        "search_bipartite", "search_tuples", "sieve_pipeline",
        "table_constants", "tail_term", "thue_scan", "trial_factor",
        "tuple_size_bound", "tuple_size_bound_closed",
        "tuple_size_small_regime", "verify_bipartite", "verify_tuple",
    ]
    assert len(diotuple.__all__) == 60


def _bench_names(script: str, *targets: str) -> list[str]:
    """The "layer.function" names a benchmark script binds to targets.

    Read from the script's source without running it: tuples contribute
    their items, dicts their keys.
    """
    tree = ast.parse((ROOT / "perfbench" / script).read_text())
    names = []
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in targets for t in node.targets):
            value = node.value
            items = value.keys if isinstance(value, ast.Dict) else value.elts
            names += [ast.literal_eval(item) for item in items]
    return names


def test_bench_traced_names_are_public_functions():
    # the per-layer metrics look these functions up by name; a rename or a
    # move would read as a zero instead of failing
    names = (_bench_names("run.py", "TIMED", "COUNTED")
             + _bench_names("trace.py", "HOOKS"))
    assert "search.kth_power_residues" in names
    assert "search.candidates_for" in names
    assert len(names) == 20
    for name in names:
        layer, attr = name.split(".")
        module = importlib.import_module(f"diotuple.{layer}")
        obj = getattr(module, attr, None)
        # the test trace.py applies before it wraps an object
        assert not attr.startswith("_"), name
        assert inspect.isfunction(obj) or hasattr(obj, "cache_info"), name
        assert obj.__module__ == module.__name__, name


def test_every_export_is_its_home_object():
    assert len(diotuple.__all__) == len(set(diotuple.__all__)) > 50
    for name in diotuple.__all__:
        obj = getattr(diotuple, name)
        assert obj.__module__.startswith("diotuple."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from diotuple import *", namespace)
    for name in diotuple.__all__:
        assert namespace[name] is getattr(diotuple, name), name


def test_unknown_names_and_submodules():
    with pytest.raises(AttributeError):
        diotuple.nope
    with pytest.raises(ImportError):
        exec("from diotuple import nope", {})
    from diotuple import ff
    assert ff is sys.modules["diotuple.ff"]
    assert "search_tuples" in dir(diotuple)


def test_readme_library_example_prints_its_comments():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    expected = [line[2:] for line in block.splitlines()
                if line.startswith("# ")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {"__name__": "readme_example"})
    assert out.getvalue().splitlines() == expected


def test_library_layers_load_logging_only_on_failure():
    # the layers import logging inside the branches that report a failed
    # invariant, so a process that never reports one does not load it
    probe = """
import sys
import diotuple.bounds, diotuple.core, diotuple.ff, diotuple.search, diotuple.sieve
from diotuple import FieldConfig, TupleConfig, check_gap_quadruple
from diotuple import ff_scan_bipartite, ff_scan_clique, thue_scan
assert "logging" not in sys.modules
ff_scan_clique(FieldConfig(13, 3, 1))
ff_scan_bipartite(FieldConfig(13, 3, 1), 3)
check_gap_quadruple(1, 14, 2, 9, TupleConfig(k=3, n=-1))
thue_scan(3, 2, 3, 25, 400)
print("logging" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(diotuple.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
