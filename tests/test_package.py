"""The package surface: lazy top-level exports, the functions the benchmark
traces by name, and the README library example."""

import ast
import contextlib
import importlib
import importlib.util
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
        "compare_value_to_power", "euler_phi", "evertse_constants",
        "ff_scan_bipartite", "ff_scan_clique", "format_rational",
        "gallagher_bound", "gap_lower_bound", "growth_exponents",
        "integer_kth_root", "is_perfect_kth_power", "is_prime",
        "kth_power_residues", "large_element_exponents", "parse_natural",
        "parse_rational", "primes_in_class", "primes_up_to", "primitive_root",
        "search_bipartite", "search_tuples", "sieve_pipeline",
        "table_constants", "tail_term", "thue_scan", "trial_factor",
        "tuple_size_bound", "tuple_size_bound_closed",
        "tuple_size_small_regime", "verify_bipartite", "verify_tuple",
    ]
    assert len(diotuple.__all__) == 57


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


def _run_probe(probe: str) -> str:
    """The stdout of probe, run in a fresh interpreter on this diotuple."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(Path(diotuple.__file__).resolve().parents[1]),
                      os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_ff_loads_dataclasses_on_first_use():
    # ff's named tuples need no dataclasses; its two dataclass results are
    # declared when first looked up or built
    probe = """
import sys
import diotuple.ff
print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))
from diotuple.ff import CliqueScanResult
print("dataclasses" in sys.modules)
"""
    assert _run_probe(probe) == "[]\nTrue\n"


def test_library_layers_load_logging_only_on_failure():
    # a failed invariant is reported through errors.report_failure, which
    # reads logging only if the caller loaded it; the layers never import it
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
    assert _run_probe(probe) == "False\n"


def _identifier(node):
    """The module, attribute or name a node spells, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    if isinstance(node, ast.ImportFrom):
        return node.module
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value  # importlib.import_module("logging"), ...
    return None


def test_only_errors_names_logging():
    # every failed-invariant report goes through errors.report_failure, so
    # no other module imports, names or looks up logging
    for path in sorted((ROOT / "src" / "diotuple").glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = _identifier(node) or ""
            assert name.partition(".")[0] != "logging", (path.name, node.lineno)


def _constant_value(node):
    """The value of a constant expression such as 2 * 2 ** 30, else None."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.BinOp):
        left, right = _constant_value(node.left), _constant_value(node.right)
        if isinstance(left, int) and isinstance(right, int):
            ops = {ast.Mult: int.__mul__, ast.Pow: int.__pow__,
                   ast.Add: int.__add__, ast.LShift: int.__lshift__}
            op = ops.get(type(node.op))
            return op(left, right) if op else None
    return None


def test_only_errors_states_the_work_budget():
    # every refusal of an estimated time or memory goes through
    # errors.refuse_above_cap: no other module words one ("above the cap of
    # N s", "MiB"), or binds a module constant to 60 s or 2 GiB; size caps
    # such as THUE_ZONE_CAP are not budgets
    budget = {60, 60 * 10 ** 9, 2 * 2 ** 30}
    for path in sorted((ROOT / "src" / "diotuple").glob("*.py")):
        if path.name == "errors.py":
            continue
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.JoinedStr):
                text = "".join(part.value if isinstance(part, ast.Constant)
                               else "{}" for part in node.values)
            elif isinstance(node, ast.Constant):
                text = node.value if isinstance(node.value, str) else ""
            else:
                continue
            assert "above the cap of {} s" not in text and "MiB" not in text, \
                (path.name, node.lineno)
        for node in tree.body:
            if isinstance(node, ast.Assign):
                assert _constant_value(node.value) not in budget, \
                    (path.name, node.lineno)


def test_code_line_counter_totals_its_modules():
    path = ROOT / "tools" / "code_lines.py"
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    *modules, (label, total) = lines
    assert label == "total"
    assert [name for name, _ in modules] == sorted(
        p.stem for p in (ROOT / "src" / "diotuple").glob("*.py"))
    assert int(total) == sum(int(count) for _, count in modules) > 1000
    # docstrings, comments and blank lines are not code
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.code_lines(
        '"""Doc\nstring."""\n\n# note\nx = (1,\n     2)  # tail\n'
        'def f():\n    """Doc."""\n    return """a\nb"""\n') == 5


def _package_imports(tree) -> set[str]:
    """The diotuple modules a module's relative imports name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            out |= ({node.module.partition(".")[0]} if node.module
                    else {alias.name for alias in node.names})
    return out


def test_prime_arithmetic_lives_in_exact():
    # the computing layers import only exact and errors, and search the
    # domain types of core; the sieve of Eratosthenes is defined in exact
    # alone, and search factors with exact.factor, not trial division
    source = ROOT / "src" / "diotuple"
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(source.glob("*.py"))}
    for layer in ("bounds", "core", "ff", "search", "sieve"):
        extra = {"core"} if layer == "search" else set()
        assert _package_imports(trees[layer]) <= {"errors", "exact"} | extra, \
            layer
    search_names = {_identifier(node) for node in ast.walk(trees["search"])}
    assert not search_names & {"sieve", "trial_factor"}
    assert [name for name, tree in trees.items()
            if any(isinstance(node, ast.FunctionDef)
                   and node.name == "primes_up_to"
                   for node in ast.walk(tree))] == ["exact"]
