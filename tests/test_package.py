"""The package surface: lazy top-level exports, the functions the benchmark
traces by name, the README library example, and the one integer rule of the
entry points."""

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


_DICT_WRITES = {"setdefault", "update", "pop", "popitem", "clear"}


def _written_in_functions(tree) -> set[str]:
    """The names a function body writes into as a dict: name[...] = ...,
    del name[...], or a call of one of _DICT_WRITES on name."""
    out = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name)):
                out.add(node.value.id)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _DICT_WRITES
                  and isinstance(node.func.value, ast.Name)):
                out.add(node.func.value.id)
    return out


def test_every_memo_is_bounded():
    # each lru_cache names a finite maxsize, functools.cache (unbounded)
    # is not used, and the only module-level dicts that functions fill are
    # candidates_for's row store, bounded by errors.BYTES_CAP, and
    # ff._class_omega, bounded by ff.CLASS_OMEGA_CAP
    memos, caches = set(), 0
    for path in sorted((ROOT / "src" / "diotuple").glob("*.py")):
        tree = ast.parse(path.read_text())
        calls = {id(node.func): node for node in ast.walk(tree)
                 if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Name, ast.Attribute, ast.alias)):
                continue
            name = _identifier(node)
            assert name != "cache", (path.name, node.lineno)
            if name == "lru_cache" and not isinstance(node, ast.alias):
                # a bare @lru_cache would hide its size
                call = calls.get(id(node))
                size = call and ([kw.value for kw in call.keywords
                                  if kw.arg == "maxsize"] or call.args[:1])
                assert size and isinstance(_constant_value(size[0]), int), \
                    (path.name, node.lineno)
                caches += 1
        dicts = set()
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            value = getattr(node, "value", None)
            if isinstance(value, (ast.Dict, ast.DictComp)) or (
                    isinstance(value, ast.Call)
                    and _identifier(value.func) == "dict"):
                dicts |= {t.id for t in targets if isinstance(t, ast.Name)}
        memos |= {f"{path.stem}.{name}"
                  for name in dicts & _written_in_functions(tree)}
    assert caches
    assert memos == {"search._rows", "ff._class_omega"}


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


def test_only_exact_states_the_integer_rule():
    # an int, not a bool: exact._is_integer states it once, and the other
    # computing layers read integers through it (cli's serializers, which
    # print bools, are not a computing layer)
    source = ROOT / "src" / "diotuple"

    def bool_tests(layer):
        tree = ast.parse((source / f"{layer}.py").read_text())
        return [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and _identifier(node.func) == "isinstance"
                and len(node.args) == 2
                and "bool" in {_identifier(arg) for arg in (
                    node.args[1].elts if isinstance(node.args[1], ast.Tuple)
                    else [node.args[1]])}]

    for layer in ("bounds", "core", "ff", "search", "sieve"):
        assert bool_tests(layer) == [], layer
    assert len(bool_tests("exact")) == 1


_CUBES = diotuple.TupleConfig(3, -1)
_F7 = diotuple.FieldConfig(7, 3)
_CUBES_PLUS = diotuple.TupleConfig(3, 1)
# each entry point of the computing layers with arguments it admits, and
# where its integers sit: a position, or (position, index) in a list; the
# tuple sides, bipartite sides, growth chain and multipliers are read by
# exact._integer_items like every other integer list (TupleConfig,
# SearchBudget and candidates_for's height have their own tests in
# test_core and test_search)
_INTEGER_PARAMETERS = [
    ("verify_tuple", ([2, 13], _CUBES_PLUS), [(0, 0), (0, 1)]),
    ("verify_bipartite", ([2], [13], _CUBES_PLUS), [(0, 0), (1, 0)]),
    ("DiophantineTuple", (_CUBES_PLUS, [2, 13]), [(1, 0), (1, 1)]),
    ("BipartitePair", (_CUBES_PLUS, [2], [13]), [(1, 0), (2, 0)]),
    ("candidates_for", ([1, 2], _CUBES_PLUS, 400), [(0, 0), (0, 1)]),
    ("brute_force_tuples", (_CUBES_PLUS, 30, 2), [1, 2]),
    ("gap_lower_bound", (2, 9, _CUBES), [0, 1]),
    ("check_gap_quadruple", (1, 14, 2, 9, _CUBES), [0, 1, 2, 3]),
    ("growth_exponents", (3, 5), [0]),
    ("check_superexponential_growth",
     (5, 13, [819], _CUBES_PLUS, 4), [0, 1, (2, 0)]),
    ("table_constants", (3,), [0]),
    ("evertse_constants", (3,), [0]),
    ("large_element_exponents", (3,), [0]),
    ("tail_term", (3, 2), [0]),
    ("bipartite_side_bound", (1, 3), [0, 1]),
    ("tuple_size_bound", (1, 3, 2), [0, 1]),
    ("tuple_size_bound_closed", (2, 3), [0, 1]),
    ("tuple_size_small_regime", (2, 3), [0, 1]),
    ("bound_reports", (2, 3), [0, 1]),
    ("thue_scan", (1, 6, 3, 5, 10 ** 4), [0, 1, 2, 3, 4]),
    ("primitive_root", (3,), [0]),
    ("FieldConfig", (7, 3, 1, 3), [0, 1, 2, 3]),
    ("ff_scan_bipartite", (_F7, 2), [1]),
    ("char_sum", ([1, 2], [3], _F7), [(0, 0), (1, 0)]),
    ("euler_phi", (12,), [0]),
    ("primes_in_class", (100, 3, 5), [1, 2]),
    ("gallagher_bound", ([1, 2], 100, [3]), [(0, 0), 1, (2, 0)]),
    ("sieve_pipeline", ([1, 2], 5, 3, 2), [(0, 0), 1, 2]),
]


@pytest.mark.parametrize("name, args, slot, bad", [
    pytest.param(name, args, slot, bad, id=f"{name}-{slot}-{bad!r}")
    for name, args, slots in _INTEGER_PARAMETERS
    for slot in slots for bad in (True, 3.0)])
def test_entry_points_refuse_bools_and_floats(name, args, slot, bad):
    # True would read as 1 and 3.0 as 3; each is refused by the integer
    # rule before any work, where the same arguments with ints are admitted
    # (primitive_root(3) is cached first, and 3.0 must not read its entry)
    func = getattr(diotuple, name)
    func(*args)
    args = [list(arg) if isinstance(arg, list) else arg for arg in args]
    if isinstance(slot, tuple):
        args[slot[0]][slot[1]] = bad
    else:
        args[slot] = bad
    with pytest.raises(diotuple.InputError,
                       match=r"must be (an integer|integers)"):
        func(*args)
