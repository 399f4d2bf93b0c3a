"""The package surface: lazy top-level exports and the README library example."""

import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

import diotuple


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
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    expected = [line[2:] for line in block.splitlines()
                if line.startswith("# ")]
    assert expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {"__name__": "readme_example"})
    assert out.getvalue().splitlines() == expected
