import ast
import json
import re
from dataclasses import MISSING
from pathlib import Path

import pytest

from spdpc import files

SRC = Path(files.__file__).resolve().parent


def test_only_files_imports_json_or_csv():
    """One reader and one writer per format: no other module of the package
    imports ``json`` or ``csv``."""
    importers = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom) and not node.level
                     else [])
            if any(name.split(".")[0] in ("json", "csv") for name in names):
                importers.add(path.name)
    assert importers == {"files.py"}


@pytest.mark.parametrize("text, message", [
    ('{"a": 1, "a": 2}', "t.a: duplicate key"),
    ('{"a": [[1.0], [2.0, NaN]]}', "t.a[1][1]: must be finite, got nan"),
    ('{"a": [[1.0, 2.0]], "b": 1e999}', "t.b: must be finite, got inf"),
    ('{"a": [[1.0]], "c": 1}', "t.c: unknown field, expected one of ['a', 'b']"),
])
def test_read_table_names_a_fault_by_its_path(tmp_path, text, message):
    path = tmp_path / "doc.json"
    path.write_text(text)
    doc = files.read_json(path)
    with pytest.raises(files.ReadError, match=rf"^{re.escape(message)}$"):
        files.read_table(doc, "t", {"a": ([[float]], MISSING), "b": (float, 0.0)})
    with pytest.raises(files.ReadError, match=rf"^{re.escape(path.name)}: bad "
                                              rf"\({re.escape(message[2:])}\)$"):
        with files.at(path.name, "bad ({})"):
            files.read_table(doc, "", {"a": ([[float]], MISSING), "b": (float, 0.0)})


def test_a_repeated_kind_is_a_duplicate_key(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text('{"kind": "a", "kind": "b"}')
    with pytest.raises(files.ReadError, match=r"^x0\.kind: duplicate key$"):
        files.read_by_kind(files.read_json(path), "x0", {"a": {}, "b": {}}, {})


@pytest.mark.parametrize("value, kind, message", [
    ([[1.0, 2], [3.0, "4"]], [[float]], 'x[1][1]: expected a number, got "4"'),
    ([1, 2, 2.0], [int], "x[2]: expected an integer, got 2.0"),
    ([1, True], [int], "x[1]: expected an integer, got true"),
    ("a", (float, [float]), 'x: expected a number or a list, got "a"'),
])
def test_typed_names_the_first_bad_element(value, kind, message):
    with pytest.raises(files.ReadError, match=rf"^{re.escape(message)}$"):
        files.typed(value, kind, "x")


def test_typed_returns_numbers_as_floats():
    assert files.typed([[1, 2.5]], [[float]], "x") == [[1.0, 2.5]]
    assert all(type(v) is float for v in files.typed([1, 2], [float], "x"))


def test_write_json_keeps_the_dump_bytes(tmp_path):
    doc = {"b": [1.0, 0.1], "a": {"c": None, "d": True}}
    for indent in (1, None):
        path = tmp_path / f"doc_{indent}.json"
        files.write_json(path, doc, indent=indent)
        assert path.read_text() == json.dumps(doc, indent=indent) + "\n"


@pytest.mark.parametrize("numbers, kind, message", [
    (f"[1, 1{'0' * 400}, -1{'0' * 400}]", [float], f"[1]: must be finite, got 1{'0' * 400}"),
    (f"[1, 1{'0' * 400}]", [int], f"[1]: must be finite, got 1{'0' * 400}"),
    ("[1.0, Infinity, -Infinity]", [float], "[1]: must be finite, got inf"),
    ("[1, 2, NaN]", [float], "[2]: must be finite, got nan"),
    ("[1e308, 1e308, -1e308]", [float], None),
    ("[[1e308], [1e308, 2]]", [[float]], None),
], ids=["huge-ints-summing-to-0", "huge-int", "inf-and-minus-inf", "nan-after-ints",
        "sum-overflows", "rows"])
def test_typed_checks_each_number_of_a_list(numbers, kind, message):
    """A list whose sum is finite or overflows is still checked number by number."""
    if message is None:
        assert files.typed(json.loads(numbers), kind, "x") == json.loads(numbers)
    else:
        with pytest.raises(files.ReadError, match=rf"^x{re.escape(message)}$"):
            files.typed(json.loads(numbers), kind, "x")


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000, '{"a": ' * 5000 + "1" + "}" * 5000])
def test_read_json_rejects_nesting_past_the_recursion_limit(tmp_path, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(files.ReadError, match=rf"^{re.escape(str(path))}: not valid JSON "
                                              r"\(maximum recursion depth exceeded"):
        files.read_json(path)
