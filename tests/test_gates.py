"""The gate table (``tools/gates.py``, ``make gates``) fires, is clean on the
tree, and fails when what it names is gone.

Each row runs on a scratch tree built from what it names: its scanned
directories empty, its scanned files empty, its exempt paths copied from
the repository. That tree must be clean; with the row's planted example
added it must not be — the mutation check, for every row and every path it
scans.
"""

from __future__ import annotations

import runpy
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

#: the tool's globals (``tools/`` is not a package)
TOOL = runpy.run_path(str(ROOT / "tools" / "gates.py"))
GATES = TOOL["GATES"]
findings = TOOL["findings"]

SCANNED = [(gate, path) for gate in GATES for path in gate.paths]
EXEMPT = [(gate, pattern) for gate in GATES for pattern, _shape in gate.exempt]


def scaffold(gate, root: Path) -> None:
    for rel in gate.paths:
        target = root / rel
        if (ROOT / rel).is_dir():
            target.mkdir(parents=True, exist_ok=True)
        else:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text("")
    for pattern, _shape in gate.exempt:
        for real in ROOT.glob(pattern):
            target = root / real.relative_to(ROOT)
            if real.is_dir():
                target.mkdir(parents=True, exist_ok=True)
            else:
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(real.read_text())


def remove(path: Path) -> None:
    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()


def test_the_table_is_clean_on_the_tree():
    assert findings(ROOT) == []


def test_every_row_has_a_distinct_name_and_a_known_kind():
    names = [gate.name for gate in GATES]
    assert len(names) == len(set(names))
    assert {gate.kind for gate in GATES} <= {"regex", "fixed", "multiline", "absent", "ast"}


@pytest.mark.parametrize(
    "gate, path", SCANNED, ids=[f"{gate.name}:{path}" for gate, path in SCANNED]
)
def test_every_row_fires_on_its_planted_line(tmp_path, gate, path):
    scaffold(gate, tmp_path)
    assert findings(tmp_path, (gate,)) == []
    target = tmp_path / path
    if gate.kind == "absent":
        target = target / gate.planted
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text("")
    else:
        if target.is_dir():
            target = target / "planted.py"
        target.write_text(gate.planted + "\n")
    found = findings(tmp_path, (gate,))
    assert found, f"{gate.name} missed its planted line in {path}"
    assert all(f" {gate.name}: " in line for line in found)


@pytest.mark.parametrize(
    "gate, path", SCANNED, ids=[f"{gate.name}:{path}" for gate, path in SCANNED]
)
def test_a_missing_scanned_path_fails(tmp_path, gate, path):
    scaffold(gate, tmp_path)
    remove(tmp_path / path)
    assert f"{path}: {gate.name}: scanned path does not exist" in findings(tmp_path, (gate,))


@pytest.mark.parametrize(
    "gate, pattern", EXEMPT, ids=[f"{gate.name}:{pattern}" for gate, pattern in EXEMPT]
)
def test_a_stale_exempt_path_fails(tmp_path, gate, pattern):
    scaffold(gate, tmp_path)
    for path in tmp_path.glob(pattern):
        remove(path)
    assert findings(tmp_path, (gate,)) == [f"{pattern}: {gate.name}: exempt path names nothing"]


def test_a_stale_message_function_fails(tmp_path):
    (gate,) = [gate for gate in GATES if gate.name == "one-encoding"]
    scaffold(gate, tmp_path)
    (module, function), *_ = TOOL["MESSAGES"]
    (tmp_path / module).write_text("def renamed():\n    return repr(1)\n")
    assert findings(tmp_path, (gate,)) == [
        f"{module}::{function}: one-encoding: exempt function is not defined"
    ]
