"""A run's state has one layout: train._state writes it and train._load_state reads it.

The checkpoint, resume and the backward-cycle worker's epoch-end reply all go through
those two functions. This parses src/cyclesynth with ast and fails on each string that
begins an "opt/" or "pool/" checkpoint key (a literal, or the leading text of an
f-string) outside them, where a second writer or reader of the layout would start.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {("train.py", "_state"), ("train.py", "_load_state")}
PREFIXES = ("opt/", "pool/")


def _keys():
    """(file, line, enclosing function) of every string in src/cyclesynth that begins
    an opt/ or pool/ key."""
    found = []
    for path in sorted((ROOT / "src" / "cyclesynth").glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith(PREFIXES)):
                continue
            owner = parents.get(node)
            while owner is not None and not isinstance(
                    owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = parents.get(owner)
            found.append((path.name, node.lineno, owner.name if owner else "<module>"))
    return sorted(found)


def test_only_the_state_writer_and_reader_form_opt_and_pool_keys():
    stray = [f"{file}:{line}: in {fn}" for file, line, fn in _keys()
             if (file, fn) not in ALLOWED]
    assert not stray, "opt/ or pool/ keys outside train._state and _load_state:\n" + \
        "\n".join(stray)


def test_the_scan_sees_the_writer_and_the_reader():
    assert {(file, fn) for file, _, fn in _keys()} == ALLOWED
