"""A run's state has one layout: train._state writes it and train._load_state reads it.

The checkpoint, resume, the backward-cycle worker's epoch-end reply and infer's
generator all go through those two functions. This parses src/cyclesynth with ast and
fails on each string that begins an "opt/" or "pool/" checkpoint key (a literal, or the
leading text of an f-string) outside them, where a second writer or reader of the
layout would start.

A run's record is train's: it also fails on a call of checkpoint.meta_field outside
train.py and checkpoint.py, and on a string naming a run's files ("loss_log.csv",
"ckpt_epoch...") outside train.py, docstrings aside.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {("train.py", "_state"), ("train.py", "_load_state")}
PREFIXES = ("opt/", "pool/")
RECORD_NAMES = ("loss_log.csv", "ckpt_epoch")


def _nodes():
    """(file name, node, child -> parent map) of every ast node in src/cyclesynth."""
    for path in sorted((ROOT / "src" / "cyclesynth").glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            yield path.name, node, parents


def _is_str(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _owner(parents, node):
    """The name of the function that encloses node, or "<module>"."""
    owner = parents.get(node)
    while owner is not None and not isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = parents.get(owner)
    return owner.name if owner else "<module>"


def _keys():
    """(file, line, enclosing function) of every string in src/cyclesynth that begins
    an opt/ or pool/ key."""
    return sorted((file, node.lineno, _owner(parents, node)) for file, node, parents in _nodes()
                  if _is_str(node) and node.value.startswith(PREFIXES))


def _record_sites():
    """(file, line, what) of every meta_field call and of every string, docstrings
    aside, that holds one of RECORD_NAMES in src/cyclesynth."""
    found = []
    for file, node, parents in _nodes():
        if isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None)) == "meta_field":
            found.append((file, node.lineno, "meta_field"))
        elif _is_str(node) and not isinstance(parents.get(node), ast.Expr):
            found.extend((file, node.lineno, name) for name in RECORD_NAMES if name in node.value)
    return sorted(found)


def test_only_the_state_writer_and_reader_form_opt_and_pool_keys():
    stray = [f"{file}:{line}: in {fn}" for file, line, fn in _keys()
             if (file, fn) not in ALLOWED]
    assert not stray, "opt/ or pool/ keys outside train._state and _load_state:\n" + \
        "\n".join(stray)


def test_the_scan_sees_the_writer_and_the_reader():
    assert {(file, fn) for file, _, fn in _keys()} == ALLOWED


def test_only_train_reads_checkpoint_meta_and_names_a_runs_files():
    allowed = {"meta_field": {"train.py", "checkpoint.py"},
               **{name: {"train.py"} for name in RECORD_NAMES}}
    stray = [f"{file}:{line}: {what}" for file, line, what in _record_sites()
             if file not in allowed[what]]
    assert not stray, "a run's record read or named outside train:\n" + "\n".join(stray)


def test_the_scan_sees_trains_record_sites():
    found = {(file, what) for file, _, what in _record_sites()}
    assert found >= {("train.py", "meta_field"), *(("train.py", n) for n in RECORD_NAMES)}
