"""Every whole-file write in src/cyclesynth goes through data.write_atomic.

A file written in place is truncated first, so a write that fails (a full
disk, Ctrl-C) leaves a partial file where the previous one was. write_atomic
writes a temp file beside the target and moves it on, so a reader sees the old
file or the new one. This parses src/cyclesynth with ast and fails on each
`.write_text(`, `.write_bytes(` and `open(...)` for writing (a mode holding w,
x, a or +, or a mode that is not a literal) outside the allowed sites:
write_atomic itself, and the append-mode loss_log.csv that run_training adds
each epoch's rows to after writing its header with write_atomic.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ALLOWED = {("data.py", "write_atomic", "open"), ("train.py", "run_training", "open")}


def _mode(call):
    """The mode of an open call: open(file, mode) or path.open(mode); "r" if unset,
    None if not a literal string."""
    positional = 0 if isinstance(call.func, ast.Attribute) else 1
    node = next((k.value for k in call.keywords if k.arg == "mode"), None)
    if node is None and len(call.args) > positional:
        node = call.args[positional]
    if node is None:
        return "r"
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _called(call):
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _is_write(call):
    name = _called(call)
    if name in ("write_text", "write_bytes"):
        return isinstance(call.func, ast.Attribute)
    if name != "open":
        return False
    mode = _mode(call)
    return mode is None or bool(set(mode) & set("wxa+"))


def _writes():
    """(file, line, enclosing function, call name) of every file write in src/cyclesynth."""
    found = []
    for path in sorted((ROOT / "src" / "cyclesynth").glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and _is_write(node)):
                continue
            owner = parents.get(node)
            while owner is not None and not isinstance(
                    owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = parents.get(owner)
            found.append((path.name, node.lineno,
                          owner.name if owner else "<module>", _called(node)))
    return sorted(found)


def test_every_whole_file_write_goes_through_write_atomic():
    stray = [f"{file}:{line}: {name}(...) in {fn}"
             for file, line, fn, name in _writes() if (file, fn, name) not in ALLOWED]
    assert not stray, "writes that bypass data.write_atomic:\n" + "\n".join(stray)


def test_the_scan_sees_the_allowed_writes():
    assert {(file, fn, name) for file, _, fn, name in _writes()} >= ALLOWED
