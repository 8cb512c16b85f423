"""Every defaulted parameter in src/cyclesynth is set by some caller, and relied on
by another.

A default that no call site overrides is a constant dressed as an option: it
reads as a setting, but nothing ever changes it. A default that every call site
overrides is never used, and only hides a required parameter. This parses src/,
tests/ and perfbench/ with ast and fails on each defaulted parameter of a
function in src/cyclesynth that no call passes, by keyword or by position, or
that every call passes. Calls match by the called name (`f(...)` or
`x.f(...)`), and a class call counts for the class's `__init__`; a call with
`*args` or `**kwargs` counts as passing every parameter it could reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defaulted_parameters():
    """(file, function, parameter, positional index or None, callee name) of every
    defaulted parameter; the index skips self in methods."""
    found = []
    for path in sorted((ROOT / "src" / "cyclesynth").glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = parents.get(fn)
            method = isinstance(owner, ast.ClassDef)
            callee = owner.name if method and fn.name == "__init__" else fn.name
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            for i, arg in enumerate(positional[first:], first):
                found.append((path.name, fn.name, arg.arg, i - method, callee))
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    found.append((path.name, fn.name, arg.arg, None, callee))
    return found


def _calls():
    """callee name -> list of (positional count, keyword names, has *args, has **kwargs)."""
    calls = {}
    for top in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(
                    f, ast.Attribute) else None
                if name is None:
                    continue
                starred = any(isinstance(x, ast.Starred) for x in node.args)
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                double = any(k.arg is None for k in node.keywords)
                calls.setdefault(name, []).append(
                    (len(node.args), keywords, starred, double))
    return calls


def _passes(site, index, param):
    """Whether one call site passes the parameter at `index` (None: keyword-only)."""
    count, keywords, starred, double = site
    return param in keywords or double or (index is not None and (count > index or starred))


def test_every_defaulted_parameter_has_a_caller_that_sets_it():
    calls = _calls()
    unset = [f"{file}: {fn}({param}=...)"
             for file, fn, param, index, callee in _defaulted_parameters()
             if not any(_passes(site, index, param) for site in calls.get(callee, []))]
    assert not unset, "defaulted parameters no caller sets:\n" + "\n".join(unset)


def test_every_default_is_relied_on_by_some_caller():
    calls = _calls()
    unused = [f"{file}: {fn}({param}=...)"
              for file, fn, param, index, callee in _defaulted_parameters()
              if calls.get(callee) and all(_passes(site, index, param)
                                           for site in calls[callee])]
    assert not unused, "defaults every caller overrides:\n" + "\n".join(unused)


def test_the_scan_sees_the_program():
    found = _defaulted_parameters()
    assert ("engine.py", "instance_norm", "slope", 4, "instance_norm") in found
    # Tensor(array, requires_grad=...) is a call of Tensor.__init__
    assert ("engine.py", "__init__", "requires_grad", 1, "Tensor") in found
    sites = _calls()["Tensor"]
    assert any(_passes(site, 1, "requires_grad") for site in sites)
    assert not any(_passes(site, 9, "no_such_parameter") for site in sites)
