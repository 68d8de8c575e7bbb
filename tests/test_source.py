"""Source hygiene: every module-level function in src/ has a reader
there, and every function the benchmark's traced runs must reach is
defined where its name says."""

import ast
import tokenize
from collections import Counter
from pathlib import Path

import burchkit

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "burchkit"


def _name_counts(paths):
    counts = Counter()
    for path in paths:
        with open(path, "rb") as fh:
            for tok in tokenize.tokenize(fh.readline):
                if tok.type == tokenize.NAME:
                    counts[tok.string] += 1
    return counts


def test_every_module_function_is_read_in_src_or_exported():
    # a function that no other line of src/ names and the package does
    # not export is read by the tests alone; decorated functions are
    # skipped, since a decorator may register them
    paths = sorted(SRC.glob("*.py"))
    counts = _name_counts(paths)
    exported = set(burchkit.__all__)
    unread = []
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef) or node.decorator_list:
                continue
            # its own def line names it once
            if counts[node.name] < 2 and node.name not in exported:
                unread.append("%s.%s" % (path.stem, node.name))
    assert unread == []


def test_every_suite_names_module_level_functions_of_fuzz():
    # a suite is one row of fuzz.SUITES; its generator, check and tags
    # are functions defined at the top level of burchkit.fuzz
    from burchkit import fuzz

    assert len(fuzz.SUITES) == 18
    for name, suite in fuzz.SUITES.items():
        assert suite.name == name
        parts = [suite.generate, suite.check]
        if suite.tags is not None:
            parts.append(suite.tags)
        for fn in parts:
            assert fn.__module__ == fuzz.__name__, (name, fn)
            assert "<locals>" not in fn.__qualname__, (name, fn.__qualname__)
            assert getattr(fuzz, fn.__name__) is fn, (name, fn.__name__)


def test_every_traced_pin_is_defined_where_it_is_named():
    # the traced runs wrap the functions of a module and those in a
    # class's own body, so a pin "mod.f" or "mod.Class.f" is reached
    # only while f is defined there, not inherited
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    pins = [
        elt.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "reached" for t in node.targets)
        for elt in node.value.elts
    ]
    assert len(pins) > 20
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    missing = []
    for pin in pins:
        module, *owner, name = pin.split(".")
        body = ast.parse((SRC / (module + ".py")).read_text(encoding="utf-8")).body
        for part in owner:
            body = next((n.body for n in body if isinstance(n, ast.ClassDef) and n.name == part), [])
        if not any(isinstance(n, functions) and n.name == name for n in body):
            missing.append(pin)
    assert missing == []
