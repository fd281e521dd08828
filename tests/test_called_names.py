"""The package holds only what its commands and the benchmark call.

Every module-level function or class of src/hypergraphlets, and every
non-dunder method of such a class, must be named somewhere in the package
outside its own definition, or in perfbench/.  A name counts when it is an
identifier, an attribute, an imported name or a dotted part of a string
constant: perfbench/launch.py names what it wraps as strings.  Oracles and
helpers that only tests call live in tests/oracles.py.
"""

import ast
from pathlib import Path

import hypergraphlets

SRC = Path(hypergraphlets.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Named only by tests, and kept on purpose.
EXEMPT = {
    # Acceptance criterion 1 calls it as a method inside its assertion.
    "CounterSet.tables_equal",
    # The paper's identity behind the k-star construction that hardlab's
    # docstring presents; acceptance criterion 10 checks it.
    "kstar_identity_check",
}


def _names(node):
    """Every (name, line) that node and its descendants name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id, sub.lineno
        elif isinstance(sub, ast.Attribute):
            yield sub.attr, sub.lineno
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2], sub.lineno
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            for part in sub.value.split("."):
                yield part, sub.lineno


def _definitions(tree):
    """(qualified name, bare name, first line, last line) of every checked
    definition in a module."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield ("%s.%s" % (node.name, item.name), item.name,
                           item.lineno, item.end_lineno)


def uncalled(src=SRC, perfbench=PERFBENCH):
    """The qualified names of src's definitions that nothing names."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    outside = set()
    for path in sorted(perfbench.glob("*.py")):
        outside.update(name for name, _ in _names(ast.parse(path.read_text())))
    named = {path: list(_names(tree)) for path, tree in trees.items()}
    missing = []
    for path, tree in trees.items():
        for qual, name, first, last in _definitions(tree):
            if qual in EXEMPT or name in outside:
                continue
            if any(n == name and not (p == path and first <= line <= last)
                   for p, refs in named.items() for n, line in refs):
                continue
            missing.append("%s.%s" % (path.stem, qual))
    return missing


def test_every_definition_is_named_outside_tests():
    assert uncalled() == []
