"""Every module-level function and class of the package has a reader.

A definition passes when another part of the package names it (a name,
an attribute, an import or a string equal to it, as make_parser names
the cmd_* functions), when mcglm.__all__ exports it, or when the
benchmark's tracer wraps it. What is left is code nothing calls.
"""

import ast
import importlib.util
from pathlib import Path

import mcglm

PACKAGE = Path(mcglm.__file__).resolve().parent
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_bindings():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {
        binding
        for layers in (tracer.SPAN_LAYERS, tracer.COUNT_LAYERS)
        for bindings in layers.values()
        for binding in bindings
    }


def names_read(tree):
    """Every identifier the tree reads, imports or spells out as a whole string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_definition_is_named_elsewhere_exported_or_traced():
    trees = {f"mcglm.{p.stem}" if p.stem != "__init__" else "mcglm": ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py"))}
    # a def statement is not a read, so a name read anywhere has a reader besides itself
    read = set().union(*(names_read(tree) for tree in trees.values()))
    kept = set(mcglm.__all__) | read
    traced = tracer_bindings()
    definitions = [(module, node.name) for module, tree in trees.items() for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    assert len(definitions) > 50
    unread = [f"{module}.{name}" for module, name in definitions
              if not name.startswith("__") and name not in kept and (module, name) not in traced]
    assert unread == []
