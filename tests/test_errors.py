"""The package raises only its own error types, and defines none that nothing uses.

A subclass of `TwinwidthError` exists where a caller catches it by type;
every other failed precondition raises the base class with its message.
"""

import ast
import inspect
from pathlib import Path

import twinwidth.errors as errors
from twinwidth.errors import TwinwidthError

SRC = Path(errors.__file__).resolve().parent
CLASSES = {name for name, obj in vars(errors).items()
           if inspect.isclass(obj) and issubclass(obj, TwinwidthError)}


def _modules():
    for path in sorted(SRC.glob("*.py")):
        yield path.name, ast.parse(path.read_text())


def _names(node):
    """The plain names an except clause lists, or a raise calls."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Call):
        node = node.func
    return [node.id] if isinstance(node, ast.Name) else []


def test_every_raise_names_a_package_error():
    foreign = []
    for filename, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names = _names(node.exc)
                if not names or names[0] not in CLASSES:
                    foreign.append(f"{filename}:{node.lineno} {ast.unparse(node.exc)[:40]}")
    assert foreign == []


def test_every_error_class_is_raised_or_caught():
    used = set()
    for _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.update(_names(node.exc))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used.update(_names(node.type))
    assert CLASSES - used == set()
