"""Checks on the shape of the package's source, read from its AST."""

import ast
from pathlib import Path

import deltasieve

SRC = Path(deltasieve.__file__).parent


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _has_default(value: ast.expr | None) -> bool:
    """Whether a dataclass field's right-hand side gives it a default:
    any value but a ``field(...)`` without ``default`` or ``default_factory``."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(k.arg in ("default", "default_factory") for k in value.keywords)
    return True


def _settable(tree: ast.AST) -> int:
    """Parameters with a default plus dataclass fields with a default."""
    n = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            n += len(node.args.defaults)
            n += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            n += sum(isinstance(s, ast.AnnAssign) and _has_default(s.value) for s in node.body)
    return n


def test_settable_values():
    # every settable value is a configuration to test; a new one edits this
    # pin and says why
    total = sum(_settable(ast.parse(f.read_text())) for f in sorted(SRC.glob("*.py")))
    assert total == 38
