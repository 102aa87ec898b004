"""Checks on the shape of the package's source, read from its AST."""

import ast
import importlib
import inspect
from pathlib import Path

import deltasieve

SRC = Path(deltasieve.__file__).parent
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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


def _settable(path: Path) -> list[tuple[str, str, str]]:
    """(file, def or class, name) of each parameter with a default and each
    dataclass field with a default."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            positional = args.posonlyargs + args.args
            named = positional[len(positional) - len(args.defaults) :]
            named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            owner = getattr(node, "name", "<lambda>")
            out += [(path.name, owner, a.arg) for a in named]
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            out += [
                (path.name, node.name, s.target.id)
                for s in node.body
                if isinstance(s, ast.AnnAssign) and _has_default(s.value)
            ]
    return out


def test_settable_values():
    # every settable value is a configuration to test; a new one edits this
    # pin and says why
    values = [v for f in sorted(SRC.glob("*.py")) for v in _settable(f)]
    assert len(values) == 20, "\n".join(map(str, values))


def test_benchmark_api_exists():
    """Every package name the benchmark's workloads read exists, and every
    keyword they pass in a direct call is a parameter of the callee.  The
    benchmark files change apart from the package, so a deletion that
    would break them fails here."""
    mods = {
        m: importlib.import_module(f"deltasieve.{m}")
        for m in ("arith", "density", "oscint", "sieve", "suites")
    }
    missing, keywords = [], set()
    for node in ast.walk(ast.parse(WORKLOADS.read_text())):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in mods:
            if not hasattr(mods[node.value.id], node.attr):
                missing.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            # a callee that does not exist is reported as its attribute
            name = getattr(node.func.value, "id", None)
            callee = getattr(mods.get(name), node.func.attr, None)
            if callee is None:
                continue
            params = inspect.signature(callee).parameters
            for kw in node.keywords:
                keywords.add(kw.arg)
                if kw.arg not in params:
                    missing.append(f"{name}.{node.func.attr}({kw.arg}=)")
    assert missing == []
    assert {"tolerance", "threads", "mode", "k2", "k3"} <= keywords
