"""Every module under ``src/repro`` has a caller outside the tests.

Starting from the program's entry points (``repro``, ``repro.__main__``,
``repro.cli``), follow every import statement, including the ones inside
function bodies through which the scheme registry and the CLI load their
simulators lazily. Importing ``a.b.c`` also runs ``a`` and ``a.b``. A
module nothing reaches is code only tests and examples can run.

The scan sees imports, not calls: a module that is imported but never
called passes. It also cannot see imports built from strings at run
time; the package has none.
"""

import ast
import importlib.util
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
ROOTS = ("repro", "repro.__main__", "repro.cli")

#: reached only from tests and examples until campaign outcome labels
#: propagate undetected strikes through them (ROADMAP.md, "Outcome labels
#: that hold up")
AWAITING_CALLER = {"repro.faults.sdc", "repro.faults.avf"}


def _modules():
    mods = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        is_pkg = parts[-1] == "__init__"
        if is_pkg:
            parts.pop()
        mods[".".join(parts)] = (path, is_pkg)
    return mods


def _imports(name, path, is_pkg, mods):
    package = name if is_pkg else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            target = importlib.util.resolve_name(
                "." * node.level + (node.module or ""), package)
            found.add(target)
            # ``from pkg import sub`` imports the submodule ``pkg.sub``
            found.update(f"{target}.{alias.name}" for alias in node.names)
    return {m for m in found if m in mods}


def test_every_module_is_reachable_from_an_entry_point():
    mods = _modules()
    reached = set()
    todo = list(ROOTS)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        parent = name.rpartition(".")[0]
        if parent:
            todo.append(parent)
        todo.extend(_imports(name, *mods[name], mods))
    stale = AWAITING_CALLER & reached
    assert not stale, f"now reached, drop from AWAITING_CALLER: {stale}"
    orphans = set(mods) - reached - AWAITING_CALLER
    assert not orphans, sorted(orphans)
