"""Project symbol table: modules, classes, functions, import aliases.

The per-file rules resolve dotted names with one file's import map;
whole-program rules (taint tracking, the service race lint) need the
same resolution *across* files — a call to ``helper()`` must land on
the ``def helper`` in another module even when it arrived through a
re-export or an ``as`` alias. The symbol
table indexes every top-level function, class, and method of a parsed
file set under canonical dotted symbols (``repro.campaign.trial
.run_trial``, ``repro.unsync.eih.ErrorInterruptHandler.poll``) and
folds each module's import map into one project-wide alias map, so
``repro.analysis.LintConfig`` canonicalizes to
``repro.analysis.config.LintConfig`` no matter how many re-export hops
sit in between.

Everything here is deterministic: modules index in sorted path order
and every public iteration surface is sorted, so downstream reports are
byte-stable.
"""

from __future__ import annotations

import ast
from pathlib import PurePosixPath
from typing import Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.analysis.framework import FileContext

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def module_name(rel_path: str) -> str:
    """Dotted module name of a POSIX-relative ``.py`` path.

    A leading ``src/`` component is dropped (the repo layout), and
    ``pkg/__init__.py`` names the package ``pkg`` itself.
    """
    parts = list(PurePosixPath(rel_path).parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[:-3]
    if leaf == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = leaf
    return ".".join(parts)


class FunctionInfo:
    """One function or method, addressable by its canonical symbol."""

    __slots__ = ("symbol", "module", "path", "node", "name",
                 "class_symbol", "is_async")

    def __init__(self, symbol: str, module: str, path: str,
                 node: FunctionNode,
                 class_symbol: Optional[str] = None) -> None:
        self.symbol = symbol
        self.module = module
        self.path = path
        self.node = node
        self.name = node.name
        self.class_symbol = class_symbol
        self.is_async = isinstance(node, ast.AsyncFunctionDef)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FunctionInfo({self.symbol})"


class ClassInfo:
    """One top-level class: its methods and resolved base names."""

    __slots__ = ("symbol", "module", "path", "node", "name", "bases",
                 "methods")

    def __init__(self, symbol: str, module: str, path: str,
                 node: ast.ClassDef, bases: Tuple[str, ...]) -> None:
        self.symbol = symbol
        self.module = module
        self.path = path
        self.node = node
        self.name = node.name
        #: base-class dotted names resolved through the file's imports
        #: (canonicalize via the table to land on project classes)
        self.bases = bases
        self.methods: Dict[str, FunctionInfo] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClassInfo({self.symbol})"


class ModuleInfo:
    """One parsed file under its dotted module name."""

    __slots__ = ("name", "path", "ctx", "functions", "classes")

    def __init__(self, name: str, path: str, ctx: FileContext) -> None:
        self.name = name
        self.path = path
        self.ctx = ctx
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}


class SymbolTable:
    """Canonical symbols and the project-wide alias map."""

    __slots__ = ("modules", "functions", "classes", "aliases")

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        #: imported/re-exported dotted name -> its import target
        self.aliases: Dict[str, str] = {}

    # -- construction -------------------------------------------------------
    @classmethod
    def build(cls, files: Mapping[str, FileContext]) -> "SymbolTable":
        table = cls()
        for path in sorted(files):
            table._index_module(path, files[path])
        return table

    def _index_module(self, path: str, ctx: FileContext) -> None:
        mod = module_name(path)
        info = ModuleInfo(mod, path, ctx)
        self.modules[mod] = info
        for local, target in ctx.imports.items():
            if target != local:
                self.aliases[f"{mod}.{local}"] = target
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                symbol = f"{mod}.{stmt.name}"
                fi = FunctionInfo(symbol, mod, path, stmt)
                info.functions[stmt.name] = fi
                self.functions[symbol] = fi
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(info, stmt)

    def _index_class(self, info: ModuleInfo, node: ast.ClassDef) -> None:
        symbol = f"{info.name}.{node.name}"
        # a bare base name is either module-local or a builtin; the
        # module-qualified form lets MRO walks find local base classes
        # (builtins then simply resolve to nothing, which is fine)
        bases = tuple(b if "." in b else f"{info.name}.{b}"
                      for b in (info.ctx.resolve(base)
                                for base in node.bases)
                      if b is not None)
        ci = ClassInfo(symbol, info.name, info.path, node, bases)
        info.classes[node.name] = ci
        self.classes[symbol] = ci
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method_symbol = f"{symbol}.{stmt.name}"
                fi = FunctionInfo(method_symbol, info.name, info.path,
                                  stmt, class_symbol=symbol)
                ci.methods[stmt.name] = fi
                self.functions[method_symbol] = fi

    # -- resolution ---------------------------------------------------------
    def canonicalize(self, dotted: str) -> str:
        """Follow import aliases until a project symbol (or fixpoint).

        ``repro.analysis.LintConfig`` -> ``repro.analysis.config
        .LintConfig``; chains of re-exports are followed with a cycle
        guard; a name that never lands on a project symbol is returned
        in its most-resolved form (e.g. ``time.monotonic``).
        """
        seen: Set[str] = set()
        while dotted not in self.functions and dotted not in self.classes:
            if dotted in seen:
                break
            seen.add(dotted)
            parts = dotted.split(".")
            replaced = None
            for i in range(len(parts), 0, -1):
                prefix = ".".join(parts[:i])
                target = self.aliases.get(prefix)
                if target is not None and target != prefix:
                    rest = parts[i:]
                    replaced = ".".join([target] + rest)
                    break
            if replaced is None or replaced == dotted:
                break
            dotted = replaced
        return dotted

    def resolve_method(self, class_symbol: str,
                       attr: str) -> Optional[FunctionInfo]:
        """Look ``attr`` up on a class and its project base classes."""
        seen: Set[str] = set()
        stack: List[str] = [class_symbol]
        while stack:
            symbol = stack.pop(0)
            if symbol in seen:
                continue
            seen.add(symbol)
            ci = self.classes.get(symbol)
            if ci is None:
                continue
            if attr in ci.methods:
                return ci.methods[attr]
            stack.extend(self.canonicalize(base) for base in ci.bases)
        return None
