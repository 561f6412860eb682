"""Project call graph and the whole-program analysis context.

Built on the :mod:`repro.analysis.symbols` table: every call expression
inside a project function is resolved — through the file's import map,
the project-wide alias map, and ``self.method`` lookup along project
base classes — to either a *project* symbol (an edge in the graph) or
an *external* dotted name (recorded per caller so taint sources like
``time.time`` stay visible). Unresolvable calls (computed attributes,
calls on arbitrary receivers) are dropped; every analysis downstream is
deliberately conservative in what it claims, not in what it guesses.

:class:`ProjectContext` bundles the parsed files, the symbol table and
the call graph; it is built once per lint run and handed to every
:class:`~repro.analysis.framework.ProjectRule`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.analysis.framework import FileContext
from repro.analysis.symbols import FunctionInfo, SymbolTable


class CallSite:
    """One resolved call expression inside a project function."""

    __slots__ = ("callee", "node", "lineno", "external")

    def __init__(self, callee: str, node: ast.Call,
                 external: bool) -> None:
        self.callee = callee
        self.node = node
        self.lineno = node.lineno
        self.external = external

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ext" if self.external else "proj"
        return f"CallSite({self.callee}, {kind}, L{self.lineno})"


class CallGraph:
    """caller symbol -> resolved call sites (+ reverse adjacency)."""

    __slots__ = ("sites", "callers")

    def __init__(self) -> None:
        self.sites: Dict[str, List[CallSite]] = {}
        #: project callee -> set of project caller symbols
        self.callers: Dict[str, Set[str]] = {}

    def project_callees(self, caller: str) -> List[str]:
        return [s.callee for s in self.sites.get(caller, [])
                if not s.external]

    def edges(self) -> List[Tuple[str, str]]:
        """Sorted, deduplicated project-internal (caller, callee) pairs."""
        pairs = {(caller, site.callee)
                 for caller, sites in self.sites.items()
                 for site in sites if not site.external}
        return sorted(pairs)


def resolve_call(table: SymbolTable, fi: FunctionInfo, ctx: FileContext,
                 call: ast.Call) -> Optional[Tuple[str, bool]]:
    """Resolve one call's target to ``(canonical_name, external)``.

    ``self.method(...)`` resolves along the caller's class and its
    project bases; everything else goes through the file import map and
    the alias map. A project *class* target resolves to the class
    symbol itself (construction). Returns ``None`` when the target
    cannot be named (subscripts, call results, unknown receivers).
    """
    dotted = ctx.resolve(call.func)
    if dotted is None:
        return None
    if dotted.startswith("self.") and fi.class_symbol is not None:
        attr = dotted[len("self."):]
        if "." in attr:
            return None
        method = table.resolve_method(fi.class_symbol, attr)
        if method is None:
            return None
        return method.symbol, False
    canon = table.canonicalize(dotted)
    if canon in table.functions or canon in table.classes:
        return canon, False
    # bare (or class-qualified) module-local names: ``helper()`` inside
    # ``pkg.mod`` means ``pkg.mod.helper`` unless an import shadows it
    local = table.canonicalize(f"{fi.module}.{dotted}")
    if local in table.functions or local in table.classes:
        return local, False
    # a bare local name that resolved to nothing project-known and is
    # not dotted is almost always a local variable, not a callable we
    # can reason about — claiming it external would alias unrelated
    # locals across functions
    if "." not in canon and canon not in ctx.imports \
            and not isinstance(call.func, ast.Name):
        return None
    return canon, True


def iter_calls(fi: FunctionInfo) -> Iterator[ast.Call]:
    """Call expressions lexically inside ``fi`` (nested defs included:
    their effects are attributed to the enclosing indexed function)."""
    for node in ast.walk(fi.node):
        if isinstance(node, ast.Call):
            yield node


def build_call_graph(table: SymbolTable) -> CallGraph:
    graph = CallGraph()
    for symbol in sorted(table.functions):
        fi = table.functions[symbol]
        ctx = table.modules[fi.module].ctx
        sites: List[CallSite] = []
        for call in iter_calls(fi):
            resolved = resolve_call(table, fi, ctx, call)
            if resolved is None:
                continue
            callee, external = resolved
            sites.append(CallSite(callee, call, external))
            if not external:
                graph.callers.setdefault(callee, set()).add(symbol)
        graph.sites[symbol] = sites
    return graph


class ProjectContext:
    """Everything a whole-program rule may look at.

    ``cache`` lets rules that share one expensive artifact (the five
    SIM5xx rules all consume the same taint fixpoint) compute it once
    per project build.
    """

    __slots__ = ("files", "table", "graph", "cache")

    def __init__(self, files: Mapping[str, FileContext],
                 table: SymbolTable, graph: CallGraph) -> None:
        self.files = dict(files)
        self.table = table
        self.graph = graph
        self.cache: Dict[str, object] = {}


def build_project(files: Mapping[str, FileContext]) -> ProjectContext:
    """Index a parsed file set for whole-program analysis."""
    table = SymbolTable.build(files)
    return ProjectContext(files, table, build_call_graph(table))


def postorder(graph: CallGraph) -> List[str]:
    """Callees-first traversal order over the project edges.

    Analyzing functions in this order makes the taint fixpoint converge
    in one pass for acyclic regions; cycles are handled by the outer
    iteration. Deterministic: roots and neighbours visit in sorted
    order, every indexed function appears exactly once.
    """
    order: List[str] = []
    visited: Set[str] = set()
    for root in sorted(graph.sites):
        if root in visited:
            continue
        stack: List[Tuple[str, Iterator[str]]] = [
            (root, iter(sorted(set(graph.project_callees(root)))))]
        visited.add(root)
        while stack:
            symbol, it = stack[-1]
            advanced = False
            for callee in it:
                if callee not in visited and callee in graph.sites:
                    visited.add(callee)
                    stack.append(
                        (callee,
                         iter(sorted(set(graph.project_callees(callee))))))
                    advanced = True
                    break
            if not advanced:
                order.append(symbol)
                stack.pop()
    return order
