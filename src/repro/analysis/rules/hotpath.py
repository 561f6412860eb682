"""SIM2xx — hot-path rules.

The cycle loop allocates one record per dynamic instruction / store /
miss / interrupt; at campaign scale (10k trials x millions of cycles)
a per-instance ``__dict__`` or an eagerly-built f-string is measurable.
PR 2 bought a 3.4x throughput win partly from ``__slots__`` records —
these rules keep that win from eroding.
"""

from __future__ import annotations

import ast
import re
from typing import ClassVar, Iterator, Optional, Set

from repro.analysis.findings import Finding
from repro.analysis.framework import FileContext, Rule

#: class-name shapes that mean "allocated per cycle/instruction/event"
_RECORD_NAME = re.compile(
    r"(Record|Entry|Info|Slot|Line|Packet|Token|Uop|Interrupt|Fetched|"
    r"Instruction)$")

_DATACLASS_NAMES = ("dataclass", "dataclasses.dataclass")


def _dataclass_decorator(ctx: FileContext,
                         cls: ast.ClassDef) -> Optional[ast.expr]:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if ctx.resolve(target) in _DATACLASS_NAMES:
            return dec
    return None


def _has_slots_kwarg(dec: ast.expr) -> bool:
    if not isinstance(dec, ast.Call):
        return False
    for kw in dec.keywords:
        if (kw.arg == "slots" and isinstance(kw.value, ast.Constant)
                and kw.value.value is True):
            return True
    return False


def _declares_slots(cls: ast.ClassDef) -> bool:
    for stmt in cls.body:
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in stmt.targets)):
            return True
        if (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"):
            return True
    return False


class SlotsOnHotRecords(Rule):
    """SIM201: per-cycle record classes must declare ``__slots__``.

    Applies (by ``HOT_PACKAGES`` in :mod:`repro.analysis.config`) to
    the cycle-level simulator packages only. A "record" is recognised
    by name shape — ``*Entry``, ``*Record``, ``*Info``, ... — on
    classes with no explicit bases (slots through an unslotted base
    would be ineffective anyway).
    """

    code: ClassVar[str] = "SIM201"
    summary: ClassVar[str] = (
        "per-cycle record without __slots__ — a per-instance dict at "
        "campaign scale")
    example: ClassVar[str] = "@dataclass\nclass CBEntry:  # no slots=True"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.bases or node.keywords:
                continue  # slots via inheritance is its own design call
            if not _RECORD_NAME.search(node.name):
                continue
            dec = _dataclass_decorator(ctx, node)
            if dec is not None:
                if not _has_slots_kwarg(dec) and not _declares_slots(node):
                    yield self.finding(
                        ctx, node,
                        f"record dataclass {node.name} should declare "
                        f"slots (@dataclass(slots=True)) — one instance "
                        f"per simulated event")
            else:
                defines_init = any(
                    isinstance(s, ast.FunctionDef) and s.name == "__init__"
                    for s in node.body)
                if defines_init and not _declares_slots(node):
                    yield self.finding(
                        ctx, node,
                        f"record class {node.name} should declare "
                        f"__slots__ — one instance per simulated event")


#: functions whose bodies are the per-cycle inner loop
def _is_step_function(name: str) -> bool:
    return (name in ("step", "tick")
            or name.startswith(("step_", "_step", "tick_", "_tick",
                                "on_cycle")))


_LOG_METHODS = frozenset({"debug", "info", "warning", "warn", "error",
                          "exception", "critical", "log"})


class FormatInStepLoop(Rule):
    """SIM202: no eager string formatting or logging in step/tick.

    An f-string builds its string even when nobody consumes it; at one
    call per cycle that dominates the loop. Error paths are exempt
    (anything inside a ``raise`` or ``assert``), and null-backend
    telemetry calls are fine because they format nothing.
    """

    code: ClassVar[str] = "SIM202"
    summary: ClassVar[str] = (
        "eager formatting/logging inside a step/tick loop — route "
        "through the null-backend telemetry pattern")
    example: ClassVar[str] = 'def step(...): log.debug(f"cycle {now}")'

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_step_function(fn.name):
                continue
            exempt = self._error_path_nodes(fn)
            for node in ast.walk(fn):
                if node in exempt:
                    continue
                if isinstance(node, ast.JoinedStr):
                    yield self.finding(
                        ctx, node,
                        "f-string in a step/tick body builds a string "
                        "every cycle; format lazily or behind the null "
                        "backend")
                elif (isinstance(node, ast.BinOp)
                        and isinstance(node.op, ast.Mod)
                        and isinstance(node.left, ast.Constant)
                        and isinstance(node.left.value, str)):
                    yield self.finding(
                        ctx, node,
                        "%-formatting in a step/tick body runs every "
                        "cycle; format lazily or behind the null backend")
                elif isinstance(node, ast.Call):
                    yield from self._check_call(ctx, node)

    def _check_call(self, ctx: FileContext,
                    node: ast.Call) -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            yield self.finding(
                ctx, node, "print() in a step/tick body; emit a "
                           "telemetry event instead")
            return
        if not isinstance(func, ast.Attribute):
            return
        if (func.attr == "format" and isinstance(func.value, ast.Constant)
                and isinstance(func.value.value, str)):
            yield self.finding(
                ctx, node, "str.format in a step/tick body runs every "
                           "cycle; format lazily or behind the null "
                           "backend")
            return
        resolved = ctx.resolve(func) or ""
        receiver = resolved.rsplit(".", 1)[0].lower()
        if (func.attr in _LOG_METHODS
                and ("log" in receiver or resolved.startswith("logging."))):
            yield self.finding(
                ctx, node,
                f"{resolved}() in a step/tick body formats and filters "
                f"every cycle; use the telemetry event log (null backend "
                f"when off)")

    @staticmethod
    def _error_path_nodes(fn: ast.AST) -> Set[ast.AST]:
        """Nodes inside raise/assert — formatting there is error-path."""
        exempt: Set[ast.AST] = set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Raise, ast.Assert)):
                for sub in ast.walk(node):
                    exempt.add(sub)
        return exempt
