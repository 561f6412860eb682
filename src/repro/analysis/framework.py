"""Rule framework: file context, name resolution, and the per-file run.

Rules are small visitor-ish objects: ``check(ctx)`` yields
:class:`~repro.analysis.findings.Finding` for one parsed file. The
framework owns everything rules should not re-implement — import-aware
dotted-name resolution, pragma suppression, per-path rule scoping, and
the "unparseable file is a finding, not a crash" contract (SIM001).
"""

from __future__ import annotations

import ast
from typing import (ClassVar, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Set, TYPE_CHECKING)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.analysis.callgraph import ProjectContext

from repro.analysis.config import LintConfig
from repro.analysis.findings import Finding
from repro.analysis.pragmas import Suppressions

#: pseudo-rule for files the checker itself cannot process
PARSE_ERROR_CODE = "SIM001"


class LintInternalError(RuntimeError):
    """A rule crashed — a simlint bug, not a finding (CLI exit 2)."""


def _build_import_map(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted origin they were imported as.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from time import perf_counter as pc`` -> ``{"pc":
    "time.perf_counter"}``. Imports anywhere in the file count (the sim
    defers several imports into methods).
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else local
                imports[local] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level or node.module is None:  # relative: leave alone
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _statement_anchors(tree: ast.Module) -> Dict[int, FrozenSet[int]]:
    """Extra pragma anchor lines for findings inside statement spans.

    A pragma suppresses findings on its own line or the line below —
    but a finding may anchor deep inside one *logical* statement: the
    ``def`` line of a decorated function (the pragma sits above the
    first decorator), or a continuation line of a parenthesized /
    backslash-continued statement (the pragma sits above the statement,
    or trails its closing line). For every line inside a statement's
    header span this maps to the span's first line, the line above it,
    and the span's last line, so those positions work as pragma sites
    too. Compound statements anchor only their *header* (decorators
    through the line before the first body statement) — a pragma above
    a ``for`` must not blanket the loop body.
    """
    anchors: Dict[int, Set[int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = node.lineno
        decorators = getattr(node, "decorator_list", None)
        if decorators:
            start = min(start, decorators[0].lineno)
        body = getattr(node, "body", None)
        if isinstance(body, list) and body \
                and isinstance(body[0], ast.stmt):
            end = max(start, body[0].lineno - 1)
        else:
            end = node.end_lineno or start
        if end <= start and not decorators:
            continue  # single-line statement: the default rule covers it
        span = {start - 1, start, end}
        for line in range(start, end + 1):
            anchors.setdefault(line, set()).update(span)
    return {line: frozenset(lines) for line, lines in anchors.items()}


class FileContext:
    """Everything a rule may look at for one file."""

    __slots__ = ("path", "source", "tree", "imports", "suppressions",
                 "_anchors")

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.imports: Dict[str, str] = _build_import_map(tree)
        self.suppressions = Suppressions(source)
        self._anchors: Dict[int, FrozenSet[int]] = \
            _statement_anchors(tree)

    def finding_suppressed(self, finding: Finding) -> bool:
        """Pragma check for one finding, statement-span aware."""
        if self.suppressions.is_suppressed(finding.line, finding.code):
            return True
        extra = self._anchors.get(finding.line, frozenset())
        return any(self.suppressions.matches(line, finding.code)
                   for line in extra)

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of a ``Name``/``Attribute`` chain, import-aware.

        ``np.random.rand`` resolves to ``"numpy.random.rand"``;
        ``self._rng.random`` resolves to ``"self._rng.random"``;
        anything that is not a pure attribute chain resolves to None.
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None


class Rule:
    """Base class for one lint rule (one SIMxxx code)."""

    code: ClassVar[str] = ""
    summary: ClassVar[str] = ""
    #: one motivating example for the README catalogue
    example: ClassVar[str] = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(path=ctx.path, line=lineno, col=col,
                       code=self.code, message=message)


class ProjectRule(Rule):
    """A rule that runs once over the whole parsed file set.

    Whole-program rules see every file, the symbol table and the call
    graph at once; their findings still anchor to one (path, line) and
    go through the same pragma / path-scoping machinery as
    per-file findings. ``check`` is intentionally inert so a
    ProjectRule mixed into a per-file battery contributes nothing
    twice.
    """

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        return iter(())

    def check_project(self,
                      project: "ProjectContext") -> Iterator[Finding]:
        raise NotImplementedError


def parse_error_finding(path: str, exc: SyntaxError) -> Finding:
    lineno = exc.lineno or 1
    col = max(0, (exc.offset or 1) - 1)
    return Finding(path=path, line=lineno, col=col, code=PARSE_ERROR_CODE,
                   message=f"file does not parse: {exc.msg}")


def parse_context(source: str, path: str) -> "FileContext | Finding":
    """Parse one file into a :class:`FileContext`, or the SIM001
    finding describing why it cannot be analyzed."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return parse_error_finding(path, exc)
    except ValueError as exc:  # e.g. source with null bytes
        return Finding(path=path, line=1, col=0, code=PARSE_ERROR_CODE,
                       message=f"file does not parse: {exc}")
    return FileContext(path, source, tree)


def run_file_rules(ctx: FileContext, rules: Iterable[Rule],
                   config: Optional[LintConfig] = None) -> List[Finding]:
    """Per-file rules over one parsed context; pragma/scope filtered."""
    findings: List[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            continue
        if config is not None \
                and not config.rule_applies(rule.code, ctx.path):
            continue
        try:
            for finding in rule.check(ctx):
                if not ctx.finding_suppressed(finding):
                    findings.append(finding)
        except Exception as exc:
            raise LintInternalError(
                f"rule {rule.code} crashed on {ctx.path}: {exc!r}"
            ) from exc
    return findings


def run_project_rules(files: Dict[str, FileContext],
                      rules: Iterable[Rule],
                      config: Optional[LintConfig] = None
                      ) -> List[Finding]:
    """Whole-program rules over a parsed file set (built once)."""
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    if not project_rules:
        return []
    from repro.analysis.callgraph import build_project
    project = build_project(files)
    findings: List[Finding] = []
    for rule in project_rules:
        try:
            for finding in rule.check_project(project):
                if config is not None and not config.rule_applies(
                        finding.code, finding.path):
                    continue
                ctx = files.get(finding.path)
                if ctx is not None and ctx.finding_suppressed(finding):
                    continue
                findings.append(finding)
        except Exception as exc:
            raise LintInternalError(
                f"rule {rule.code} crashed: {exc!r}") from exc
    return findings
