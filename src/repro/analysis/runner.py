"""Tree walking and report rendering for simlint.

Exit-code contract (the CI gate keys off it):

* ``0`` — clean: no findings;
* ``1`` — findings: at least one finding (including SIM001 parse
  failures — an unparseable file is a *finding*, never a crash);
* ``2`` — internal error: simlint itself failed (bad config, rule bug,
  missing lint path). CI treats this as infrastructure failure, not
  as "the tree is dirty".

A finding is silenced only by an inline ``# simlint: off=CODE`` pragma
with its reason, or by a ``per-path-ignore`` entry in the config.

Both renderers are deterministic: findings sort canonically, JSON is
``sort_keys=True`` with no timestamps, so identical trees produce
byte-identical reports.
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import (Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.analysis.config import LintConfig, LintConfigError, load_config
from repro.analysis.findings import Finding
from repro.analysis.framework import (FileContext, LintInternalError,
                                      Rule, parse_context,
                                      run_file_rules, run_project_rules)
from repro.analysis.rules import ALL_RULES, rule_catalogue

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_INTERNAL_ERROR = 2


@dataclass
class LintReport:
    """Outcome of one lint run over a tree."""

    findings: List[Finding]          # sorted
    files: int = 0                   # files scanned

    @property
    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.code] = counts.get(f.code, 0) + 1
        return counts

    @property
    def exit_code(self) -> int:
        return EXIT_FINDINGS if self.findings else EXIT_CLEAN


def iter_lint_files(config: LintConfig,
                    paths: Sequence[str] = ()) -> List[Path]:
    """Deterministically ordered ``.py`` files under the configured roots.

    Explicit ``paths`` (from the CLI) override the configured ones.
    """
    roots = [config.root / p for p in (paths or config.paths)]
    files: List[Path] = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(root.rglob("*.py"))
        else:
            raise LintInternalError(f"lint path does not exist: {root}")
    by_rel: Dict[str, Path] = {}
    for f in files:  # overlapping roots name a file once
        by_rel.setdefault(_rel_posix(f, config.root), f)
    return [by_rel[rel] for rel in sorted(by_rel)]


def _rel_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def lint_tree(config: LintConfig,
              paths: Sequence[str] = (),
              rules: Iterable[Rule] = ALL_RULES) -> LintReport:
    """Lint the configured tree.

    Every file parses exactly once into a
    :class:`~repro.analysis.framework.FileContext`; the per-file rules
    run over each context, then the whole-program rules run once over
    the full parsed set (so the taint engine sees cross-file call
    chains even when the CLI was pointed at a subset of paths).
    """
    rules = tuple(rules)
    findings: List[Finding] = []
    contexts: Dict[str, FileContext] = {}
    files = iter_lint_files(config, paths)
    for path in files:
        rel = _rel_posix(path, config.root)
        try:
            source = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(
                path=rel, line=1, col=0, code="SIM001",
                message=f"file is unreadable: {exc}"))
            continue
        parsed = parse_context(source, rel)
        if isinstance(parsed, Finding):
            findings.append(parsed)
            continue
        contexts[rel] = parsed
        findings.extend(run_file_rules(parsed, rules, config))
    findings.extend(run_project_rules(contexts, rules, config))
    return LintReport(findings=sorted(findings), files=len(files))


def changed_paths(root: Path, ref: str) -> Set[str]:
    """Root-relative POSIX paths changed versus ``ref`` (diff-aware
    mode): committed changes, staged/unstaged edits, and untracked
    files. Raises :class:`LintInternalError` when git is unusable."""
    out: Set[str] = set()
    for argv in (["git", "diff", "--name-only", ref, "--"],
                 ["git", "ls-files", "--others",
                  "--exclude-standard"]):
        try:
            proc = subprocess.run(
                argv, cwd=root, capture_output=True, text=True,
                timeout=30, check=True)
        except (OSError, subprocess.SubprocessError) as exc:
            detail = ""
            if isinstance(exc, subprocess.CalledProcessError):
                detail = f": {exc.stderr.strip()}"
            raise LintInternalError(
                f"--changed needs a usable git checkout "
                f"({' '.join(argv)} failed{detail})") from exc
        out.update(line.strip() for line in proc.stdout.splitlines()
                   if line.strip())
    return out


def filter_to_paths(report: LintReport,
                    keep: Set[str]) -> LintReport:
    """The report restricted to findings in ``keep`` (diff-aware mode
    runs the *whole-program* analysis, then narrows the reported
    findings — a cross-file taint chain still counts when its sink
    lives in a changed file)."""
    return LintReport(
        findings=[f for f in report.findings if f.path in keep],
        files=report.files)


def render_text(report: LintReport) -> str:
    lines = [f.render() for f in report.findings]
    counts = ", ".join(f"{code} x{n}"
                       for code, n in sorted(report.counts.items()))
    if report.findings:
        lines.append(f"{len(report.findings)} finding(s) [{counts}] in "
                     f"{report.files} file(s)")
    else:
        lines.append(f"clean: {report.files} file(s)")
    return "\n".join(lines)


def render_json(report: LintReport) -> str:
    doc = {
        "version": 1,
        "files": report.files,
        "counts": report.counts,
        "findings": [f.to_dict() for f in report.findings],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def render_sarif(report: LintReport) -> str:
    """SARIF 2.1.0 for code-scanning UIs; byte-stable like the rest.

    Only rules with at least one finding are listed in the driver (so
    an unchanged tree always produces an identical artifact), findings
    are already canonically sorted, and nothing time- or
    environment-dependent is emitted.
    """
    summaries = {r["code"]: r["summary"] for r in rule_catalogue()}
    summaries.setdefault("SIM001", "file cannot be parsed or read")
    rules = [
        {
            "id": code,
            "shortDescription": {"text": summaries.get(code, code)},
        }
        for code in sorted(report.counts)
    ]
    results = [
        {
            "ruleId": f.code,
            "level": "error" if f.code == "SIM001" else "warning",
            "message": {"text": f.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": f.path},
                    "region": {"startLine": f.line,
                               "startColumn": f.col + 1},
                },
            }],
        }
        for f in report.findings
    ]
    doc = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [{
            "tool": {"driver": {"name": "simlint", "rules": rules}},
            "results": results,
        }],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_RENDERERS = {
    "text": lambda report: render_text(report) + "\n",
    "json": render_json,
    "sarif": render_sarif,
}


def run_lint_cli(paths: Sequence[str],
                 fmt: str,
                 root: Optional[str] = None,
                 changed: Optional[str] = None,
                 stdout=None) -> int:
    """Back end of ``repro lint`` — returns the process exit code."""
    import sys
    out = stdout if stdout is not None else sys.stdout
    try:
        config = load_config(Path(root) if root else Path.cwd())
        report = lint_tree(config, paths)
        if changed is not None:
            report = filter_to_paths(
                report, changed_paths(config.root, changed))
        out.write(_RENDERERS[fmt](report))
        return report.exit_code
    except (LintConfigError, LintInternalError) as exc:
        print(f"simlint internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


def self_check() -> Tuple[LintReport, LintConfig]:
    """Lint ``src/repro/analysis`` itself with every rule everywhere."""
    here = Path(__file__).resolve().parent
    config = LintConfig(root=here.parent.parent.parent, rule_paths={})
    report = lint_tree(config, paths=("src/repro/analysis",))
    return report, config
