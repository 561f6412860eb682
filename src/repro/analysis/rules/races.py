"""SIM601: shared instance state written from multiple concurrency
domains without a common lock (service tier).

The detection work lives in :mod:`repro.analysis.domains`; this rule
renders its reports as findings. Scoped to ``src/repro/service/`` via
the default rule paths — the service tier is the only place the repo
deliberately mixes the event loop, worker threads, and signal
handlers against one object graph.
"""

from __future__ import annotations

from typing import ClassVar, Iterator

from repro.analysis.callgraph import ProjectContext
from repro.analysis.domains import find_races
from repro.analysis.findings import Finding
from repro.analysis.framework import ProjectRule


class SharedStateRace(ProjectRule):
    """SIM601: one attribute, several domains, no common lock."""

    code: ClassVar[str] = "SIM601"
    summary: ClassVar[str] = (
        "instance attribute written from more than one concurrency "
        "domain (async/thread/signal) without a common lock")
    example: ClassVar[str] = (
        "self._jobs[k] = job  # also mutated by a to_thread worker")

    def check_project(self,
                      project: ProjectContext) -> Iterator[Finding]:
        for report in find_races(project):
            writes = "; ".join(
                f"{site.method}() [{report.path}:{site.lineno}] "
                f"in {domain} domain"
                + (f" under self.{site.lock}" if site.lock else
                   " unlocked")
                for domain, site in report.entries)
            cls_name = report.class_symbol.rsplit(".", 1)[-1]
            message = (
                f"self.{report.attr} of {cls_name} is written from "
                f"{len(report.domains)} concurrency domains "
                f"({', '.join(report.domains)}) without a common "
                f"lock: {writes}")
            yield Finding(path=report.path, line=report.anchor.lineno,
                          col=0, code=self.code, message=message)
