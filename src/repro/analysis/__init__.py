"""simlint: static determinism & hot-path invariant checks for the sim.

The reproduction's headline guarantees — byte-identical campaign JSONL
across serial/parallel runs, resumable stores, replay reuse — all rest
on simulator determinism, a property that used to be enforced only by
convention (and was broken twice: an ``id()``-keyed baseline cache and
a nondeterministic EIH pop order). ``repro.analysis`` turns those
conventions into AST-checked rules so the class of bug is caught at
lint time, not after a 10k-trial campaign diverges.

Entry points::

    python -m repro lint                  # gate the tree (exit 1 on findings)
    python -m repro lint --format json    # machine-readable report
    python -m repro lint --changed        # report files changed vs HEAD

A finding is either fixed or silenced where it stands: an inline
``# simlint: off=CODE`` pragma with its reason, or a ``per-path-ignore``
entry in ``[tool.simlint]``. Nothing else accepts a finding.

Rule catalogue: see ``repro.analysis.rules`` (SIM1xx determinism,
SIM2xx hot path, SIM3xx multiprocessing hygiene, SIM4xx exception
discipline) and the "Static analysis" section of the README.
"""

from __future__ import annotations

from repro.analysis.rules import rule_catalogue

__all__ = ["rule_catalogue"]
