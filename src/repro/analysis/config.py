"""Lint configuration: ``[tool.simlint]`` in ``pyproject.toml``.

Example::

    [tool.simlint]
    paths = ["src/repro"]
    exclude = []
    baseline = "simlint-baseline.json"

    [tool.simlint.per-path-ignore]
    # harness timing and the progress ticker legitimately read wall-clock
    "src/repro/harness/" = ["SIM101"]

    [tool.simlint.rule-paths]
    # hot-path rules only apply to the cycle-level simulator packages
    SIM201 = ["src/repro/core/", "src/repro/mem/", ...]

``per-path-ignore`` maps a path prefix to rule codes ignored under it;
``rule-paths`` restricts a rule to run only under the given prefixes
(absent entry = everywhere). Codes in either table may be prefixes —
``"SIM1"`` matches every SIM1xx rule, ``"SIM"`` matches all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

try:  # py3.11+; on older interpreters config falls back to defaults
    import tomllib
except ImportError:  # pragma: no cover
    tomllib = None  # type: ignore[assignment]

#: packages whose per-cycle structures the SIM2xx hot-path rules police
HOT_PACKAGES: Tuple[str, ...] = (
    "src/repro/core/",
    "src/repro/mem/",
    "src/repro/isa/",
    "src/repro/unsync/",
    "src/repro/reunion/",
)

#: packages where per-trial state copies are the hot path (SIM106)
COPY_PACKAGES: Tuple[str, ...] = (
    "src/repro/campaign/",
    "src/repro/checkpoint/",
)

#: the asyncio-based packages the SIM107 event-loop rule polices
#: (also the only networked package, so SIM109's retry/timeout
#: discipline is scoped to the same tree)
ASYNC_PACKAGES: Tuple[str, ...] = (
    "src/repro/service/",
)

DEFAULT_RULE_PATHS: Dict[str, Tuple[str, ...]] = {
    "SIM201": HOT_PACKAGES,
    "SIM106": COPY_PACKAGES,
    "SIM107": ASYNC_PACKAGES,
    "SIM109": ASYNC_PACKAGES,
    # the race lint reasons about the service tier's deliberate
    # async/thread/signal mix; elsewhere multi-domain writes are a
    # design smell the per-file rules already police differently
    "SIM601": ASYNC_PACKAGES,
}


class LintConfigError(ValueError):
    """Malformed ``[tool.simlint]`` table."""


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration (paths are POSIX, relative to root)."""

    root: Path
    paths: Tuple[str, ...] = ("src/repro",)
    exclude: Tuple[str, ...] = ()
    baseline: Optional[str] = "simlint-baseline.json"
    per_path_ignore: Mapping[str, Tuple[str, ...]] = \
        field(default_factory=dict)
    rule_paths: Mapping[str, Tuple[str, ...]] = \
        field(default_factory=lambda: dict(DEFAULT_RULE_PATHS))

    def rule_applies(self, code: str, rel_path: str) -> bool:
        """Whether ``code`` should run on ``rel_path`` under this config."""
        for rule_prefix, path_prefixes in self.rule_paths.items():
            if code.startswith(rule_prefix):
                if not any(rel_path.startswith(p) for p in path_prefixes):
                    return False
        for path_prefix, codes in self.per_path_ignore.items():
            if rel_path.startswith(path_prefix):
                if any(code.startswith(c) for c in codes):
                    return False
        return True


def _str_tuple(value: Any, where: str) -> Tuple[str, ...]:
    if not (isinstance(value, list)
            and all(isinstance(v, str) for v in value)):
        raise LintConfigError(f"{where} must be a list of strings, "
                              f"got {value!r}")
    return tuple(value)


def _path_table(value: Any, where: str) -> Dict[str, Tuple[str, ...]]:
    if not isinstance(value, dict):
        raise LintConfigError(f"{where} must be a table, got {value!r}")
    return {str(k): _str_tuple(v, f"{where}.{k}") for k, v in value.items()}


def load_config(root: Path,
                pyproject: Optional[Path] = None) -> LintConfig:
    """Read ``[tool.simlint]`` from ``pyproject.toml`` under ``root``.

    A missing file or missing table yields the built-in defaults; a
    malformed table raises :class:`LintConfigError` (an *internal error*
    at the CLI level — exit 2, not a finding).
    """
    root = root.resolve()
    path = pyproject if pyproject is not None else root / "pyproject.toml"
    if tomllib is None or not path.is_file():
        return LintConfig(root=root)
    try:
        with open(path, "rb") as fh:
            doc = tomllib.load(fh)
    except tomllib.TOMLDecodeError as exc:
        raise LintConfigError(f"unreadable {path}: {exc}") from exc
    table = doc.get("tool", {}).get("simlint")
    if table is None:
        return LintConfig(root=root)
    if not isinstance(table, dict):
        raise LintConfigError("[tool.simlint] must be a table")
    known = {"paths", "exclude", "baseline", "per-path-ignore", "rule-paths"}
    unknown = sorted(set(table) - known)
    if unknown:
        raise LintConfigError(
            f"unknown [tool.simlint] key(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})")
    kwargs: Dict[str, Any] = {"root": root}
    if "paths" in table:
        kwargs["paths"] = _str_tuple(table["paths"], "paths")
    if "exclude" in table:
        kwargs["exclude"] = _str_tuple(table["exclude"], "exclude")
    if "baseline" in table:
        baseline = table["baseline"]
        if baseline is not None and not isinstance(baseline, str):
            raise LintConfigError("baseline must be a string path")
        kwargs["baseline"] = baseline
    if "per-path-ignore" in table:
        kwargs["per_path_ignore"] = _path_table(
            table["per-path-ignore"], "per-path-ignore")
    if "rule-paths" in table:
        rule_paths = dict(DEFAULT_RULE_PATHS)
        rule_paths.update(_path_table(table["rule-paths"], "rule-paths"))
        kwargs["rule_paths"] = rule_paths
    return LintConfig(**kwargs)
