"""Helpers several test modules share and the program itself never needs."""

from repro.analysis.findings import Finding
from repro.analysis.framework import (parse_context, run_file_rules,
                                      run_project_rules)
from repro.reunion.fingerprint import CRC16_INIT, crc16_update


def expand(spec):
    """Every trial of ``spec``, cell-major, seed-ascending."""
    return [t for cell in spec.cells() for t in spec.cell_trials(*cell)]


def check_source(source, path, rules, config=None):
    """Run ``rules`` over one file's source; sorted, pragma-filtered.

    ``path`` is the POSIX-style path relative to the lint root, which rule
    scoping keys off. A file that does not parse yields exactly one
    ``SIM001`` finding. Whole-program rules run over a one-file project.
    """
    parsed = parse_context(source, path)
    if isinstance(parsed, Finding):
        return [parsed]
    findings = run_file_rules(parsed, rules, config)
    findings.extend(run_project_rules({path: parsed}, rules, config))
    return sorted(findings)


def states_agree(system):
    """Architectural agreement between a pair's two cores."""
    a, b = system.pipelines
    return (a.committed_state.regs == b.committed_state.regs
            and a.committed_state.mem == b.committed_state.mem)


def crc16(data):
    """One-shot CRC-16 of ``data``."""
    return crc16_update(CRC16_INIT, data)
