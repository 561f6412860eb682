"""Every strike verdict is labelled in one place: the system chassis.

A strike's outcome label (detected, detected-unrecoverable, silent data
corruption) is what a fault-injection campaign reports, so it is set and
announced only in :class:`~repro.redundancy.pair.DualCoreSystem`: its
verdict helpers (``_sdc``, ``_detected``, ``_due``), its deferred compare
(``_compared``) and its recovery window. Walk ``src/repro`` and fail on
any other module that assigns one of those outcomes to an ``.outcome``
or emits ``fault.sdc``/``fault.due``/``fault.detected`` itself.
"""

import ast
from pathlib import Path

from repro.telemetry.events import FAULT_DETECTED, FAULT_DUE, FAULT_SDC

SRC = Path(__file__).resolve().parents[1] / "src"
CHASSIS = Path("repro", "redundancy", "pair.py")

VERDICTS = {"SDC", "DETECTED_RECOVERED", "DETECTED_UNRECOVERABLE"}
VERDICT_EVENTS = {"FAULT_SDC": FAULT_SDC, "FAULT_DUE": FAULT_DUE,
                  "FAULT_DETECTED": FAULT_DETECTED}


def _is_verdict(node):
    return (isinstance(node, ast.Attribute) and node.attr in VERDICTS
            and isinstance(node.value, ast.Name)
            and node.value.id == "Outcome")


def _is_verdict_event(node):
    if isinstance(node, ast.Name):
        return node.id in VERDICT_EVENTS
    if isinstance(node, ast.Attribute):
        return node.attr in VERDICT_EVENTS
    return (isinstance(node, ast.Constant)
            and node.value in VERDICT_EVENTS.values())


def _label_sites(tree):
    """(line, what) for each verdict assignment or announcement."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            if node.value is None or not any(
                    isinstance(t, ast.Attribute) and t.attr == "outcome"
                    for t in targets):
                continue
            for sub in ast.walk(node.value):
                if _is_verdict(sub):
                    yield node.lineno, f".outcome = Outcome.{sub.attr}"
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "emit" and node.args
              and _is_verdict_event(node.args[0])):
            yield node.lineno, "emits a verdict event"


def test_only_the_chassis_labels_verdicts():
    stray = []
    chassis_sites = 0
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC)
        sites = sorted(_label_sites(ast.parse(path.read_text(), str(path))))
        if rel == CHASSIS:
            chassis_sites = len(sites)
        else:
            stray += [f"{rel}:{line}: {what}" for line, what in sites]
    assert not stray, "label through DualCoreSystem._sdc/_detected/_due:\n" \
        + "\n".join(stray)
    # the walk does see the chassis' own helpers
    assert chassis_sites >= 6
