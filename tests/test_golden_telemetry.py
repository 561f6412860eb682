"""Byte-identity of every scheme's telemetry stream.

Each case re-runs one scheme with a fresh :class:`~repro.telemetry.Telemetry`
and compares the event log's JSONL and the metrics snapshot with the
fixtures in ``tests/data`` — the stream ``repro trace run --events`` and
``--metrics`` write. The injected cases use the adversarial fault model at
seeds where every scheme re-enters a recovery, aborts one and declares a
DUE; the baseline case is fault-free.

After an intended change to a stream, regenerate the fixtures with
``PYTHONPATH=src python tests/test_golden_telemetry.py``.
"""

import json
import os
import sys

import pytest

from repro.faults.adversarial import adversarial_injector
from repro.harness.runner import run_scheme
from repro.telemetry import Telemetry
from repro.telemetry.events import FAULT_DUE, RECOVERY_ABORT, RECOVERY_REENTRY
from repro.workloads import load_workload

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

#: (scheme, workload, adversarial strike rate, seed); rate 0 = fault-free
CASES = [
    ("unsync", "checksum", 3e-3, 3),
    ("reunion", "fibonacci", 2e-2, 8),
    ("reptfd", "fibonacci", 3e-3, 3),
    ("meek", "checksum", 1e-2, 6),
    ("baseline", "bzip2", 0.0, 0),
]


def traced_run(scheme, workload, rate, seed, events_path):
    """Run one case, write its event log to ``events_path`` and return
    the metrics snapshot as sorted-key JSON."""
    telemetry = Telemetry()
    kwargs = {"telemetry": telemetry}
    if rate:
        kwargs["injector"] = adversarial_injector(scheme, rate, seed=seed)
    run_scheme(scheme, load_workload(workload), **kwargs)
    telemetry.events.write_jsonl(events_path)
    return json.dumps(telemetry.metrics.snapshot(), sort_keys=True)


def fixture_paths(scheme):
    return (os.path.join(DATA_DIR, f"golden_events_{scheme}.jsonl"),
            os.path.join(DATA_DIR, f"golden_metrics_{scheme}.json"))


@pytest.mark.parametrize("scheme,workload,rate,seed", CASES,
                         ids=[case[0] for case in CASES])
def test_telemetry_stream_matches_fixture(tmp_path, scheme, workload, rate,
                                          seed):
    events_path = tmp_path / "events.jsonl"
    metrics = traced_run(scheme, workload, rate, seed, str(events_path))
    want_events, want_metrics = fixture_paths(scheme)
    got = events_path.read_bytes()
    with open(want_events, "rb") as fh:
        assert got == fh.read(), \
            f"{scheme} event stream diverged from {want_events}"
    with open(want_metrics) as fh:
        assert metrics == fh.read(), \
            f"{scheme} metrics snapshot diverged from {want_metrics}"
    if rate:
        # the case exercises the whole recovery window, not just intake
        names = {json.loads(line)["name"] for line in got.splitlines()}
        assert {RECOVERY_REENTRY, RECOVERY_ABORT, FAULT_DUE} <= names


if __name__ == "__main__":
    for case in CASES:
        events, metrics_path = fixture_paths(case[0])
        with open(metrics_path, "w") as fh:
            fh.write(traced_run(*case, events))
        print(f"wrote {events} and {metrics_path}", file=sys.stderr)
