"""Append-only JSONL result store — the campaign's durability layer.

Layout: line 1 is the spec header, every further line one completed
trial::

    {"kind": "spec", "spec": {...}}
    {"kind": "trial", "cell": "unsync/sha/0.0001", "seed": 3, ...}

Records are flushed per trial, so a campaign killed at any instant loses
at most the line being written. On resume the reader tolerates exactly
that: a torn (unparsable or truncated) *final* line is dropped; garbage
anywhere earlier is corruption and raises. Trials are keyed by
``(cell, seed)`` — the engine skips keys already present, and readers
deduplicate on first occurrence so a re-run trial (its record torn, then
rewritten) cannot double-count.

:func:`repair_jsonl` and :func:`read_jsonl` are that torn-tail contract
for any append-only JSONL file; the service's job journal
(:mod:`repro.service.journal`) is the other file that uses them.
"""

from __future__ import annotations

import json
import os
from typing import Any, Callable, Dict, Iterator, Optional, Set, Tuple

from repro.campaign.spec import CampaignError, CampaignSpec

SPEC_KIND = "spec"
TRIAL_KIND = "trial"


class StoreCorruption(CampaignError):
    """A non-final line of a JSONL file failed to parse."""


def repair_jsonl(path: str) -> bool:
    """Truncate torn trailing data left by a killed writer.

    Must run before any append to a pre-existing file: a torn final
    line is tolerated by :func:`read_jsonl`, but appending *past* it
    would turn it into mid-file corruption. A trailer that parses and
    only lost its newline is completed instead of dropped; trailing
    lines that do not parse (garbled JSON, or bytes that are not UTF-8)
    are truncated away. Returns True if the file was modified.
    """
    if not os.path.exists(path):
        return False
    with open(path, "rb+") as fh:
        data = fh.read()
        end = len(data)
        changed = False
        if data and not data.endswith(b"\n"):
            nl = data.rfind(b"\n")
            try:
                json.loads(data[nl + 1:])
            except ValueError:
                end = nl + 1
                changed = True
            else:
                fh.write(b"\n")
                return True
        while end > 0:
            prev = data.rfind(b"\n", 0, end - 1)
            line = data[prev + 1:end].strip()
            if not line:
                end = prev + 1
                changed = True
                continue
            try:
                json.loads(line)
                break
            except ValueError:
                end = prev + 1
                changed = True
        if changed:
            fh.truncate(end)
    return changed


def read_jsonl(path: str) -> Iterator[Any]:
    """Every record of a JSONL file, in write order.

    A torn final line (a writer killed mid-append) is dropped; a line
    anywhere earlier that does not parse raises :class:`StoreCorruption`.
    Lines are read as they are yielded, so a reader that stops early
    (:meth:`ResultStore.load_spec`) reads no further.
    """
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                # final: nothing follows it, or it ended the file when
                # read (a running job's results request can read a
                # store while its engine appends)
                if not line.endswith(b"\n") or not fh.readline():
                    return  # torn final line from a killed writer
                raise StoreCorruption(
                    f"{path}:{number}: unparsable non-final record")
            yield record


class ResultStore:
    """One campaign's JSONL file.

    ``on_append`` is an observer hook fired *after* each durably written
    trial record — the campaign service feeds its live rollups from it.
    Observation never influences what is written, so the hook cannot
    perturb the store's byte-identity guarantees.
    """

    def __init__(self, path,
                 on_append: Optional[Callable[[Dict], None]] = None) -> None:
        self.path = os.fspath(path)
        self.on_append = on_append

    def exists(self) -> bool:
        return os.path.exists(self.path) and os.path.getsize(self.path) > 0

    # -- writing ------------------------------------------------------------
    def repair(self) -> bool:
        """:func:`repair_jsonl` on this store; run before appending."""
        return repair_jsonl(self.path)

    def create(self, spec: CampaignSpec) -> None:
        """Start a fresh store with the spec header."""
        if self.exists():
            raise CampaignError(f"store {self.path!r} already exists")
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "w") as fh:
            fh.write(json.dumps({"kind": SPEC_KIND, "spec": spec.to_dict()},
                                sort_keys=True) + "\n")

    def append_trial(self, record: Dict) -> None:
        """Durably append one completed trial."""
        line = json.dumps(dict(record, kind=TRIAL_KIND), sort_keys=True)
        # flush-per-line: a SIGKILL loses at most the line being written
        # (the reader drops a torn final line)
        with open(self.path, "a") as fh:
            fh.write(line + "\n")
            fh.flush()
        if self.on_append is not None:
            self.on_append(record)

    # -- reading ------------------------------------------------------------
    def load_spec(self) -> CampaignSpec:
        for record in read_jsonl(self.path):
            if record.get("kind") != SPEC_KIND:
                raise StoreCorruption(
                    f"{self.path}: first record is not a spec header")
            return CampaignSpec.from_dict(record["spec"])
        raise CampaignError(f"store {self.path!r} is empty")

    def iter_trials(self) -> Iterator[Dict]:
        """Trial records in write order, deduplicated on (cell, seed)."""
        seen: Set[Tuple[str, int]] = set()
        for record in read_jsonl(self.path):
            if record.get("kind") != TRIAL_KIND:
                continue
            key = (record["cell"], record["seed"])
            if key in seen:
                continue
            seen.add(key)
            yield record
