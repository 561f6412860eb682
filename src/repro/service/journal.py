"""Append-only job-state journal: how a restarted server re-adopts work.

The journal is to jobs what the campaign store is to trials — a
flush-per-line JSONL of state transitions::

    {"event": "submitted", "job_id": "job-000001", "spec": {...}, ...}
    {"event": "started",   "job_id": "job-000001"}
    {"event": "finished",  "job_id": "job-000001"}

Replaying it yields each job's last known state. A job whose last event
is not terminal (``finished``/``failed``/``cancelled``) was in flight
when the server died; on startup the scheduler resubmits it against its
recorded store, and the store's (cell, seed) keying guarantees the
resumed campaign re-runs only the missing trials — no trial lost, none
duplicated. The file is read and repaired by the campaign store's
:func:`~repro.campaign.store.read_jsonl` and
:func:`~repro.campaign.store.repair_jsonl`, so a torn final line (a
server killed mid-append) is dropped and garbage before it raises,
exactly as for a campaign store.

Adoption is exclusive: :meth:`JobJournal.acquire_lock` takes an
``O_CREAT | O_EXCL`` lock file next to the journal so two servers
pointed at the same data dir cannot both re-adopt (and both restart)
the same orphaned jobs. A lock left behind by a dead process is
detected by pid liveness and broken automatically. A lock that carries
this process's own pid is live only while a journal in this process
holds it: a server restarted under its dead predecessor's pid (pid 1 in
a restarted container) breaks the old lock.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Set

from repro.campaign.store import read_jsonl, repair_jsonl

#: job states a journal replay can surface
TERMINAL_EVENTS = frozenset({"finished", "failed", "cancelled"})

#: a pid-less lock older than this is presumed abandoned
STALE_LOCK_SECONDS = 300.0


class JournalLocked(RuntimeError):
    """Another live server owns this journal (double-adoption guard)."""


@dataclass
class JournalEntry:
    """Last known state of one journaled job."""

    job_id: str
    spec: Dict = field(default_factory=dict)
    store: str = ""
    workers: Optional[int] = None
    fingerprint: str = ""
    state: str = "submitted"
    error: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_EVENTS


class JobJournal:
    """One service instance's job-event JSONL."""

    #: lock paths the journals of this process hold
    _held: ClassVar[Set[str]] = set()

    def __init__(self, path, chaos=None) -> None:
        self.path = os.fspath(path)
        self.chaos = chaos
        self._locked = False

    # -- exclusive adoption -------------------------------------------------
    @property
    def lock_path(self) -> str:
        return os.path.abspath(self.path) + ".lock"

    def acquire_lock(self) -> None:
        """Take exclusive ownership of this journal or raise.

        Raises :class:`JournalLocked` if another *live* process holds
        the lock. A stale lock (holder pid no longer exists, or no pid
        and older than :data:`STALE_LOCK_SECONDS`) is broken and
        re-taken; the ``O_EXCL`` create arbitrates the resulting race —
        exactly one contender wins, the other sees the fresh live lock
        and raises.
        """
        if self._locked:
            return
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        for _ in range(3):
            try:
                fd = os.open(self.lock_path,
                             os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                holder = self._read_lock()
                if holder is None or self._lock_stale(holder):
                    try:
                        os.unlink(self.lock_path)
                    except FileNotFoundError:
                        pass  # the other contender broke it first
                    continue
                raise JournalLocked(
                    f"journal {self.path!r} is owned by pid "
                    f"{holder.get('pid')} (lock file {self.lock_path!r}); "
                    f"if that server is really gone, delete the lock")
            with os.fdopen(fd, "w") as fh:
                json.dump({"pid": os.getpid(), "created": time.time()}, fh)
                fh.flush()
            self._locked = True
            JobJournal._held.add(self.lock_path)
            return
        raise JournalLocked(
            f"could not win the lock race for {self.lock_path!r}")

    def release_lock(self) -> None:
        if not self._locked:
            return
        self._locked = False
        JobJournal._held.discard(self.lock_path)
        try:
            os.unlink(self.lock_path)
        except FileNotFoundError:
            pass  # an admin broke the lock by hand; nothing to release

    def _read_lock(self) -> Optional[Dict]:
        try:
            with open(self.lock_path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None  # vanished or garbled: treated as stale
        return data if isinstance(data, dict) else None

    def _lock_stale(self, holder: Dict) -> bool:
        pid = holder.get("pid")
        if isinstance(pid, int):
            if pid == os.getpid():
                # live only if a journal in this process holds it (a
                # second scheduler); else a dead holder had our pid
                return self.lock_path not in JobJournal._held
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return True
            except PermissionError:
                return False  # alive under another uid
            return False
        created = holder.get("created")
        if isinstance(created, (int, float)):
            return time.time() - created > STALE_LOCK_SECONDS
        return True

    # -- writing ------------------------------------------------------------
    def repair(self) -> bool:
        """Heal a torn trailing append before writing after it
        (:func:`~repro.campaign.store.repair_jsonl`): a lost event is
        crash-equivalent, since re-adoption re-runs only missing trials.
        Returns True if the file was modified."""
        return repair_jsonl(self.path)

    def record(self, event: str, job_id: str, **fields: object) -> None:
        """Durably append one state transition."""
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        self.repair()  # a torn tail must never become mid-file garbage
        entry = dict(fields, event=event, job_id=job_id)
        line = json.dumps(entry, sort_keys=True) + "\n"
        if self.chaos is not None and self.chaos.tear_journal():
            # simulate a writer killed between write() and the newline
            with open(self.path, "a") as fh:
                fh.write(line[:max(1, len(line) // 2)])
                fh.flush()
            return
        with open(self.path, "a") as fh:
            fh.write(line)
            fh.flush()

    def submitted(self, job_id: str, *, spec: Dict, store: str,
                  workers: Optional[int], fingerprint: str) -> None:
        self.record("submitted", job_id, spec=spec, store=store,
                    workers=workers, fingerprint=fingerprint)

    def started(self, job_id: str) -> None:
        self.record("started", job_id)

    def finished(self, job_id: str) -> None:
        self.record("finished", job_id)

    def failed(self, job_id: str, error: str) -> None:
        self.record("failed", job_id, error=error[-2000:])

    def cancelled(self, job_id: str) -> None:
        self.record("cancelled", job_id)

    # -- replay -------------------------------------------------------------
    def replay(self) -> List[JournalEntry]:
        """Each journaled job's last state, in first-submission order.

        A torn final line (server killed mid-append) is dropped;
        non-final garbage raises
        :class:`~repro.campaign.store.StoreCorruption` (a ``ValueError``).
        Keys a record carries beyond the ones read here are ignored, so
        journals from older versions still replay.
        """
        if not os.path.exists(self.path):
            return []
        jobs: Dict[str, JournalEntry] = {}
        for record in read_jsonl(self.path):
            event = record.get("event")
            job_id = record.get("job_id")
            if not job_id:
                continue
            if event == "submitted":
                jobs[job_id] = JournalEntry(
                    job_id=job_id,
                    spec=record.get("spec", {}),
                    store=record.get("store", ""),
                    workers=record.get("workers"),
                    fingerprint=record.get("fingerprint", ""))
            elif job_id in jobs:
                jobs[job_id].state = event or "submitted"
                if event == "failed":
                    jobs[job_id].error = record.get("error")
        return list(jobs.values())

    def orphans(self) -> List[JournalEntry]:
        """Jobs to re-adopt: journaled but never reached a terminal state."""
        return [entry for entry in self.replay() if not entry.terminal]

    def next_job_number(self) -> int:
        """1 + the highest numeric job suffix ever journaled."""
        highest = 0
        for entry in self.replay():
            suffix = entry.job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                highest = max(highest, int(suffix))
        return highest + 1
