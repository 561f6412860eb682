"""Whole-system snapshot/restore for differential-replay campaigns.

A campaign cell's trials all simulate the *same* fault-free prefix up to
each trial's first strike (the simulator is deterministic by
construction), so the prefix can be executed once, snapshotted at coarse
cycle epochs, and every trial fast-forwarded from the nearest epoch at
or before its first injection cycle. This module is the serialization
layer of that scheme: :func:`capture_system` freezes any scheme system
into an immutable :class:`SystemSnapshot`, and :func:`restore_system`
thaws an independent, runnable replica.

The mechanism is a :mod:`pickle` stream with a persistent-id escape
hatch for the objects that must *not* be copied by value:

* the :class:`~repro.isa.program.Program` (and every ``Instruction`` it
  owns, which in-flight pipeline records reference) is stored by
  identity and re-bound on restore — programs are immutable and shared
  per process;
* every :class:`~repro.isa.memory.PagedMemory` image is lifted out of
  the stream as a table of immutable ``bytes`` pages, content-interned
  in a per-process page pool, and restored as a
  :class:`~repro.isa.memory.CowPagedMemory` — so the epochs of one
  prefix (and every restore from them) share unchanged pages instead of
  copying the memory image;
* the disabled-telemetry ``NULL_REGISTRY`` singleton keeps its identity.

Everything else — pipelines, ROBs, commit gates, CB/CSB/check-queue
structures, injector RNG streams, telemetry counters — round-trips
through the ordinary pickle machinery, which is exactly "serialize all
mutable state" without a hand-written field list per scheme.
"""

from __future__ import annotations

import io
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.memory import CowPagedMemory, PagedMemory
from repro.isa.program import Program
from repro.telemetry import NULL_REGISTRY

#: content-interning pool type: canonical page ``bytes`` keyed by value
PagePool = Dict[bytes, bytes]


class SnapshotUnsupported(RuntimeError):
    """The system holds state the snapshot layer cannot serialize.

    Raised instead of a bare ``PicklingError`` so the failure names the
    system, not pickle internals (externally supplied gates holding file
    handles, tracers, ...). Nothing catches it: a campaign's warm-up
    leaves that prefix key cold, each trial of the key raises it while
    building the prefix, and the executor records every such trial as a
    ``CRASH`` after its one retry.
    """


@dataclass(frozen=True)
class SystemSnapshot:
    """One frozen system state, restorable any number of times.

    ``payload`` is the pickle stream (with persistent-id holes);
    ``mems`` holds one page table per :class:`PagedMemory` the system
    owned, in encounter order, each mapping page number to an interned
    immutable ``bytes`` page. ``delta_bytes`` is the snapshot's
    *incremental* footprint: stream bytes plus only the pool pages this
    capture added (unchanged pages are shared with earlier epochs).
    """

    cycle: int
    payload: bytes
    mems: Tuple[Dict[int, bytes], ...]
    delta_bytes: int


def instruction_index(program: Program) -> Dict[int, int]:
    """``id(instruction) -> position`` for a program's instruction tuple.

    In-flight pipeline records (fetch buffer, ROB, issue queue) reference
    the program's ``Instruction`` objects; storing them by index keeps
    them out of the payload and re-bound to the shared program on
    restore. Callers should memoize this per program (the campaign cache
    does).
    """
    # simlint: off=SIM104 — the cache memoizes this per *live* program
    return {id(ins): i for i, ins in enumerate(program.instructions)}


class _SnapshotPickler(pickle.Pickler):
    """Pickler that lifts shared/immutable objects out of the stream."""

    def __init__(self, stream: io.BytesIO, program: Program,
                 ins_index: Dict[int, int], pool: PagePool,
                 mems: List[Dict[int, bytes]]) -> None:
        super().__init__(stream, protocol=pickle.HIGHEST_PROTOCOL)
        self._program = program
        self._ins_index = ins_index
        self._pool = pool
        self._mems = mems
        self._mem_ids: Dict[int, int] = {}
        self.new_pool_bytes = 0

    def _intern_page(self, page) -> bytes:
        data = bytes(page)
        canonical = self._pool.setdefault(data, data)
        if canonical is data:
            self.new_pool_bytes += len(data)
        return canonical

    def persistent_id(self, obj: Any) -> Optional[Tuple[Any, ...]]:
        if obj is self._program:
            return ("program",)
        if obj is NULL_REGISTRY:
            return ("nullreg",)
        cls = type(obj)
        if cls is Instruction:
            # every keyed object is alive for this pickling pass (the
            # pickle memo's own id-keying contract)
            index = self._ins_index.get(id(obj))  # simlint: off=SIM104
            # instructions synthesized outside the program (the fetch
            # stage's out-of-range HALT) travel by value
            return None if index is None else ("ins", index)
        if cls is PagedMemory or cls is CowPagedMemory:
            key = self._mem_ids.get(id(obj))  # simlint: off=SIM104
            if key is None:
                key = len(self._mems)
                self._mem_ids[id(obj)] = key  # simlint: off=SIM104
                self._mems.append({pno: self._intern_page(page)
                                   for pno, page in obj._pages.items()})
            return ("mem", key)
        return None


class _SnapshotUnpickler(pickle.Unpickler):
    def __init__(self, stream: io.BytesIO, program: Program,
                 mems: Tuple[Dict[int, bytes], ...]) -> None:
        super().__init__(stream)
        self._program = program
        self._mems = mems

    def persistent_load(self, pid: Tuple[Any, ...]) -> Any:
        tag = pid[0]
        if tag == "mem":
            # fresh page *table*, shared immutable pages: copy-on-write
            return CowPagedMemory(dict(self._mems[pid[1]]))
        if tag == "ins":
            return self._program.instructions[pid[1]]
        if tag == "program":
            return self._program
        if tag == "nullreg":
            return NULL_REGISTRY
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def capture_system(system: Any, program: Program,
                   pool: Optional[PagePool] = None,
                   ins_index: Optional[Dict[int, int]] = None
                   ) -> SystemSnapshot:
    """Freeze ``system`` (any scheme's) into a :class:`SystemSnapshot`.

    ``pool`` is the page-interning dict shared across the epochs of one
    prefix (and across cells of one workload); omit it for a one-off
    snapshot. ``program`` must be the program the system was built over.
    """
    if pool is None:
        pool = {}
    if ins_index is None:
        ins_index = instruction_index(program)
    mems: List[Dict[int, bytes]] = []
    stream = io.BytesIO()
    pickler = _SnapshotPickler(stream, program, ins_index, pool, mems)
    try:
        pickler.dump(system)
    except (pickle.PicklingError, TypeError, AttributeError) as exc:
        raise SnapshotUnsupported(
            f"cannot snapshot {type(system).__name__}: {exc!r}") from exc
    payload = stream.getvalue()
    return SystemSnapshot(cycle=int(getattr(system, "now", 0)),
                          payload=payload, mems=tuple(mems),
                          delta_bytes=len(payload)
                          + pickler.new_pool_bytes)


def restore_system(snapshot: SystemSnapshot, program: Program) -> Any:
    """Thaw an independent replica of the snapshotted system.

    Restores may repeat freely: every call builds fresh mutable state,
    and memory pages stay shared (copy-on-write) until the replica
    writes them. ``program`` must equal the one the capture was bound to
    (instructions re-bind by index; campaigns pass their program memo).
    """
    stream = io.BytesIO(snapshot.payload)
    return _SnapshotUnpickler(stream, program, snapshot.mems).load()
