"""Whole-system snapshots and the differential-replay prefix ring.

A campaign trial that is struck late need not re-simulate its fault-free
prefix: the prefix is run once, captured at coarse cycle epochs, and each
trial resumes from the newest epoch before its first strike.

* :mod:`repro.checkpoint.snapshot` — typed, page-interned capture and
  restore of a built system
  (:class:`~repro.checkpoint.snapshot.SystemSnapshot`);
* :class:`~repro.checkpoint.store.CheckpointStore` — the bounded ring
  those snapshots live in, with cost accounting and a cycle lookup.
"""
