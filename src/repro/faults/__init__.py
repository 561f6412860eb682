"""Soft-error substrate: SER math, strike injection, and detection models.

The paper's threat model is single-event upsets in *sequential* elements
(Sec III-B-1, citing AVF work: storage cells are the dominant vulnerability).
This package provides:

* :mod:`repro.faults.ser` — FIT-rate arithmetic, technology-node scaling,
  and conversion to per-instruction / per-cycle strike probabilities
  (the Sec VI-C sweep runs on these).
* :mod:`repro.faults.injector` — Poisson-process strike scheduling over a
  weighted inventory of microarchitectural blocks.
* :mod:`repro.faults.detection` — behaviourally-accurate models of 1-bit
  parity, DMR, and SECDED: what each catches, what it misses, and what it
  costs in latency.
* :mod:`repro.faults.events` — fault-event records and outcome taxonomy
  (masked / detected / silent data corruption).
"""
