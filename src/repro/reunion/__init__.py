"""Reunion (Smolens et al., MICRO 2006) — the paper's comparison baseline.

Loosely-coupled redundant core pairs that compare 16-bit CRC
*fingerprints* of the in-order retirement stream every FI (fingerprint
interval) instructions. Completed-but-unverified instructions wait in the
CHECK-stage buffer (CSB) and keep their ROB entries; serializing
instructions (traps, barriers, non-idempotent atomics) force the pipeline
to drain and verify before later work may dispatch; a fingerprint mismatch
rolls both cores back to the last verified boundary.

Public API:

* :class:`~repro.reunion.system.ReunionSystem` — run a workload under Reunion.
* :class:`~repro.reunion.fingerprint.FingerprintGenerator` / CRC-16 helpers.
* :class:`~repro.reunion.csb.CheckStageBuffer`.
* :class:`~repro.reunion.check_stage.CheckStage` — interval/verification
  bookkeeping shared by the pair.
"""
