"""UnSync: the paper's contribution.

Two identical cores run one thread without synchronizing. The only
coupling is the Communication Buffer pair: each core's write-through L1
spills retired stores into its CB, and an entry drains to the shared L2
only once *both* cores have produced it (one copy is written). Hardware
detectors (parity / DMR, :mod:`repro.faults.detection`) watch every
sequential element; on detection the Error Interrupt Handler freezes the
pair and the clean core's architectural state + L1 + CB are copied over
the erroneous core — *always forward*, never a rollback.

Public API:

* :class:`~repro.unsync.system.UnSyncSystem` — run a workload under UnSync.
* :class:`~repro.unsync.comm_buffer.CommBuffer` — the CB mechanism.
* :class:`~repro.unsync.eih.ErrorInterruptHandler` — detection-to-recovery
  signalling.
* :mod:`repro.unsync.recovery` — the always-forward recovery cost model.
"""
