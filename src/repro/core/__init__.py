"""Cycle-level out-of-order core model (the M5/Alpha-21264 substitute).

The model is cycle-stepped: :meth:`~repro.core.pipeline.Pipeline.step`
advances one clock, moving instructions through fetch -> dispatch ->
issue -> execute -> writeback -> commit under the structural constraints
of Table I (4-wide everywhere, 64-entry issue queue, ROB, LSQ, MSHRs,
bimodal branch prediction, split L1s behind a shared bus + L2).

Functional semantics are evaluated eagerly at dispatch against a private
architectural image (no wrong-path *data* effects exist in the model;
branch mispredictions cost fetch-redirect cycles only). This keeps every
simulated run bit-exact with the golden executor while the timing side
reproduces the queueing behaviour the paper's evaluation hinges on: ROB
occupancy under deferred commit (Reunion, Fig 5), serializing-instruction
drains (Fig 4), and commit back-pressure from a full Communication Buffer
(UnSync, Fig 6).

Redundancy schemes plug in through :class:`~repro.core.pipeline.CommitGate`
— UnSync and Reunion install gates that may hold an instruction at the
commit point (and observe commits), which is exactly where both papers'
mechanisms live architecturally.
"""
