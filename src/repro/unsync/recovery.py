"""Always-forward recovery cost model (Sec III-A, "Recovery Mode").

The six recovery steps and how each is charged:

1. stop both cores                  -> ``STALL_LATENCY`` (eih.py)
2. flush the erroneous pipeline     -> ``PIPELINE_FLUSH_CYCLES``
3. copy arch state + L1 contents    -> bytes / bus bandwidth via the L2
4. stop CB->L2 drains               -> in-flight transfer completes (bus)
5. overwrite the erroneous CB       -> CB entries over the pair link
6. both cores resume from the clean core's PC

The paper performs step 3 "by specific subroutines using the shared L2
cache", so the copy bandwidth is the L1<->L2 path: each transferred block
costs a bus transfer plus an L2 access. Step 6's "always forward" property
is *free* performance: the erroneous core may skip work it had not yet
done (it adopts the clean core's progress), which partially compensates
the copy cost — the model reports both numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.unsync.comm_buffer import ENTRY_BYTES

#: the state-copy path: an 8-byte L1<->L2 bus beat, the L2 access the
#: copy subroutines pay, and the flush of the erroneous pipeline
BUS_WIDTH_BYTES = 8
L2_ACCESS_CYCLES = 20
PIPELINE_FLUSH_CYCLES = 4
#: the architectural state copied in step 3: the register file (+ PC)
#: and each resident L1D line
REG_COUNT = 32
REG_BYTES = 4
LINE_BYTES = 64


@dataclass(frozen=True)
class RecoveryPlan:
    """Cycle budget of one recovery, broken down by step."""

    stall_cycles: int
    flush_cycles: int
    regfile_copy_cycles: int
    l1_copy_cycles: int
    cb_copy_cycles: int

    @property
    def total_cycles(self) -> int:
        return (self.stall_cycles + self.flush_cycles
                + self.regfile_copy_cycles + self.l1_copy_cycles
                + self.cb_copy_cycles)


@dataclass(frozen=True)
class RecoveryCostModel:
    """The state-copy path's cost, under one L1-restore mode."""

    #: how the erroneous core's L1 is restored:
    #: * ``"copy"``       — bulk-copy the clean core's L1 contents via the
    #:   L2, exactly as Sec III-A step 3 describes (expensive, warm);
    #: * ``"invalidate"`` — flash-invalidate only. Correct because the L1
    #:   is write-through (every line has a valid copy in the ECC L2);
    #:   the cost moves to post-recovery cold misses instead of the copy.
    #:   The paper's break-even SER (1.29e-3) is only reachable with a
    #:   recovery this cheap, so both modes matter.
    l1_restore: str = "copy"

    def __post_init__(self) -> None:
        if self.l1_restore not in ("copy", "invalidate"):
            raise ValueError("l1_restore must be 'copy' or 'invalidate'")

    def _block_copy_cycles(self, n_blocks: int, block_bytes: int) -> int:
        """Cycles to push ``n_blocks`` of ``block_bytes`` through the
        core->L2->core path. The copy is pipelined: every block after the
        first hides its L2 latency behind the previous transfer."""
        if n_blocks <= 0:
            return 0
        beats = max(1, -(-block_bytes // BUS_WIDTH_BYTES))
        # write to L2 then read back on the other core: 2 traversals,
        # plus one fill/drain of the L2 pipe
        return n_blocks * 2 * beats + 2 * L2_ACCESS_CYCLES

    def plan(self,
             stall_cycles: int,
             l1_resident_lines: int,
             cb_entries: int) -> RecoveryPlan:
        """Compute the full recovery budget.

        ``l1_resident_lines`` counts the clean core's valid L1D lines (the
        write-through I-side needs only invalidation, which is folded into
        the flush); ``cb_entries`` is the clean CB occupancy copied in
        step 5.
        """
        regfile = self._block_copy_cycles(1, REG_COUNT * REG_BYTES
                                          + REG_BYTES)  # + PC
        if self.l1_restore == "copy":
            l1 = self._block_copy_cycles(l1_resident_lines, LINE_BYTES)
        else:
            l1 = 1  # flash invalidate
        cb = self._block_copy_cycles(cb_entries, ENTRY_BYTES) if cb_entries else 0
        return RecoveryPlan(
            stall_cycles=stall_cycles,
            flush_cycles=PIPELINE_FLUSH_CYCLES,
            regfile_copy_cycles=regfile,
            l1_copy_cycles=l1,
            cb_copy_cycles=cb,
        )
