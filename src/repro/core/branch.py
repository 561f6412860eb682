"""Branch prediction: bimodal 2-bit counters plus a direct-mapped BTB.

The paper inherits M5's default front end; a bimodal predictor is the
appropriate fidelity here — Figure 4-6 trends depend on mispredict *rates*
only through their effect on ROB drain, and the synthetic workloads'
branchiness is a controlled knob.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class BimodalPredictor:
    """2-bit saturating-counter table + BTB.

    Counters start weakly-taken (2) which favours loop branches, as
    hardware tables effectively do after warm-up.
    """

    def __init__(self, entries: int = 2048, btb_entries: int = 512,
                 ras_entries: int = 16) -> None:
        if entries & (entries - 1):
            raise ValueError("predictor entries must be a power of two")
        self.entries = entries
        self.btb_entries = btb_entries
        self._table: List[int] = [2] * entries
        self._btb: Dict[int, int] = {}
        #: return-address stack (JAL pushes, JR pops) — without it every
        #: return from a multiply-called subroutine mispredicts, since
        #: the BTB can only remember one return target per JR
        self._ras: List[int] = []
        self.ras_entries = ras_entries
        self.lookups = 0
        self.mispredicts = 0

    def _index(self, pc: int) -> int:
        return (pc >> 2) & (self.entries - 1)

    def predict(self, pc: int) -> bool:
        """Predicted direction for the branch at ``pc``."""
        self.lookups += 1
        return self._table[self._index(pc)] >= 2

    def predict_target(self, pc: int) -> Optional[int]:
        """BTB target, or None on BTB miss (costs a redirect even when the
        direction was right). The BTB is modelled as a small
        fully-associative table with FIFO replacement."""
        return self._btb.get(pc)

    def update(self, pc: int, taken: bool, target: int) -> None:
        i = self._index(pc)
        counter = self._table[i]
        if taken:
            self._table[i] = min(3, counter + 1)
        else:
            self._table[i] = max(0, counter - 1)
        if taken:
            if len(self._btb) >= self.btb_entries and pc not in self._btb:
                # evict an arbitrary entry (dict order = insertion order)
                self._btb.pop(next(iter(self._btb)))
            self._btb[pc] = target

    def push_return(self, return_pc: int) -> None:
        """JAL fetched: remember its return address."""
        if len(self._ras) >= self.ras_entries:
            self._ras.pop(0)
        self._ras.append(return_pc)

    def pop_return(self) -> Optional[int]:
        """JR fetched: the predicted return target (None if RAS empty)."""
        return self._ras.pop() if self._ras else None

    def record_mispredict(self) -> None:
        self.mispredicts += 1
