"""The built-in scheme descriptors.

Each descriptor is a thin, import-light adapter from the
:class:`~repro.schemes.base.ResilienceScheme` seam onto the actual
simulator/cost modules; the heavy imports all live inside the hook
bodies so the registry itself stays cheap to import (campaign specs
resolve it at validation time).
"""

from __future__ import annotations

from typing import Tuple

from repro.schemes.base import ResilienceScheme


class BaselineScheme(ResilienceScheme):
    """The unprotected single core — the figure-4/5/6 reference."""

    name = "baseline"
    protected = False

    def build_system(self, program, config=None, **kwargs):
        from repro.redundancy.pair import BaselineSystem
        return BaselineSystem(program, config=config, **kwargs)

    def attach_injector(self, system, injector) -> None:
        raise ValueError(
            "the unprotected baseline takes no fault injection "
            "(snapshot/restore works; injector re-arming does not)")

    def system_cost(self, tech=None):
        from repro.hwcost.redundancy_cost import unprotected_cost
        from repro.hwcost.tech import TECH_65NM
        return unprotected_cost(tech or TECH_65NM)


class UnSyncScheme(ResilienceScheme):
    """The paper's architecture: un-synchronized pair, CB + EIH."""

    name = "unsync"
    protected = True
    recovery_metric = "unsync.recovery.cycles"

    def build_system(self, program, config=None, **kwargs):
        from repro.unsync.system import UnSyncSystem
        return UnSyncSystem(program, config=config, **kwargs)

    def uncore_blocks(self) -> Tuple:
        from repro.unsync.system import UNSYNC_UNCORE_BLOCKS
        return UNSYNC_UNCORE_BLOCKS

    def system_cost(self, tech=None):
        from repro.hwcost.redundancy_cost import unsync_pair_cost
        from repro.hwcost.tech import TECH_65NM
        return unsync_pair_cost(tech or TECH_65NM)

    def event_energy(self, metrics, tech):
        from repro.hwcost.components import cb_array
        # one CB access ~ one cycle of CB power
        per_access = cb_array(10).power_w * (1.0 / tech.frequency_hz)
        return {
            "cb_traffic": per_access * (metrics["unsync.cb.pushes"]
                                        + metrics["unsync.cb.drains"]),
            # the pair burns its normal power while frozen — the *extra*
            # energy is the copy traffic, charged like CB accesses
            "recovery_copies": per_access * metrics["unsync.recovery.cycles"],
        }


class ReunionScheme(ResilienceScheme):
    """The comparison baseline: fingerprint-compared vocal/mute pair."""

    name = "reunion"
    protected = True
    recovery_metric = "reunion.rollback.cycles"

    def build_system(self, program, config=None, **kwargs):
        from repro.reunion.system import ReunionSystem
        return ReunionSystem(program, config=config, **kwargs)

    def uncore_blocks(self) -> Tuple:
        from repro.reunion.system import REUNION_UNCORE_BLOCKS
        return REUNION_UNCORE_BLOCKS

    def system_cost(self, tech=None):
        from repro.hwcost.redundancy_cost import reunion_pair_cost
        from repro.hwcost.tech import TECH_65NM
        return reunion_pair_cost(tech or TECH_65NM)

    def event_energy(self, metrics, tech):
        from repro.hwcost.components import crc_generator
        # each fingerprint is generated on both cores
        per_fp = crc_generator(tech).power_w * (1.0 / tech.frequency_hz) * 2
        return {"fingerprints":
                per_fp * metrics["reunion.fingerprint.compared"]}


class RepTFDScheme(ResilienceScheme):
    """Delayed-replay comparison against the leading core."""

    name = "reptfd"
    protected = True
    recovery_metric = "reptfd.rollback.cycles"

    def build_system(self, program, config=None, **kwargs):
        from repro.schemes.reptfd import RepTFDSystem
        return RepTFDSystem(program, config=config, **kwargs)

    def uncore_blocks(self) -> Tuple:
        from repro.schemes.reptfd import REPTFD_UNCORE_BLOCKS
        return REPTFD_UNCORE_BLOCKS

    def system_cost(self, tech=None):
        from repro.hwcost.redundancy_cost import reptfd_pair_cost
        from repro.hwcost.tech import TECH_65NM
        return reptfd_pair_cost(tech or TECH_65NM)

    def event_energy(self, metrics, tech):
        from repro.hwcost.components import cb_array
        from repro.schemes.reptfd import (
            REPLAY_ENTRY_BITS, REPLAY_QUEUE_ENTRIES,
        )
        queue = cb_array(REPLAY_QUEUE_ENTRIES, entry_bits=REPLAY_ENTRY_BITS)
        per_access = queue.power_w * (1.0 / tech.frequency_hz)
        # every compared record was pushed once and popped once
        compares = metrics["reptfd.replay.compares"]
        return {
            "replay_queue": per_access * 2 * compares,
            "rollback_refill": per_access * metrics["reptfd.rollback.cycles"],
        }


class MEEKScheme(ResilienceScheme):
    """Cheap in-order trailing checker core paired with the OoO leader."""

    name = "meek"
    protected = True
    recovery_metric = "meek.recovery.cycles"

    def build_system(self, program, config=None, **kwargs):
        from repro.schemes.meek import MEEKSystem
        return MEEKSystem(program, config=config, **kwargs)

    def uncore_blocks(self) -> Tuple:
        from repro.schemes.meek import MEEK_UNCORE_BLOCKS
        return MEEK_UNCORE_BLOCKS

    def system_cost(self, tech=None):
        from repro.hwcost.redundancy_cost import meek_pair_cost
        from repro.hwcost.tech import TECH_65NM
        return meek_pair_cost(tech or TECH_65NM)

    def event_energy(self, metrics, tech):
        from repro.hwcost.components import cb_array
        from repro.schemes.meek import CHECK_ENTRY_BITS, CHECK_QUEUE_ENTRIES
        queue = cb_array(CHECK_QUEUE_ENTRIES, entry_bits=CHECK_ENTRY_BITS)
        per_access = queue.power_w * (1.0 / tech.frequency_hz)
        # every checked record was pushed once and popped once
        return {"check_queue": per_access * 2 * metrics["meek.check.count"]}
