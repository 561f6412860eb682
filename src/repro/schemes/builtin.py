"""The built-in scheme descriptors.

Each descriptor is a thin, import-light adapter from the
:class:`~repro.schemes.base.ResilienceScheme` seam onto the actual
simulator modules, and the one place that prices its scheme per
protected thread from :mod:`repro.hwcost`'s components:

* unprotected   = 1 x plain MIPS core
* UnSync pair   = 2 x (UnSync core + parity L1 + CB)
* Reunion pair  = 2 x (Reunion core + SECDED L1)
* RepTFD pair   = 2 x (plain MIPS core) + replay queue + comparator
* MEEK pair     = OoO leader + small in-order checker + check queue

The heavy imports all live inside the hook bodies so the registry itself
stays cheap to import (campaign specs resolve it at validation time).
"""

from __future__ import annotations

from typing import Tuple

from repro.schemes.base import ResilienceScheme, SchemeSystemCost


def _replicas(scheme: str, n_cores: int, config: str,
              tech) -> SchemeSystemCost:
    """``n_cores`` copies of one Table II core ``config`` at ``tech``."""
    from repro.hwcost.synthesis import synthesize
    from repro.hwcost.tech import TECH_65NM
    c = synthesize(config, tech or TECH_65NM)
    return SchemeSystemCost(scheme, n_cores, n_cores * c.total_area_um2,
                            n_cores * c.total_power_w, self_correcting=False)


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
        return _replicas("unprotected", 1, "mips", tech)


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
        return _replicas("unsync", 2, "unsync", tech)

    def event_energy(self, metrics, tech):
        from repro.hwcost.components import cb_array
        # one CB access ~ one cycle of CB power
        per_access = cb_array().power_w * (1.0 / tech.frequency_hz)
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
        return _replicas("reunion", 2, "reunion", tech)

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

    @staticmethod
    def _replay_queue():
        from repro.hwcost.components import cb_array
        from repro.schemes.reptfd import (
            REPLAY_ENTRY_BITS, REPLAY_QUEUE_ENTRIES,
        )
        return cb_array(REPLAY_QUEUE_ENTRIES, entry_bits=REPLAY_ENTRY_BITS)

    def system_cost(self, tech=None):
        """Two *plain* MIPS cores (no detectors, no CHECK stage) plus the
        replay queue and the full-value comparator — RepTFD's silicon
        story is that all the detection hardware is one FIFO and one
        comparator."""
        from repro.hwcost.components import (
            MIPS_CORE_AREA_UM2, MIPS_CORE_POWER_W,
        )
        from repro.hwcost.synthesis import synthesize
        from repro.hwcost.tech import TECH_65NM
        from repro.schemes.reptfd import COMPARATOR_GATES
        tech = tech or TECH_65NM
        base = synthesize("mips", tech)
        queue = self._replay_queue()
        cmp_area = COMPARATOR_GATES * tech.gate_area_um2
        cmp_power = MIPS_CORE_POWER_W * (cmp_area / MIPS_CORE_AREA_UM2)
        area = 2 * base.total_area_um2 + queue.area_um2 + cmp_area
        power = 2 * base.total_power_w + queue.power_w + cmp_power
        return SchemeSystemCost("reptfd", 2, area, power,
                                self_correcting=False)

    def event_energy(self, metrics, tech):
        per_access = self._replay_queue().power_w * (1.0 / tech.frequency_hz)
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

    @staticmethod
    def _check_queue():
        from repro.hwcost.components import cb_array
        from repro.schemes.meek import CHECK_ENTRY_BITS, CHECK_QUEUE_ENTRIES
        return cb_array(CHECK_QUEUE_ENTRIES, entry_bits=CHECK_ENTRY_BITS)

    def system_cost(self, tech=None):
        """One OoO leader plus the small in-order checker core plus the
        check queue — the sub-2x replication point none of the pair
        schemes can reach."""
        from repro.hwcost.synthesis import synthesize
        from repro.hwcost.tech import TECH_65NM
        from repro.schemes.meek import CHECKER_CORE_FRACTION
        base = synthesize("mips", tech or TECH_65NM)
        queue = self._check_queue()
        checker_area = base.total_area_um2 * CHECKER_CORE_FRACTION
        checker_power = base.total_power_w * CHECKER_CORE_FRACTION
        area = base.total_area_um2 + checker_area + queue.area_um2
        power = base.total_power_w + checker_power + queue.power_w
        return SchemeSystemCost("meek", 2, area, power,
                                self_correcting=False)

    def event_energy(self, metrics, tech):
        per_access = self._check_queue().power_w * (1.0 / tech.frequency_hz)
        # every checked record was pushed once and popped once
        return {"check_queue": per_access * 2 * metrics["meek.check.count"]}
