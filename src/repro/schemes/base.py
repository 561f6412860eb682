"""The resilience-scheme seam: one protocol, one registry.

A :class:`ResilienceScheme` bundles everything the rest of the repo needs
to know about one protection scheme — how to build its system over the
shared core+mem model, which uncore structures the adversarial fault
model may strike, what its silicon costs, what energy its events burn,
and which counter a campaign trial charges as recovery time. The
campaign grid, the CLI, the fault models, the energy model and the
hwcost reports all resolve schemes through :func:`get`/:func:`available`
instead of hard-coded ``{"unsync": ..., "reunion": ...}`` dicts, so
adding a scheme means registering one descriptor — nothing else changes.

Descriptors are deliberately *light*: the heavy system classes are
imported lazily inside :meth:`ResilienceScheme.build_system` (and the
other hooks), so importing ``repro.schemes`` — which campaign specs do
at validation time — never drags in the simulators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


class UnknownSchemeError(ValueError):
    """Lookup of a scheme name the registry does not hold.

    A ``ValueError`` subclass so historical ``except ValueError`` /
    ``pytest.raises(ValueError)`` sites around ``run_scheme`` keep
    working; the message lists what *is* registered so a typo on the
    command line is self-diagnosing.
    """

    def __init__(self, name: str, known: Tuple[str, ...]) -> None:
        super().__init__(
            f"unknown scheme {name!r} (available: {', '.join(known)})")
        self.name = name
        self.known = known


@dataclass
class SchemeSystemCost:
    """Total silicon for one protected thread under one scheme, which
    the scheme's :meth:`ResilienceScheme.system_cost` rolls up from
    Table II's components (:mod:`repro.hwcost`)."""

    scheme: str
    n_cores: int
    total_area_um2: float
    total_power_w: float
    #: does the scheme correct (not just detect) without pair recovery?
    self_correcting: bool

    def area_vs(self, other: "SchemeSystemCost") -> float:
        return self.total_area_um2 / other.total_area_um2 - 1.0

    def power_vs(self, other: "SchemeSystemCost") -> float:
        return self.total_power_w / other.total_power_w - 1.0


class ResilienceScheme:
    """One protection scheme's descriptor (subclass per scheme).

    Class attributes describe the scheme; methods are the seam's hooks.
    The defaults suit a detect-and-recover pair scheme; override what
    differs. All imports of simulator/cost modules belong *inside* the
    hook bodies (see the module docstring).
    """

    #: registry key, CLI ``--scheme`` value, and ``RunResult.scheme`` tag
    name: str = ""
    #: may a fault-injection campaign target this scheme? (the
    #: unprotected baseline has no detectors to fire)
    protected: bool = True
    #: ``RunResult.metrics`` counter a campaign trial charges as its
    #: recovery cycles ("" = the scheme never recovers)
    recovery_metric: str = ""

    # -- construction -------------------------------------------------------
    def build_system(self, program, config=None, **kwargs):
        """Build this scheme's system over ``program`` (must override).

        ``kwargs`` are forwarded to the system constructor (``injector``,
        ``telemetry``, scheme-specific knobs ...). The returned object
        exposes ``run(max_cycles) -> RunResult``.
        """
        raise NotImplementedError

    # -- fault model --------------------------------------------------------
    def uncore_blocks(self) -> Tuple:
        """Scheme-private uncore structures the adversarial fault model
        may strike (:class:`~repro.faults.injector.Block` tuple)."""
        return ()

    # -- snapshot/restore (differential replay) -----------------------------
    def snapshot(self, system, pool=None, ins_index=None):
        """Freeze a built system into a restorable
        :class:`~repro.checkpoint.snapshot.SystemSnapshot`.

        The default serializes the whole system object graph (see
        :mod:`repro.checkpoint.snapshot`); a scheme holding state that
        must not — or cannot — be pickled overrides this hook. Raises
        :class:`~repro.checkpoint.snapshot.SnapshotUnsupported` when the
        system cannot participate; a campaign then records every trial
        of that scheme and workload as a ``CRASH``.
        """
        from repro.checkpoint.snapshot import capture_system
        return capture_system(system, system.program, pool=pool,
                              ins_index=ins_index)

    def restore(self, snapshot, program, injector=None):
        """Thaw an independent replica; optionally arm a live injector.

        ``program`` must equal the program the capture was bound to.
        With ``injector`` the replica is re-armed exactly as
        :meth:`build_system` would have armed it at cycle 0, so a
        restored-then-injected run is cycle-identical to a full injected
        run whose first strike lands at or after the snapshot epoch.
        """
        from repro.checkpoint.snapshot import restore_system
        system = restore_system(snapshot, program)
        if injector is not None:
            self.attach_injector(system, injector)
        return system

    def attach_injector(self, system, injector) -> None:
        """Re-arm a restored system with a fresh injector.

        Mirrors the chassis' construction-time arming: the injector is
        installed and the first strike drawn with ``now=0`` — the same
        RNG call sequence as an injected ``build_system``, which is what
        keeps a fast-forwarded trial's strike stream byte-identical to
        full replay.
        """
        system.injector = injector
        system._arm_next_strike(0)

    # -- accounting ---------------------------------------------------------
    def system_cost(self, tech=None):
        """Per-protected-thread silicon cost at ``tech`` (default 65 nm)
        as a :class:`SchemeSystemCost`, or ``None`` when the scheme has
        no cost model."""
        return None

    def event_energy(self, metrics: Dict[str, float],
                     tech) -> Dict[str, float]:
        """Activity-proportional energy (J) by component, from a finished
        run's ``metrics`` at ``tech``'s frequency (empty = none)."""
        return {}


# -- registry ---------------------------------------------------------------
_REGISTRY: Dict[str, ResilienceScheme] = {}


def register(scheme: ResilienceScheme) -> ResilienceScheme:
    """Add ``scheme`` to the registry (last registration wins, so tests
    may shadow a builtin and restore it)."""
    if not scheme.name:
        raise ValueError("scheme descriptor needs a non-empty name")
    _REGISTRY[scheme.name] = scheme
    return scheme


def get(name: str) -> ResilienceScheme:
    """The descriptor registered under ``name``."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownSchemeError(name, available()) from None


def available() -> Tuple[str, ...]:
    """All registered scheme names, in registration order."""
    return tuple(_REGISTRY)


def protected_schemes() -> Tuple[str, ...]:
    """Registered schemes a fault-injection campaign may target."""
    return tuple(name for name, s in _REGISTRY.items() if s.protected)
