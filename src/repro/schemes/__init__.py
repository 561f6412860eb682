"""repro.schemes: the pluggable resilience-scheme registry.

Public surface::

    from repro.schemes import get, register, available, protected_schemes

    system = get("unsync").build_system(program, injector=injector)
    result = system.run(max_cycles)

Registration order fixes the canonical scheme ordering everywhere a
list of schemes is presented (CLI choices, hwcost tables, CI smoke):
the two ported schemes first — ``protected_schemes()`` therefore starts
``("unsync", "reunion")`` — then the two new backends, then the
unprotected baseline.

To add a scheme: subclass :class:`ResilienceScheme`, implement
``build_system`` (and whichever of ``uncore_blocks`` / ``system_cost`` /
``event_energy`` apply; ``system_cost`` returns a
:class:`SchemeSystemCost`), name the counter that holds its recovery
cycles in ``recovery_metric``, and :func:`register` an instance. The
scheme's system reports its counters in ``RunResult.metrics`` under
``<name>.``-prefixed names. See README.md's "Resilience schemes" section
for a worked example.
"""

from repro.schemes.base import (
    ResilienceScheme,
    SchemeSystemCost,
    UnknownSchemeError,
    available,
    get,
    protected_schemes,
    register,
)
from repro.schemes.builtin import (
    BaselineScheme,
    MEEKScheme,
    RepTFDScheme,
    ReunionScheme,
    UnSyncScheme,
)

register(UnSyncScheme())
register(ReunionScheme())
register(RepTFDScheme())
register(MEEKScheme())
register(BaselineScheme())

__all__ = [
    "ResilienceScheme",
    "SchemeSystemCost",
    "UnknownSchemeError",
    "available",
    "get",
    "protected_schemes",
    "register",
]
